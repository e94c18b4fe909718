"""Hyperbola and ellipse geometry: pedal coordinates, arcs, and excesses.

A hyperbola x^2/a^2 - y^2/b^2 = 1 is rectified through two auxiliary
ellipses: writing a = m - n, b = 2 sqrt(mn), the outer ellipse has semiaxes
(m+n, 2 sqrt(mn)) and the inner one (m, n).  The tangent segment cut on the
inner ellipse parameterizes the hyperbola arc, the finite excess (tangent
length minus arc) decomposes into named elliptic pieces, and its limit as
the point recedes equals twice the inner quadrant minus the outer quadrant.
Each closed form here is validated against the quadrature oracle in the
test suite.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .agm import _agm_steps, complete_E, incomplete_E
from .errors import DomainError, IntegrandError
from .landen import ResidualReport, _Checked
from .quadrature import integrate

__all__ = [
    "Hyperbola",
    "Ellipse",
    "LandenPair",
    "ExcessBreakdown",
    "semiaxes_to_pair",
    "hyperbola_point_from_pedal",
    "hyperbola_tangent_length",
    "hyperbola_arc",
    "ellipse_tangent_length",
    "ellipse_arc",
    "excess_finite",
    "excess_infinity_closed",
    "excess_infinity_series",
    "excess_infinity_landen",
    "landen_theorem_check",
    "fagnano_check",
    "simpson_arc",
]


class _Semiaxes(NamedTuple):
    a: float
    b: float


class _Conic(_Checked, _Semiaxes):
    """Semiaxes checked positive and finite on construction."""

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> _Conic:
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise DomainError(
                f"{cls.__name__.lower()} semiaxes must be positive and finite, got a={a!r}, b={b!r}"
            )
        return tuple.__new__(cls, (a, b))


class Hyperbola(_Conic):
    """Hyperbola x^2/a^2 - y^2/b^2 = 1 with a the transverse semiaxis."""

    __slots__ = ()

    @property
    def focal_distance(self) -> float:
        return math.hypot(self.a, self.b)

    @property
    def modulus(self) -> float:
        """Elliptic modulus a / sqrt(a^2 + b^2) of the excess integrals."""
        return self.a / self.focal_distance


class Ellipse(_Conic):
    """Ellipse x^2/a^2 + y^2/b^2 = 1."""

    __slots__ = ()

    @property
    def g(self) -> float:
        """Squared eccentricity (a^2 - b^2)/a^2 when a >= b; an a^2 that is not
        a normal double, or a g that is not finite, is a DomainError."""
        a, b = self.a, self.b
        a2 = a * a
        g = (a - b) * (a + b) / a2 if sys.float_info.min <= a2 < math.inf else math.nan
        if not abs(g) < math.inf:
            raise DomainError(f"a^2 or g is out of range, got a={a!r}, b={b!r}")
        return g

    @property
    def eccentricity(self) -> float:
        if self.a < self.b:
            raise DomainError("eccentricity defined for a >= b; swap the axes")
        return math.sqrt(self.g)


class _Coefficients(NamedTuple):
    m: float
    n: float


class LandenPair(_Checked, _Coefficients):
    """Coefficients m > n > 0 linking one hyperbola to its two ellipses."""

    __slots__ = ()

    def __new__(cls, m: float, n: float) -> LandenPair:
        if not 0.0 < n < m < math.inf:
            raise DomainError(f"LandenPair requires finite m > n > 0, got m={m!r}, n={n!r}")
        return tuple.__new__(cls, (m, n))

    @property
    def hyperbola(self) -> Hyperbola:
        return Hyperbola(self.m - self.n, 2.0 * math.sqrt(self.m * self.n))

    @property
    def ellipse_outer(self) -> Ellipse:
        return Ellipse(self.m + self.n, 2.0 * math.sqrt(self.m * self.n))

    @property
    def ellipse_inner(self) -> Ellipse:
        return Ellipse(self.m, self.n)


class ExcessBreakdown(NamedTuple):
    """The named pieces of the finite-excess decomposition."""

    hyp_arc: float
    t_hyp: float
    t: float
    eta1: float
    eta2: float


def semiaxes_to_pair(a: float, b: float) -> LandenPair:
    """Invert a = m - n, b = 2 sqrt(mn):  m = (sqrt(a^2+b^2) + a)/2, n = b^2/(4m)."""
    m = 0.5 * (Hyperbola(a, b).focal_distance + a)
    # n = (sqrt(a^2+b^2) - a)/2 in the cancellation-free form b^2/(4m)
    n = b * b / (4.0 * m)
    return LandenPair(m, n)


def _check_pedal(H: Hyperbola, p: float) -> None:
    if not 0.0 < p <= H.a:
        raise DomainError(f"pedal distance must lie in (0, a] = (0, {H.a!r}], got {p!r}")


def _branch_root(H: Hyperbola, p: float) -> float:
    """sqrt(s) = b sqrt(a^2 - p^2) / (p sqrt(a^2 + b^2)), the sinh of the
    branch parameter at pedal distance p; formed without p^2, which
    underflows long before sqrt(s) overflows.  A root that overflows, or
    that is NaN because a^2 - p^2 and p sqrt(a^2 + b^2) both do, is a
    DomainError, as is a denominator p sqrt(a^2 + b^2) that underflows to 0."""
    _check_pedal(H, p)
    a, b = H.a, H.b
    den = p * H.focal_distance
    if den == 0.0:
        raise DomainError(f"p sqrt(a^2 + b^2) underflows at a={a!r}, b={b!r}, pedal distance {p!r}")
    root = b * math.sqrt((a - p) * (a + p)) / den
    if not root < math.inf:
        raise DomainError(f"the branch point overflows at a={a!r}, b={b!r}, pedal distance {p!r}")
    return root


def hyperbola_point_from_pedal(H: Hyperbola, p: float) -> tuple[float, float]:
    """Upper-right branch point whose tangent line has foot distance p.

    The pedal equation 1/p^2 = x^2/a^4 + y^2/b^4 is monotone along the
    branch and solves in closed form: with s = b^2 (a^2 - p^2)/(p^2 (a^2+b^2)),
    the point is (a sqrt(1+s), b sqrt(s)); one that overflows is a DomainError.
    """
    root = _branch_root(H, p)
    x, y = H.a * math.hypot(1.0, root), H.b * root
    if not max(x, y) < math.inf:
        raise DomainError(f"the branch point overflows at a={H.a!r}, b={H.b!r}, pedal distance {p!r}")
    return x, y


def hyperbola_tangent_length(H: Hyperbola, p: float) -> float:
    """Tangent segment sqrt(r^2 - p^2) = sqrt((a^2-p^2)(b^2+p^2)) / p; one that
    overflows, or is NaN as 0 inf at the vertex, is a DomainError."""
    _check_pedal(H, p)
    a, b = H.a, H.b
    length = math.sqrt((a - p) * (a + p) * (b * b + p * p)) / p
    if not length < math.inf:
        raise DomainError(f"the tangent length overflows at pedal distance {p!r}")
    return length


def hyperbola_arc(H: Hyperbola, p_lo: float) -> float:
    """Arc length from the vertex to the branch point with pedal distance p_lo.

    In the rotated frame (asymptote vertical) the branch is
    y = ((a^2-b^2) x^2 + a^2 b^2)/(2abx), the vertex sits at abscissa
    x_v = ab/sqrt(a^2+b^2) and the pedal-p point at x_v e^(-u),
    u = asinh(sqrt(s)).  Under x = x_v e^(-u) the arc differential becomes
    sqrt(b^2 + (a^2+b^2) sinh^2(u)) du, the speed of (a cosh u, b sinh u),
    a sum of positive terms that grows like e^u and is smooth on [0, u].
    A speed or a sum that overflows is a DomainError.
    """
    b, c = H.b, H.focal_distance

    def speed(u: float) -> float:
        return math.hypot(b, c * math.sinh(u))

    try:  # the speed is never NaN, so the oracle's IntegrandError is an overflow
        return integrate(speed, 0.0, math.asinh(_branch_root(H, p_lo))).value
    except IntegrandError as exc:
        raise DomainError(f"the arc of {H!r} to pedal distance {p_lo!r} overflows: {exc}") from exc


def ellipse_tangent_length(E: Ellipse, x: float) -> float:
    """Pedal tangent segment of the ellipse at abscissa x.

    t = g x sqrt((a^2 - x^2)/(a^2 - g x^2)); zero at both x = 0 and x = a,
    with global maximum a - b at x^2 = a^3/(a + b).  The zero at x = a is
    returned as such where g rounds to 1 and the quotient is 0/0.
    """
    if E.a < E.b:
        raise DomainError("tangent length defined for a >= b; swap the axes")
    if not 0.0 <= x <= E.a * (1.0 + 1e-12):
        raise DomainError(f"abscissa must lie in [0, a] = [0, {E.a!r}], got {x!r}")
    g = E.g
    a2 = E.a * E.a
    num = max(a2 - x * x, 0.0)
    den = a2 - g * x * x  # g <= 1, so den is 0 only where num is
    return g * x * math.sqrt(num / den) if den else 0.0


def _abscissae(pair: LandenPair, t: float, g: float) -> tuple[float, float]:
    """Roots of 2 g x^2 = t^2 + g m^2 -/+ sqrt(((m-n)^2 - t^2)((m+n)^2 - t^2))
    for a t already checked and the inner ellipse's g; the smaller root is
    evaluated in rationalized form to stay accurate near t = 0.  A g s that
    underflows to 0, or that is not finite because the radicand overflows,
    is a DomainError."""
    m, n = pair.m, pair.n
    gm2 = g * m * m
    rad = max((m - n - t) * (m - n + t) * (m + n - t) * (m + n + t), 0.0)
    root = math.sqrt(rad)
    s = t * t + gm2 + root
    gs = g * s
    if not 0.0 < gs < math.inf:
        raise DomainError(f"g s underflows or overflows, got m={m!r}, n={n!r}, t={t!r}")
    # (t^2 + gm^2 - root)/(2g) rationalizes to 2 m^2 t^2 / (g s)
    x2_minus = 2.0 * m * m * t * t / gs
    x2_plus = 0.5 * s / g
    return math.sqrt(x2_minus), math.sqrt(min(x2_plus, m * m))


def _tangent_point(pair: LandenPair, t: float) -> tuple[float, float, float, float]:
    """The hyperbola point and the two inner-ellipse abscissae x- <= x+ whose
    tangent length is t, for t strictly inside (0, m - n): the point as its
    pedal distance p = sqrt((m-n)^2 - t^2), returned as (p, x-, x+, g) with
    g the inner ellipse's squared eccentricity, which its arcs read too."""
    m, n = pair.m, pair.n
    if not 0.0 < t < m - n:
        raise DomainError(f"t must lie in (0, m-n) = (0, {m - n!r}), got {t!r}")
    g = pair.ellipse_inner.g
    return (math.sqrt((m - n - t) * (m - n + t)), *_abscissae(pair, t, g), g)


def _angle(a: float, x: float) -> float:
    """theta with x = a sin(theta), for an abscissa x in [0, a (1 + 1e-12)]."""
    return math.asin(min(x / a, 1.0))


def ellipse_arc(E: Ellipse, x0: float, x1: float) -> float:
    """Arc of the ellipse between abscissae x0 <= x1, measured along x.

    Closed form a * (E(arcsin(x1/a), e) - E(arcsin(x0/a), e)) with e the
    eccentricity; requires a >= b.
    """
    if not 0.0 <= x0 <= x1 <= E.a * (1.0 + 1e-12):
        raise DomainError(
            f"need 0 <= x0 <= x1 <= a = {E.a!r}, got x0={x0!r}, x1={x1!r}"
        )
    ecc = E.eccentricity
    return E.a * (incomplete_E(_angle(E.a, x1), ecc) - incomplete_E(_angle(E.a, x0), ecc))


def excess_finite(H: Hyperbola, p: float) -> float:
    """Tangent segment minus arc from the vertex, at pedal distance p.

    Maclaurin's excess integral, the integral of
    q^2 / sqrt((a^2 - q^2)(b^2 + q^2)) over q from p to a, taken under
    q = a cos(phi): int_0^theta a^2 cos^2(phi) / sqrt(b^2 + a^2 cos^2(phi)),
    theta = acos(p/a).  The integrand is smooth and positive, so nothing
    cancels as p -> 0 and the tolerance applies to the excess itself.
    Strictly increasing as p decreases; tends to the closed-form limit as
    p -> 0.  Semiaxes whose a^2 + b^2 overflows raise DomainError, as does
    an a^2 below the smallest normal double, where the integrand's
    a^2 cos^2(phi) loses its bits to underflow.
    """
    _check_pedal(H, p)
    a2, b2 = H.a * H.a, H.b * H.b
    if not a2 + b2 < math.inf:
        raise DomainError(f"a^2 + b^2 overflows, got a={H.a!r}, b={H.b!r}")
    if a2 < sys.float_info.min:
        raise DomainError(f"a^2 underflows, got a={H.a!r}, b={H.b!r}")
    theta = math.atan2(math.sqrt((H.a - p) * (H.a + p)), p)

    def f(phi: float) -> float:
        cos = math.cos(phi)
        w = a2 * cos * cos
        return w / math.sqrt(b2 + w)

    return integrate(f, 0.0, theta).value


def excess_infinity_closed(H: Hyperbola) -> float:
    """Limit excess sqrt(a^2+b^2) E(k) - (b^2/sqrt(a^2+b^2)) K(k),
    k = a/sqrt(a^2+b^2).

    Gauss-Legendre turns the difference into c K (k^2/2 - tail), the tail
    summed over the AGM iterates of (1, b/c); the bracket does not cancel
    as a/b -> 0, where the difference itself would lose every digit.
    """
    c = H.focal_distance
    k, kp = H.modulus, H.b / c
    if kp == 0.0:
        raise DomainError(f"b/a underflows, got a={H.a!r}, b={H.b!r}")
    K, _, tail, _ = _agm_steps(1.0, kp)
    excess = c * K * (0.5 * k * k - tail)
    if not math.isfinite(excess):  # c K overflows, and the bracket may underflow to 0
        raise DomainError(f"c K (k^2/2 - tail) overflows, got a={H.a!r}, b={H.b!r}")
    return excess


_SERIES_COEFFS = (0.5, -3.0 / 16.0, 15.0 / 128.0)


def _finite_series(H: Hyperbola, value: float) -> float:
    """``value``, or DomainError if it is not finite."""
    if not abs(value) < math.inf:
        raise DomainError(f"the excess series overflows at a={H.a!r}, b={H.b!r}")
    return value


def excess_infinity_series(H: Hyperbola, terms: int) -> float:
    """Flat-hyperbola expansion of the limit excess.

    (pi a^2 / 2b) (1/2 - 3(a/b)^2/16 + 15(a/b)^4/128 - ...), asymptotic in
    a/b; at most three terms are available.  A prefactor, ratio (a/b)^2 or
    sum of the series that is not finite is a DomainError.
    """
    if not (isinstance(terms, int) and 1 <= terms <= 3):
        raise DomainError(f"terms must be 1, 2, or 3, got {terms!r}")
    prefactor = _finite_series(H, 0.5 * math.pi * H.a * H.a / H.b)
    try:  # x ** 2, not x * x, for the series' bits; ** raises on overflow
        ratio = (H.a / H.b) ** 2
    except OverflowError:
        ratio = math.inf
    ratio = _finite_series(H, ratio)
    total = 0.0
    power = 1.0
    for j in range(terms):
        total += _SERIES_COEFFS[j] * power
        power *= ratio
    return _finite_series(H, prefactor * total)


def excess_infinity_landen(pair: LandenPair) -> float:
    """Limit excess as quadrant combination 2 S2 - S1.

    S2 = m E(sqrt(m^2-n^2)/m) is the inner quadrant, S1 = (m+n) E((m-n)/(m+n))
    the outer one; equals excess_infinity_closed on the derived hyperbola.
    This is the paper's identity, kept as a check: the quadrants are of the
    order of m while their difference is of the order of m (a/b)^2, so it
    cancels like (a/b)^2 and loses all digits as a/b -> 1e-8.
    """
    m, n = pair.m, pair.n
    s2 = m * complete_E(math.sqrt((m - n) * (m + n)) / m)
    s1 = (m + n) * complete_E((m - n) / (m + n))
    return 2.0 * s2 - s1


def _eta1_integrand(pair: LandenPair):
    s, d = pair.m + pair.n, pair.m - pair.n

    def f(tau: float) -> float:
        return math.sqrt(((s - tau) * (s + tau)) / ((d - tau) * (d + tau)))

    return f


def landen_theorem_check(pair: LandenPair, t: float) -> tuple[ExcessBreakdown, ResidualReport]:
    """Verify Hyp = t_Hyp + 2t + eta1 - 4 eta2 with all arcs from the oracle.

    The hyperbola point is fixed by p = sqrt((m-n)^2 - t^2); eta1 is the
    outer-ellipse arc in the tangent variable, eta2 the inner-ellipse arc up
    to the smaller abscissa sharing tangent length t, in the angle form that
    fagnano_check also integrates.
    """
    p, x_minus, _, g = _tangent_point(pair, t)
    H = pair.hyperbola
    t_hyp = hyperbola_tangent_length(H, p)
    hyp_arc = hyperbola_arc(H, p)
    eta1 = integrate(_eta1_integrand(pair), 0.0, t).value
    eta2 = _inner_arc(pair.m, g, 0.0, _angle(pair.m, x_minus))
    breakdown = ExcessBreakdown(hyp_arc, t_hyp, t, eta1, eta2)
    report = tuple.__new__(
        ResidualReport,
        ("landen-theorem", {"m": pair.m, "n": pair.n, "t": t}, hyp_arc, t_hyp + 2.0 * t + eta1 - 4.0 * eta2),
    )
    return breakdown, report


def _inner_arc(m: float, g: float, theta0: float, theta1: float) -> float:
    """The oracle's arc of the inner ellipse x = m sin(theta), of squared
    eccentricity g, between angles theta0 <= theta1: ds = m sqrt(1 - g
    sin^2 theta) dtheta is smooth at the vertex, where the x form
    sqrt((m^2 - g x^2)/(m^2 - x^2)) cannot recover m - x."""

    def ds(theta: float) -> float:
        s = math.sin(theta)
        return m * math.sqrt(1.0 - g * s * s)

    return integrate(ds, theta0, theta1).value


def fagnano_check(pair: LandenPair, t: float) -> ResidualReport:
    """Equal-tangent arc pair on the inner ellipse.

    With x- < x+ the two abscissae of tangent length t, the arc from the
    co-vertex to x- equals t plus the arc from x+ to the major vertex; at
    t -> m - n the points coincide at the maximal-tangent point.  Both arcs
    come from the oracle on the angle form of the arc differential.
    """
    _, x_minus, x_plus, g = _tangent_point(pair, t)
    m = pair.m
    # the co-vertex and the major vertex sit at the angles asin(0) and asin(1)
    lhs = _inner_arc(m, g, 0.0, _angle(m, x_minus))
    rhs = t + _inner_arc(m, g, _angle(m, x_plus), 0.5 * math.pi)
    return tuple.__new__(ResidualReport, ("fagnano", {"m": pair.m, "n": pair.n, "t": t}, lhs, rhs))


def simpson_arc(H: Hyperbola, u0: float, u1: float) -> float:
    """Arc length in the reciprocal-abscissa variable u = a/x.

    ds = (a/d) sqrt(1 - d^2 u^2) / (u^2 sqrt(1 - u^2)) du with
    d^2 = a^2/(a^2+b^2); u = 1 is the vertex, u -> 0 recedes along the
    branch with a non-integrable pole (the tangent-length part), so u0 = 0
    is rejected.  In w = -ln(u) the 1/u^2 growth becomes e^w, the vertex's
    inverse-square-root end sits at w = 0, where 1 - u = -expm1(-w) stays
    accurate, and (a/d) sqrt(1 - d^2 u^2) is written as
    sqrt(b^2 + a^2 (1 - u^2)), which does not cancel when b << a.  The
    oracle then runs in t = sqrt(w), where 2 t f(t^2) is smooth up to and
    through the vertex, so every u1 takes the same form.  An integrand or a
    sum that overflows is a DomainError.
    """
    if not 0.0 < u0 <= u1 <= 1.0:
        raise DomainError(f"need 0 < u0 <= u1 <= 1, got u0={u0!r}, u1={u1!r}")
    a2, b2 = H.a * H.a, H.b * H.b

    def g(t: float) -> float:
        w = t * t
        u = math.exp(-w)
        v = -math.expm1(-w) * (1.0 + u)
        return 2.0 * t * (math.sqrt(b2 + a2 * v) / (u * math.sqrt(v)))

    try:  # g is never NaN, so the oracle's IntegrandError is an overflow
        return integrate(g, math.sqrt(-math.log(u1)), math.sqrt(-math.log(u0))).value
    except IntegrandError as exc:
        raise DomainError(f"the arc of {H!r} over u in [{u0!r}, {u1!r}] overflows: {exc}") from exc

