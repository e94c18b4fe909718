"""Modulus/amplitude maps, the AGM change of variable, and residual checks.

The ascending map k -> 2 sqrt(k)/(1+k) links one AGM step to a quadratic
modulus transformation of the first-kind integral; the substitution
y = y1 sqrt((1-p1^2 y1^2)/(1-q1^2 y1^2)) realizes the same step directly on
the defining differential.  The ``check_*`` functions evaluate both sides of
each identity independently and report the residual, so a regression is
diagnosable from the report alone.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .agm import _check_amplitude, _check_modulus, _legendre, _second_kind, complete_E, incomplete_F
from .errors import DomainError
from .quadrature import integrate

__all__ = [
    "LagrangeParams",
    "ResidualReport",
    "modulus_ascend",
    "amplitude_inverse",
    "lagrange_substitution",
    "upper_limit",
    "check_gleichung",
    "check_borwein",
    "check_agm_invariance",
]


class _Checked:
    """Base of a record whose ``__new__`` checks its fields: ``_make``, and
    with it ``_replace``, builds through that constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Step(NamedTuple):
    p: float
    q: float


class LagrangeParams(_Checked, _Step):
    """One AGM step (p, q) -> (p1, q1) = ((p+q)/2, sqrt(pq)).

    Requires 0 < q <= p < inf with finite means (p + q and p q must not
    overflow) and p q no smaller than the smallest normal double.  The
    fields are p and q; the means p1 and q1 are formed from them on access.
    """

    __slots__ = ()

    def __new__(cls, p: float, q: float) -> LagrangeParams:
        if not 0.0 < q <= p < math.inf:
            raise DomainError(f"LagrangeParams requires 0 < q <= p < inf, got p={p!r}, q={q!r}")
        self = tuple.__new__(cls, (p, q))
        if not (self.p1 < math.inf and self.q1 < math.inf):
            raise DomainError(f"LagrangeParams means overflow, got p={p!r}, q={q!r}")
        if p * q < sys.float_info.min:
            raise DomainError(f"LagrangeParams product p q underflows, got p={p!r}, q={q!r}")
        return self

    @property
    def p1(self) -> float:
        return 0.5 * (self.p + self.q)

    @property
    def q1(self) -> float:
        return math.sqrt(self.p * self.q)


class ResidualReport(NamedTuple):
    """Both sides of an identity; ``residual`` is their absolute difference."""

    name: str
    inputs: dict[str, float]
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    def within(self, tolerance: float) -> bool:
        if not 0.0 <= tolerance < math.inf:
            raise DomainError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
        return self.residual <= tolerance


def modulus_ascend(k: float) -> float:
    """Ascending map k -> 2 sqrt(k)/(1+k); fixed points at 0 and 1."""
    _check_modulus(k, allow_one=True)
    return 2.0 * math.sqrt(k) / (1.0 + k)


def amplitude_inverse(phi: float, k: float) -> float:
    """The phi_hat in [phi/2, (phi + pi/2)/2] with
    phi_hat + arctan(((1 - k)/(1 + k)) tan(phi_hat)) = phi, the amplitude
    step of the AGM (1 + k, 1 - k) on its continuous branch.

    Closed form: sin(2 phi_hat - phi) = k sin(phi) gives
    phi_hat = (phi + arcsin(k sin(phi)))/2.  The arcsine of y = k sin(phi) is
    taken as atan2(y, sqrt((1 - y)(1 + y))) with
    1 - y = (1 - k) + 2 k sin^2((pi/2 - phi)/2), which does not cancel as
    y -> 1; the complete case phi = pi/2 gives pi/4 + arcsin(k)/2.
    """
    _check_amplitude(phi)
    _check_modulus(k)
    y = k * math.sin(phi)
    half_gap = math.sin(0.5 * (0.5 * math.pi - phi))
    one_minus_y = (1.0 - k) + 2.0 * k * half_gap * half_gap
    return 0.5 * (phi + math.atan2(y, math.sqrt(one_minus_y * (1.0 + y))))


def lagrange_substitution(y1: float, params: LagrangeParams) -> float:
    """The change of variable y = y1 sqrt((1 - p1^2 y1^2)/(1 - q1^2 y1^2)).

    Defined for |y1| < 1/p1; its maximum over [0, 1/p1) is 1/p, attained at
    y1 = sqrt(2/(p (p+q))).
    """
    p1, q1 = params.p1, params.q1
    if not abs(y1) * p1 < 1.0:
        raise DomainError(f"|y1| must be below 1/p1 = {1.0 / p1!r}, got {y1!r}")
    num = (1.0 - p1 * y1) * (1.0 + p1 * y1)
    den = (1.0 - q1 * y1) * (1.0 + q1 * y1)
    return y1 * math.sqrt(num / den)


def upper_limit(x: float, params: LagrangeParams) -> float:
    """Image of the upper integration limit under one AGM step.

    s(x, p, q) = (sqrt(2)/(p+q)) sqrt(1 + p q x^2 - sqrt((1-p^2 x^2)(1-q^2 x^2))),
    evaluated in the rationalized form x sqrt(2) / sqrt(1 + p q x^2 + R) which
    is algebraically identical and stable for small x.
    """
    p, q = params.p, params.q
    if not (0.0 <= x and x * p <= 1.0 + 1e-12):
        raise DomainError(f"x must lie in [0, 1/p] = [0, {1.0 / p!r}], got {x!r}")
    a = max((1.0 - p * x) * (1.0 + p * x), 0.0)
    b = max((1.0 - q * x) * (1.0 + q * x), 0.0)
    r = math.sqrt(a * b)
    return x * math.sqrt(2.0) / math.sqrt(1.0 + p * q * x * x + r)


def check_gleichung(phi: float, k: float) -> ResidualReport:
    """Residual of F(phi, k) = 2/(1+k) F(phi_hat, k_hat) across one AGM step.

    The right side takes the ascended modulus by its exact complement
    k_hat' = (1 - k)/(1 + k), so it stays defined where k_hat = 2 sqrt(k)/(1+k)
    rounds to 1.  As k -> 1 and phi -> pi/2 the right side is ill-conditioned
    in phi_hat: dF/dphi_hat = 1/sqrt(1 - k_hat^2 sin^2(phi_hat)) reaches
    ~1.4e6 at (pi/2, 1 - 1e-12), so half an ulp of phi_hat ~ pi/2 - 7e-7
    leaves a residual of ~1.6e-10 there, though each side is accurate.
    """
    lhs = incomplete_F(phi, k)
    phi_hat = amplitude_inverse(phi, k)
    rhs = 2.0 / (1.0 + k) * _legendre((1.0 - k) / (1.0 + k), phi_hat)[0]
    return ResidualReport("gleichung", {"phi": phi, "k": k}, lhs, rhs)


def check_borwein(k: float) -> ResidualReport:
    """Residual of E(k) = (1+k)/2 E(2 sqrt(k)/(1+k)) + (1-k^2)/2 K(k), with
    E(k) and K(k) from one walk."""
    _check_modulus(k)
    lhs, K = _second_kind(k)
    k_hat = modulus_ascend(k)
    rhs = 0.5 * (1.0 + k) * complete_E(k_hat) + 0.5 * (1.0 - k * k) * K
    return ResidualReport("borwein", {"k": k}, lhs, rhs)


def _sine_form_integrand(p: float, q: float):
    # dy / sqrt((1-p^2 y^2)(1-q^2 y^2)) under y = sin(theta)/p, where the
    # root sqrt(1-p^2 y^2) = cos(theta) cancels against dy/dtheta
    ratio2 = (q / p) ** 2

    def f(theta: float) -> float:
        s = math.sin(theta)
        return 1.0 / (p * math.sqrt(1.0 - ratio2 * s * s))

    return f


def check_agm_invariance(x: float, p: float, q: float) -> ResidualReport:
    """Residual of the integral invariance across one AGM step.

    Both sides of
    int_0^x dy / sqrt((1-p^2 y^2)(1-q^2 y^2))
      = int_0^{s(x,p,q)} dy1 / sqrt((1-p1^2 y1^2)(1-q1^2 y1^2))
    are evaluated by the quadrature oracle, the left under y = sin(theta)/p
    and the right under y1 = sin(theta)/p1, where neither has a singular
    endpoint.  At x = 1/p both sides are infinitely sensitive to x, so an x
    with x p >= 1 - 1e-12 is taken as exactly 1/p: the left side runs to
    theta = pi/2 and the image is s = 1/sqrt(p p1).
    """
    if not 0.0 < q < p:
        raise DomainError(f"requires 0 < q < p, got p={p!r}, q={q!r}")
    if not (0.0 <= x and x * p <= 1.0 + 1e-12):
        raise DomainError(f"x must lie in [0, 1/p], got {x!r}")
    params = LagrangeParams(p, q)
    if x * p >= 1.0 - 1e-12:
        theta, s = 0.5 * math.pi, 1.0 / (math.sqrt(p) * math.sqrt(params.p1))
    else:
        theta, s = math.asin(x * p), upper_limit(x, params)
    lhs = integrate(_sine_form_integrand(p, q), 0.0, theta)
    theta1 = math.asin(min(params.p1 * s, 1.0))
    rhs = integrate(_sine_form_integrand(params.p1, params.q1), 0.0, theta1)
    return ResidualReport(
        "agm-invariance", {"x": x, "p": p, "q": q}, lhs.value, rhs.value
    )
