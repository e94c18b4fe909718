"""Arithmetic-geometric mean and elliptic integral kernels.

The complete integrals come from the AGM of (1, k'): K = pi / (2 M(1, k'))
and E by the Gauss-Legendre sum over the same iterates.  The incomplete
integrals of both kinds share one descending modulus recursion with the
matching amplitude updates, which is the AGM with amplitudes written on the
modulus (Abramowitz & Stegun 17.6).  No kernel calls the quadrature oracle,
so every cross-check against it compares two independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .quadrature import Tolerance

__all__ = [
    "AgmSequence",
    "LemniscateArcs",
    "DEFAULT_AGM_TOLERANCE",
    "agm",
    "complete_K",
    "complete_E",
    "incomplete_F",
    "incomplete_E",
    "series_KE",
    "series_truncation_bound",
    "lemniscate",
]

DEFAULT_AGM_TOLERANCE = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_iter=60)

_F_MODULUS_FLOOR = 1e-10  # stop the descending recursion below this modulus
_SERIES_TERM_CAP = 200


@dataclass(frozen=True)
class AgmSequence:
    """Full AGM iteration record.

    ``iterates`` holds every (p_n, q_n) pair starting with the (possibly
    swapped) inputs; ``limit`` is the common limit M(p0, q0).
    """

    p0: float
    q0: float
    iterates: tuple[tuple[float, float], ...]
    limit: float
    iterations: int
    swapped: bool


@dataclass(frozen=True)
class LemniscateArcs:
    quarter_arc: float
    full_arc: float
    gauss_constant: float


def _check_modulus(k: float, *, allow_one: bool = False, name: str = "k") -> None:
    if not 0.0 <= k:
        raise DomainError(f"modulus {name} must satisfy {name} >= 0, got {k!r}")
    if allow_one:
        if k > 1.0:
            raise DomainError(f"modulus {name} must satisfy {name} <= 1, got {k!r}")
    elif k >= 1.0:
        raise DomainError(f"modulus {name} must satisfy {name} < 1, got {k!r}")


def _check_amplitude(phi: float) -> None:
    if not 0.0 <= phi <= 0.5 * math.pi:
        raise DomainError(f"amplitude phi must lie in [0, pi/2], got {phi!r}")


def complement(k: float) -> float:
    """Complementary modulus k' = sqrt(1 - k^2), computed without cancellation."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def _descend_modulus(k: float) -> float:
    # (1 - k')/(1 + k') in the cancellation-free form (k/(1 + k'))^2
    kp = complement(k)
    r = k / (1.0 + kp)
    return r * r


def _amplitude_step(phi: float, k: float) -> float:
    """New amplitude after one descending modulus step.

    Solves tan(new) = sin(2*phi) / (k + cos(2*phi)) on the branch that keeps
    the map continuous and increasing; the true value stays within pi/2 of
    2*phi, which picks a unique solution of the tangent equation.
    """
    two_phi = 2.0 * phi
    psi = math.atan2(math.sin(two_phi), k + math.cos(two_phi))
    branch = round((two_phi - psi) / math.pi)
    return psi + branch * math.pi


def agm(p0: float, q0: float, tol: Tolerance = DEFAULT_AGM_TOLERANCE) -> AgmSequence:
    """Arithmetic-geometric mean iteration with full history.

    Inputs must be positive and finite; if p0 < q0 they are swapped and the
    swap is recorded.  Terminates when |p_n - q_n| <= max(abs_tol, rel_tol * p_n).
    """
    if not (0.0 < p0 < math.inf and 0.0 < q0 < math.inf):
        raise DomainError(f"agm requires positive finite inputs, got p0={p0!r}, q0={q0!r}")
    swapped = p0 < q0
    if swapped:
        p0, q0 = q0, p0
    p, q = p0, q0
    iterates = [(p, q)]
    prev_diff = math.inf
    while True:
        diff = p - q
        if diff <= tol.target(p) or diff >= prev_diff:
            break
        if len(iterates) - 1 >= tol.max_iter:
            raise ConvergenceError(
                f"agm failed to converge within {tol.max_iter} iterations"
            )
        prev_diff = diff
        p, q = 0.5 * (p + q), math.sqrt(p * q)
        if q > p:  # sub-ulp rounding at convergence can invert the means
            q = p
        iterates.append((p, q))
    return AgmSequence(
        p0=p0,
        q0=q0,
        iterates=tuple(iterates),
        limit=0.5 * (p + q),
        iterations=len(iterates) - 1,
        swapped=swapped,
    )


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 M(1, k')).

    Diverges at k = 1, which is rejected.
    """
    _check_modulus(k)
    if k == 0.0:
        return 0.5 * math.pi
    return 0.5 * math.pi / agm(1.0, complement(k)).limit


def _gauss_legendre(kp: float) -> tuple[float, float]:
    """K and the tail sum_(n>=1) 2^(n-1) c_n^2 over the AGM iterates
    (a_n, b_n) of (1, k'), with c_(n+1) = (a_n - b_n)/2.

    Gauss-Legendre: E = K (1 - k^2/2 - tail), the n = 0 term being k^2/2.
    """
    seq = agm(1.0, kp)
    weight = 0.5
    tail = 0.0
    for a, b in seq.iterates[:-1]:
        c = 0.5 * (a - b)
        weight *= 2.0
        tail += weight * c * c
    return 0.5 * math.pi / seq.limit, tail


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind.

    Gauss-Legendre: E = K (1 - sum_n 2^(n-1) c_n^2) over the AGM iterates
    (a_n, b_n) of (1, k'), with c_0 = k and c_(n+1) = (a_n - b_n)/2.
    """
    _check_modulus(k, allow_one=True)
    if k == 0.0:
        return 0.5 * math.pi
    if k == 1.0:
        return 1.0
    K, tail = _gauss_legendre(complement(k))
    return K * (1.0 - (0.5 * k * k + tail))


def _descend(phi: float, k: float) -> tuple[float, float]:
    """F(phi, k) and E(phi, k) by one descending modulus recursion.

    F(phi, k) = (1 + k1)/2 * F(phi1, k1) with k1 = (1 - k')/(1 + k') and phi1
    the matching amplitude, iterated until the modulus drops below 1e-10
    where F(phi, k) ~ phi * (1 + k^2/4).  On the AGM scale a_0 = 1 the same
    steps give a_(n+1) = a_n (1 + k'_n)/2 and c_n = k_n a_n, and
    E = F (1 - sum_n 2^(n-1) c_n^2) + sum_n c_n sin(phi_n).
    """
    factor = 1.0
    cur_phi = phi
    cur_k = k
    a = 1.0
    weight = 0.5
    squares = weight * k * k
    sines = 0.0
    steps = 0
    while cur_k > _F_MODULUS_FLOOR:
        a *= 0.5 * (1.0 + complement(cur_k))
        cur_k = _descend_modulus(cur_k)
        cur_phi = _amplitude_step(cur_phi, cur_k)
        factor *= 0.5 * (1.0 + cur_k)
        c = cur_k * a
        weight *= 2.0
        squares += weight * c * c
        sines += c * math.sin(cur_phi)
        steps += 1
        if steps > 60:
            raise ConvergenceError("modulus descent failed to reach the floor")
    f_val = factor * cur_phi * (1.0 + 0.25 * cur_k * cur_k)
    return f_val, f_val * (1.0 - squares) + sines


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, k), 0 <= k < 1."""
    _check_amplitude(phi)
    _check_modulus(k)
    return _descend(phi, k)[0]


def incomplete_E(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi, k), 0 <= k <= 1.

    Shares the descending recursion of ``incomplete_F``; at k = 1 the
    integral is sin(phi) in closed form.
    """
    _check_amplitude(phi)
    _check_modulus(k, allow_one=True)
    if k == 1.0:
        return math.sin(phi)
    return _descend(phi, k)[1]


def series_KE(kind: str, k: float, terms: int) -> float:
    """Truncated hypergeometric series for K or E.

    K: (pi/2) * sum c_n k^(2n),  E: (pi/2) * sum c_n k^(2n) / (1 - 2n), with
    c_n = [(2n)! / (2^(2n) (n!)^2)]^2.  ``terms`` is capped at 200.
    """
    if kind not in ("K", "E"):
        raise DomainError(f"kind must be 'K' or 'E', got {kind!r}")
    if terms < 1:
        raise DomainError(f"terms must be at least 1, got {terms!r}")
    _check_modulus(k)
    terms = min(terms, _SERIES_TERM_CAP)
    m = k * k
    coeff = 1.0
    total = 1.0
    for n in range(1, terms):
        ratio = (2.0 * n - 1.0) / (2.0 * n)
        coeff *= ratio * ratio * m
        total += coeff if kind == "K" else coeff / (1.0 - 2.0 * n)
    return 0.5 * math.pi * total


def series_truncation_bound(kind: str, k: float, terms: int) -> float:
    """Bound on the truncation error: |first omitted term| / (1 - k^2)."""
    if kind not in ("K", "E"):
        raise DomainError(f"kind must be 'K' or 'E', got {kind!r}")
    _check_modulus(k)
    terms = min(terms, _SERIES_TERM_CAP)
    m = k * k
    coeff = 1.0
    for n in range(1, terms + 1):
        ratio = (2.0 * n - 1.0) / (2.0 * n)
        coeff *= ratio * ratio * m
    first_omitted = coeff if kind == "K" else coeff / (2.0 * terms - 1.0)
    return 0.5 * math.pi * first_omitted / (1.0 - m)


def lemniscate(radius: float) -> LemniscateArcs:
    """Arc lengths of the lemniscate (x^2+y^2)^2 = R^2 (x^2-y^2).

    full_arc = 2 pi R / M(1, sqrt(2)); gauss_constant = 1/M(1, sqrt(2));
    quarter_arc = (R/sqrt(2)) K(1/sqrt(2)), which is exactly full_arc/4, so
    one AGM run gives all three.
    """
    if not 0.0 < radius < math.inf:
        raise DomainError(f"radius must be positive and finite, got {radius!r}")
    limit = agm(1.0, math.sqrt(2.0)).limit
    full_arc = 2.0 * math.pi * radius / limit
    return LemniscateArcs(
        quarter_arc=0.25 * full_arc,
        full_arc=full_arc,
        gauss_constant=1.0 / limit,
    )
