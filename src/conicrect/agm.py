"""Arithmetic-geometric mean and elliptic integral kernels.

All four integrals come from one walk over the AGM of (1, k'), Legendre's
AGM with amplitudes (Abramowitz & Stegun 17.6): the amplitude doubles at
each step, less the turn tan(phi_(n+1) - phi_n) = (b_n/a_n) tan(phi_n)
takes back, and F = lim phi_n / (2^n a_n), which is K = pi / (2 M(1, k'))
in the complete case.  E follows from the same iterates by the
Gauss-Legendre sum.  No kernel calls the quadrature oracle, so every
cross-check against it compares two independent routes.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

__all__ = [
    "AgmSequence",
    "LemniscateArcs",
    "agm",
    "complement",
    "complete_K",
    "complete_E",
    "incomplete_F",
    "incomplete_E",
    "series_KE",
    "lemniscate",
]

_STOP_ABS = _STOP_REL = 1e-15  # the AGM stops at p_n - q_n <= max(_STOP_ABS, _STOP_REL p_n)
_MAX_STEPS = 60
_MAX_WEIGHT = 2.0 ** _MAX_STEPS  # the walk's weight 2^n at pair n = _MAX_STEPS

_SERIES_TERM_CAP = 200
_HALF_PI = 0.5 * math.pi


class AgmSequence(NamedTuple):
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


class LemniscateArcs(NamedTuple):
    quarter_arc: float
    full_arc: float
    gauss_constant: float


def _check_modulus(k: float, *, allow_one: bool = False) -> None:
    if not 0.0 <= k:
        raise DomainError(f"modulus k must satisfy k >= 0, got {k!r}")
    if allow_one:
        if k > 1.0:
            raise DomainError(f"modulus k must satisfy k <= 1, got {k!r}")
    elif k >= 1.0:
        raise DomainError(f"modulus k must satisfy k < 1, got {k!r}")


def _check_amplitude(phi: float) -> None:
    if not 0.0 <= phi <= _HALF_PI:
        raise DomainError(f"amplitude phi must lie in [0, pi/2], got {phi!r}")


def complement(k: float) -> float:
    """Complementary modulus k' = sqrt(1 - k^2), computed without cancellation."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def _agm_steps(
    p: float, q: float, phi: float | None = None, record: list[tuple[float, float]] | None = None
) -> tuple[float, float, float, float]:
    """(F, limit, tail, sines) of the AGM from (p, q), p >= q > 0, with
    Legendre's amplitudes from phi, in one loop.

    Each step takes the pair (p_n, q_n) to its means and, for a phi, the
    amplitude phi_n to phi_(n+1) = phi_n + arctan((q_n/p_n) tan(phi_n)) on
    the continuous branch, taken as 2 phi - d with tan(d) =
    (p - q) sin(phi) cos(phi) / (p cos^2(phi) + q sin^2(phi)): the
    denominator is a sum of positive terms, so d needs no branch and nothing
    cancels as q/p -> 0 at phi -> pi/2.  Each amplitude's sine serves both
    its sum term and the next step.  Over the pairs n = 0 .. N, the last
    included, with c_(n+1) = (p_n - q_n)/2:

    - F = int_0^phi dt / sqrt(p^2 cos^2 t + q^2 sin^2 t) = phi_(N+1) / (2^(N+1) M),
      or its value pi / (2M) at phi = pi/2 for phi None: F(phi, k) and K(k)
      for (p, q) = (1, k');
    - limit = M = (p_N + q_N)/2 = M(p, q);
    - tail = sum_(n>=1) 2^(n-1) c_n^2, Gauss's sum;
    - sines = sum_(n>=1) c_n sin(phi_n), 0 for phi None.

    ``record``, when given, receives every pair.  The walk stops after the
    pair with p_n - q_n <= max(_STOP_ABS, _STOP_REL * p_n), or with a
    difference that stopped shrinking; it raises after _MAX_STEPS steps.
    """
    weight = 0.5  # 2^n at pair n
    tail = sines = 0.0
    prev_diff = math.inf
    if phi is not None:
        s = math.sin(phi)
    while True:
        if record is not None:
            record.append((p, q))
        diff = p - q
        c = 0.5 * diff
        weight *= 2.0
        tail += weight * c * c
        if phi is not None:
            cos = math.cos(phi)
            phi = 2.0 * phi - math.atan2(diff * s * cos, p * cos * cos + q * s * s)
            s = math.sin(phi)
            sines += c * s
        if diff <= _STOP_ABS or diff <= _STOP_REL * p or diff >= prev_diff:
            limit = 0.5 * (p + q)
            F = _HALF_PI / limit if phi is None else phi / (2.0 * weight * limit)
            return F, limit, tail, sines
        if weight >= _MAX_WEIGHT:
            raise ConvergenceError(f"agm failed to converge within {_MAX_STEPS} iterations")
        prev_diff = diff
        p, q = 0.5 * (p + q), math.sqrt(p * q)
        if q > p:  # sub-ulp rounding at convergence can invert the means
            q = p


def agm(p0: float, q0: float) -> AgmSequence:
    """Arithmetic-geometric mean iteration with full history.

    Inputs must be positive and finite, with q0/p0 in the normal range; if
    p0 < q0 they are swapped and the swap is recorded.  The walk runs on the
    inputs scaled by the power of two that takes p0 into [0.5, 1), so it
    neither overflows nor underflows, and its iterates and limit are scaled
    back exactly.  It stops at p_n - q_n <= max(1e-15, 1e-15 p_n) on the
    scaled iterates, at full double precision.
    """
    if not (0.0 < p0 < math.inf and 0.0 < q0 < math.inf):
        raise DomainError(f"agm requires positive finite inputs, got p0={p0!r}, q0={q0!r}")
    swapped = p0 < q0
    if swapped:
        p0, q0 = q0, p0
    e = math.frexp(p0)[1]
    p, q = math.ldexp(p0, -e), math.ldexp(q0, -e)
    if q < sys.float_info.min:
        raise DomainError(f"agm requires q0/p0 in the normal range, got p0={p0!r}, q0={q0!r}")
    scaled = []
    limit = _agm_steps(p, q, None, scaled)[1]
    iterates = tuple([(math.ldexp(pn, e), math.ldexp(qn, e)) for pn, qn in scaled])
    return tuple.__new__(AgmSequence, (p0, q0, iterates, math.ldexp(limit, e), len(scaled) - 1, swapped))


def _second_kind(k: float, phi: float | None = None) -> tuple[float, float]:
    """(E(phi, k), F(phi, k)), or (E(k), K(k)) for phi None, from one walk
    of ``_agm_steps`` over the AGM of (1, k'): E = F (1 - k^2/2 - tail) + sines."""
    F, _, tail, sines = _agm_steps(1.0, complement(k), phi)
    return F * (1.0 - (0.5 * k * k + tail)) + sines, F


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 M(1, k')).

    Diverges at k = 1, which is rejected.
    """
    if not 0.0 <= k < 1.0:
        _check_modulus(k)
    return _agm_steps(1.0, complement(k))[0]


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind.

    Gauss-Legendre: E = K (1 - sum_n 2^(n-1) c_n^2) over the AGM iterates
    (a_n, b_n) of (1, k'), with c_0 = k and c_(n+1) = (a_n - b_n)/2.
    """
    if not 0.0 <= k < 1.0:
        _check_modulus(k, allow_one=True)
        return 1.0  # the one k that passes is 1
    return _second_kind(k)[0]


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, k), 0 <= k < 1."""
    if not (0.0 <= phi <= _HALF_PI and 0.0 <= k < 1.0):
        _check_amplitude(phi)
        _check_modulus(k)
    return _agm_steps(1.0, complement(k), phi)[0]


def incomplete_E(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi, k), 0 <= k <= 1.

    E = F (1 - sum_n 2^(n-1) c_n^2) + sum_(n>=1) c_n sin(phi_n) over the
    AGM with amplitudes of ``incomplete_F``; at k = 1 the integral is
    sin(phi) in closed form.
    """
    if not (0.0 <= phi <= _HALF_PI and 0.0 <= k < 1.0):
        _check_amplitude(phi)
        _check_modulus(k, allow_one=True)
        return math.sin(phi)  # k = 1
    return _second_kind(k, phi)[0]


def series_KE(kind: str, k: float, terms: int) -> float:
    """Truncated hypergeometric series for K or E.

    K: (pi/2) * sum c_n k^(2n),  E: (pi/2) * sum c_n k^(2n) / (1 - 2n), with
    c_n = [(2n)! / (2^(2n) (n!)^2)]^2, for n = 0 .. terms - 1.  ``terms`` is
    capped at 200.
    """
    if kind not in ("K", "E"):
        raise DomainError(f"kind must be 'K' or 'E', got {kind!r}")
    if not (isinstance(terms, int) and terms >= 1):
        raise DomainError(f"terms must be an integer of at least 1, got {terms!r}")
    _check_modulus(k)
    m = k * k
    coeff = total = 1.0
    for n in range(1, min(terms, _SERIES_TERM_CAP)):
        ratio = (2.0 * n - 1.0) / (2.0 * n)
        coeff *= ratio * ratio * m
        total += coeff if kind == "K" else coeff / (1.0 - 2.0 * n)
    return 0.5 * math.pi * total


_LEMNISCATE_M = _agm_steps(math.sqrt(2.0), 1.0)[1]  # M(1, sqrt(2)), walked once at import


def lemniscate(radius: float) -> LemniscateArcs:
    """Arc lengths of the lemniscate (x^2+y^2)^2 = R^2 (x^2-y^2).

    quarter_arc = (R/sqrt(2)) K(1/sqrt(2)) = pi R / (2 M(1, sqrt(2)));
    full_arc = 4 quarter_arc; gauss_constant = 1/M(1, sqrt(2)), so one AGM
    run, taken once at import, gives all three.  The quarter arc is formed
    first, so it stays finite for every radius whose full arc does; a full
    arc that overflows raises DomainError.
    """
    if not 0.0 < radius < math.inf:
        raise DomainError(f"radius must be positive and finite, got {radius!r}")
    quarter_arc = _HALF_PI * radius / _LEMNISCATE_M
    full_arc = 4.0 * quarter_arc
    if full_arc == math.inf:
        raise DomainError(f"the full arc overflows at radius {radius!r}")
    return tuple.__new__(LemniscateArcs, (quarter_arc, full_arc, 1.0 / _LEMNISCATE_M))
