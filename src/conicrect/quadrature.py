"""Adaptive numerical integration with declared endpoint singularities.

This is the ground-truth oracle the rest of the package is checked against,
so it deliberately shares no code with the closed-form kernels.  The driver
is a global-adaptive bisection scored by an embedded Gauss-Kronrod 7/15
pair.  An endpoint declared singular is regularized first: the square-root
substitution x = endpoint -/+ v**2 turns a power singularity (1-x)**s into
the factor v**(2s+1), smooth for the inverse-square-root family that arc
lengths produce and integrable for any s > -1.  The substitution also keeps
nodes well away from the endpoint, which bounds the cancellation noise an
integrand incurs when it recomputes the endpoint distance from x.

Everything is deterministic: identical inputs produce identical panel
splits, identical evaluation counts, and identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Literal

from .errors import DomainError, IntegrandError

__all__ = ["Tolerance", "QuadratureResult", "integrate", "DEFAULT_TOLERANCE"]

SingularEndpoints = Literal["none", "lo", "hi", "both"]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy contract: |error| <= max(abs_tol, rel_tol * |value|).

    ``max_iter`` stops refinement: no panel is split once the integrand
    evaluation count reaches it.  A split costs 30 evaluations, so the count
    can end up to 29 past ``max_iter`` (75 at ``max_iter=60``).
    """

    abs_tol: float = 1e-13
    rel_tol: float = 1e-12
    max_iter: int = 2_000_000

    def __post_init__(self) -> None:
        if not (0.0 <= self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf):
            raise DomainError(
                f"abs_tol and rel_tol must be finite and nonnegative, "
                f"got {self.abs_tol!r} and {self.rel_tol!r}"
            )
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise DomainError("at least one of abs_tol, rel_tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be a positive count")

    def target(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (positive abscissae).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gauss_kronrod(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One 15-point Kronrod panel; returns (value, error estimate).

    The nodes are unrolled and every sum adds its terms in the same order
    as the textbook loop, centre first, so each one rounds the same way.
    A NaN value makes ``resk`` NaN, so one test per panel finds it; the
    nodes are then scanned in evaluation order to name the first.
    """
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d0, d1, d2, d3 = half * x0, half * x1, half * x2, half * x3
    d4, d5, d6 = half * x4, half * x5, half * x6
    fc = f(center)
    m0 = f(center - d0)
    p0 = f(center + d0)
    m1 = f(center - d1)
    p1 = f(center + d1)
    m2 = f(center - d2)
    p2 = f(center + d2)
    m3 = f(center - d3)
    p3 = f(center + d3)
    m4 = f(center - d4)
    p4 = f(center + d4)
    m5 = f(center - d5)
    p5 = f(center + d5)
    m6 = f(center - d6)
    p6 = f(center + d6)
    s0, s1, s2, s3 = m0 + p0, m1 + p1, m2 + p2, m3 + p3
    s4, s5, s6 = m4 + p4, m5 + p5, m6 + p6
    resk = w7 * fc + w0 * s0 + w1 * s1 + w2 * s2 + w3 * s3 + w4 * s4 + w5 * s5 + w6 * s6
    if math.isnan(resk):
        for x, y in (
            (center, fc),
            (center - d0, m0), (center + d0, p0), (center - d1, m1), (center + d1, p1),
            (center - d2, m2), (center + d2, p2), (center - d3, m3), (center + d3, p3),
            (center - d4, m4), (center + d4, p4), (center - d5, m5), (center + d5, p5),
            (center - d6, m6), (center + d6, p6),
        ):
            if math.isnan(y):
                raise IntegrandError(f"integrand returned NaN at x={x!r}")
    resg = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    # QUADPACK-style scaled error estimate.
    mean = resk * 0.5
    resasc = (
        w7 * abs(fc - mean)
        + w0 * (abs(m0 - mean) + abs(p0 - mean)) + w1 * (abs(m1 - mean) + abs(p1 - mean))
        + w2 * (abs(m2 - mean) + abs(p2 - mean)) + w3 * (abs(m3 - mean) + abs(p3 - mean))
        + w4 * (abs(m4 - mean) + abs(p4 - mean)) + w5 * (abs(m5 - mean) + abs(p5 - mean))
        + w6 * (abs(m6 - mean) + abs(p6 - mean))
    ) * abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, err


def _regularized_segments(
    f: Callable[[float], float], lo: float, hi: float, singular: str
) -> list[tuple[Callable[[float], float], float, float]]:
    """Split [lo, hi] into segments whose integrands are panel-friendly."""
    if singular == "none":
        return [(f, lo, hi)]

    # Residual kinks (powers other than -1/2) can drive subdivision until a
    # node's x rounds onto the endpoint; such nodes are nudged one ulp into
    # the interior, which costs less than the sub-ulp mass itself.
    def from_lo(edge: float, width: float) -> tuple[Callable[[float], float], float, float]:
        def g(v: float) -> float:
            x = edge + v * v
            if x == edge:
                x = math.nextafter(edge, math.inf)
            return 2.0 * v * f(x)

        return g, 0.0, math.sqrt(width)

    def from_hi(edge: float, width: float) -> tuple[Callable[[float], float], float, float]:
        def g(v: float) -> float:
            x = edge - v * v
            if x == edge:
                x = math.nextafter(edge, -math.inf)
            return 2.0 * v * f(x)

        return g, 0.0, math.sqrt(width)

    if singular == "lo":
        return [from_lo(lo, hi - lo)]
    if singular == "hi":
        return [from_hi(hi, hi - lo)]
    mid = 0.5 * (lo + hi)
    return [from_lo(lo, mid - lo), from_hi(hi, hi - mid)]


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    singular_endpoints: SingularEndpoints = "none",
) -> QuadratureResult:
    """Integrate ``f`` over [lo, hi].

    Args:
        f: integrand, finite on the open interval.
        lo, hi: limits; a reversed interval negates the result.
        tol: accuracy contract; no panel is split once the evaluation
            count reaches ``max_iter``, which the count can pass by up to 29.
        singular_endpoints: which endpoints carry an integrable power
            singularity.  Declared endpoints are never sampled.

    Returns:
        QuadratureResult; ``converged`` is unset when the evaluation budget
        ran out, in which case the best estimate is still returned.

    Raises:
        DomainError: on an invalid singularity declaration or tolerance.
        IntegrandError: if the integrand returns NaN.
    """
    if singular_endpoints not in ("none", "lo", "hi", "both"):
        raise DomainError(
            f"singular_endpoints must be one of none|lo|hi|both, got {singular_endpoints!r}"
        )
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0, True)
    if lo > hi:
        flipped = {"lo": "hi", "hi": "lo"}.get(singular_endpoints, singular_endpoints)
        r = integrate(f, hi, lo, tol, flipped)  # type: ignore[arg-type]
        return QuadratureResult(-r.value, r.error_estimate, r.evaluations, r.converged)

    abs_tol, rel_tol, max_iter = tol.abs_tol, tol.rel_tol, tol.max_iter
    heappush, heappop, ulp = heapq.heappush, heapq.heappop, math.ulp
    heap: list[tuple[float, float, float, int, float, float, Callable[[float], float]]] = []
    evaluations = 0
    tie = 0
    frozen_value = 0.0
    frozen_err = 0.0
    total_value = 0.0
    total_err = 0.0

    for g, a, b in _regularized_segments(f, lo, hi, singular_endpoints):
        v, e = _gauss_kronrod(g, a, b)
        evaluations += 15
        heappush(heap, (-e, a, b, tie, v, e, g))
        tie += 1
        total_value += v
        total_err += e

    while heap:
        # Tolerance.target, inline
        if total_err + frozen_err <= max(abs_tol, rel_tol * abs(total_value + frozen_value)):
            break
        if evaluations >= max_iter:
            break
        _, a, b, _, v, e, g = heappop(heap)
        if b - a <= 16.0 * ulp(max(abs(a), abs(b), 1.0)):
            # cannot be split further at this precision
            frozen_value += v
            frozen_err += e
            total_value -= v
            total_err -= e
            continue
        mid = 0.5 * (a + b)
        v1, e1 = _gauss_kronrod(g, a, mid)
        v2, e2 = _gauss_kronrod(g, mid, b)
        evaluations += 30
        total_value += v1 + v2 - v
        total_err += e1 + e2 - e
        heappush(heap, (-e1, a, mid, tie, v1, e1, g))
        heappush(heap, (-e2, mid, b, tie + 1, v2, e2, g))
        tie += 2

    value = total_value + frozen_value
    err = total_err + frozen_err
    return QuadratureResult(value, err, evaluations, err <= tol.target(value))
