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

    ``max_iter`` bounds integrand evaluations.
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


class _Counter:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


def _checked(f: Callable[[float], float], x: float, counter: _Counter) -> float:
    counter.n += 1
    y = f(x)
    if math.isnan(y):
        raise IntegrandError(f"integrand returned NaN at x={x!r}")
    return y


def _gauss_kronrod(
    f: Callable[[float], float], a: float, b: float, counter: _Counter
) -> tuple[float, float]:
    """One 15-point Kronrod panel; returns (value, error estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = _checked(f, center, counter)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    pairs = []
    for i in range(7):
        dx = half * _XGK[i]
        f1 = _checked(f, center - dx, counter)
        f2 = _checked(f, center + dx, counter)
        pairs.append((f1, f2))
        resk += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    value = resk * half
    # QUADPACK-style scaled error estimate.
    mean = resk * 0.5
    resasc = _WGK[7] * abs(fc - mean)
    for i in range(7):
        f1, f2 = pairs[i]
        resasc += _WGK[i] * (abs(f1 - mean) + abs(f2 - mean))
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return value, err


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
        tol: accuracy contract; ``max_iter`` caps integrand evaluations.
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

    counter = _Counter()
    heap: list[tuple[float, float, float, int, float, float, Callable[[float], float]]] = []
    tie = 0
    frozen_value = 0.0
    frozen_err = 0.0
    total_value = 0.0
    total_err = 0.0

    for g, a, b in _regularized_segments(f, lo, hi, singular_endpoints):
        v, e = _gauss_kronrod(g, a, b, counter)
        heapq.heappush(heap, (-e, a, b, tie, v, e, g))
        tie += 1
        total_value += v
        total_err += e

    while heap:
        if total_err + frozen_err <= tol.target(total_value + frozen_value):
            break
        if counter.n >= tol.max_iter:
            break
        _, a, b, _, v, e, g = heapq.heappop(heap)
        width = b - a
        if width <= 16.0 * math.ulp(max(abs(a), abs(b), 1.0)):
            # cannot be split further at this precision
            frozen_value += v
            frozen_err += e
            total_value -= v
            total_err -= e
            continue
        mid = 0.5 * (a + b)
        v1, e1 = _gauss_kronrod(g, a, mid, counter)
        v2, e2 = _gauss_kronrod(g, mid, b, counter)
        total_value += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, mid, tie, v1, e1, g))
        heapq.heappush(heap, (-e2, mid, b, tie + 1, v2, e2, g))
        tie += 2

    value = total_value + frozen_value
    err = total_err + frozen_err
    return QuadratureResult(value, err, counter.n, err <= tol.target(value))
