"""Adaptive numerical integration: the package's ground-truth oracle.

This is the oracle the rest of the package is checked against, so it
deliberately shares no code with the closed-form kernels.  The driver is a
global-adaptive bisection scored by an embedded Gauss-Kronrod 7/15 pair,
under one fixed accuracy contract.  It takes no options: an integrand with
an endpoint singularity is the caller's to regularize, for instance by the
square-root substitution x = edge -/+ v**2, which turns (1-x)**s into the
factor v**(2s+1) (smooth for the inverse-square-root family that arc
lengths produce) and keeps every node away from the edge.

Everything is deterministic: identical inputs produce identical panel
splits, identical evaluation counts, and identical results.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from .errors import DomainError, IntegrandError

__all__ = ["QuadratureResult", "integrate"]

# Accuracy contract: |error| <= max(_ABS_TOL, _REL_TOL * |value|).  No panel
# is split once the evaluation count reaches _MAX_EVALUATIONS; a split costs
# 30 evaluations, so the count can end up to 29 past it.
_ABS_TOL = 1e-13
_REL_TOL = 1e-12
_MAX_EVALUATIONS = 2_000_000


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# 7-point Gauss / 15-point Kronrod pair on [-1, 1]: the Kronrod weights,
# centre last.  The panel reads them twice and writes the rest as literals.
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)


def _gauss_kronrod(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One 15-point Kronrod panel; returns (value, error estimate).

    The nodes are unrolled and every sum adds its terms in the same order
    as the textbook loop, centre first, so each one rounds the same way.
    A NaN or infinite value makes ``resk``, and with it the sum of
    |f - resk/2| behind the error estimate, non-finite, so one test per
    panel on that sum finds it; the nodes are then scanned in evaluation
    order to name the first.  Finite values for which either sum overflows
    are summed again scaled by 2**-4, exactly for all but subnormal values,
    which leaves every sum finite; the value and error are scaled back, and
    ``f`` is not called again.

    Work is saved in forms that give QUADPACK's doubles: the abscissae and
    Gauss weights are literals, not a global unpacked per call; sums are
    bound at most three to a line, as CPython builds a longer tuple first;
    ``x - mean if x >= mean else mean - x`` is ``abs(x - mean)`` with no
    call, as the two differences are exact negatives and NaN stays NaN; and
    ``q ** 1.5 if q < 1.0 else 1.0`` is ``min(1.0, q ** 1.5)`` for q >= 0.
    """
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # the positive Kronrod abscissae, scaled to the panel
    d0 = half * 0.991455371120812639206854697526329
    d1 = half * 0.949107912342758524526189684047851
    d2 = half * 0.864864423359769072789712788640926
    d3 = half * 0.741531185599394439863864773280788
    d4 = half * 0.586087235467691130294144838258730
    d5 = half * 0.405845151377397166906606412076961
    d6 = half * 0.207784955007898467600689403773245
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
    s0, s1, s2 = m0 + p0, m1 + p1, m2 + p2
    s3, s4, s5 = m3 + p3, m4 + p4, m5 + p5
    s6 = m6 + p6
    resk = w7 * fc + w0 * s0 + w1 * s1 + w2 * s2 + w3 * s3 + w4 * s4 + w5 * s5 + w6 * s6
    # the Gauss weights, centre first
    resg = (
        0.417959183673469387755102040816327 * fc + 0.129484966168869693270611432679082 * s1
        + 0.279705391489276667901467771423780 * s3 + 0.381830050505118944950369775488975 * s5
    )
    # QUADPACK-style scaled error estimate.
    mean = resk * 0.5
    resasc = (
        w7 * (fc - mean if fc >= mean else mean - fc)
        + w0 * ((m0 - mean if m0 >= mean else mean - m0) + (p0 - mean if p0 >= mean else mean - p0))
        + w1 * ((m1 - mean if m1 >= mean else mean - m1) + (p1 - mean if p1 >= mean else mean - p1))
        + w2 * ((m2 - mean if m2 >= mean else mean - m2) + (p2 - mean if p2 >= mean else mean - p2))
        + w3 * ((m3 - mean if m3 >= mean else mean - m3) + (p3 - mean if p3 >= mean else mean - p3))
        + w4 * ((m4 - mean if m4 >= mean else mean - m4) + (p4 - mean if p4 >= mean else mean - p4))
        + w5 * ((m5 - mean if m5 >= mean else mean - m5) + (p5 - mean if p5 >= mean else mean - p5))
        + w6 * ((m6 - mean if m6 >= mean else mean - m6) + (p6 - mean if p6 >= mean else mean - p6))
    )
    if not math.isfinite(resasc):
        nodes = (
            (center, fc),
            (center - d0, m0), (center + d0, p0), (center - d1, m1), (center + d1, p1),
            (center - d2, m2), (center + d2, p2), (center - d3, m3), (center + d3, p3),
            (center - d4, m4), (center + d4, p4), (center - d5, m5), (center + d5, p5),
            (center - d6, m6), (center + d6, p6),
        )
        for x, y in nodes:
            if not math.isfinite(y):
                shown = "NaN" if math.isnan(y) else repr(y)
                raise IntegrandError(f"integrand returned {shown} at x={x!r}")
        # the same a and b give the same nodes, so the table holds every one
        value, err = _gauss_kronrod({x: 0.0625 * y for x, y in nodes}.__getitem__, a, b)
        return 16.0 * value, 16.0 * err
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        q = 200.0 * err / resasc
        err = resasc * (q ** 1.5 if q < 1.0 else 1.0)
    return resk * half, err


def integrate(f: Callable[[float], float], lo: float, hi: float) -> QuadratureResult:
    """Integrate ``f`` over [lo, hi] to the module's fixed accuracy contract.

    The target is |error| <= max(1e-13, 1e-12 |value|).  The panel with the
    largest error estimate is bisected until the summed estimate meets it,
    until panels reach a few ulps in width, or until the evaluation count
    reaches 2,000,000 (it can pass that by up to 29).  Endpoints are never
    sampled, but an endpoint singularity is the caller's to regularize
    before the call, and known breakpoints are the caller's to split at.

    Args:
        f: integrand, finite on the open interval.
        lo, hi: finite limits with a finite width; a reversed interval
            negates the result.

    Returns:
        QuadratureResult; ``converged`` is unset when the evaluation budget
        ran out, in which case the best estimate is still returned.

    Raises:
        DomainError: if a limit or the width hi - lo is not finite.
        IntegrandError: if the integrand returns NaN or an infinity, or its
            values overflow the integral.
    """
    if not math.isfinite(hi - lo):
        raise DomainError(f"limits must be finite with a finite width, got lo={lo!r}, hi={hi!r}")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0, True)
    if lo > hi:
        r = integrate(f, hi, lo)
        return QuadratureResult(-r.value, r.error_estimate, r.evaluations, r.converged)

    total_value, total_err = _gauss_kronrod(f, lo, hi)
    heap: list[tuple[float, float, float, int, float, float]] = [
        (-total_err, lo, hi, 0, total_value, total_err)
    ]
    evaluations = 15
    tie = 1
    frozen_value = frozen_err = 0.0

    while True:
        value = total_value + frozen_value
        err = total_err + frozen_err
        # max(_ABS_TOL, _REL_TOL * |value|) with no call; a NaN gives _ABS_TOL, as max does
        target = _REL_TOL * (value if value >= 0.0 else -value)
        converged = err <= (target if target > _ABS_TOL else _ABS_TOL)
        if converged or not heap or evaluations >= _MAX_EVALUATIONS:
            break
        _, a, b, _, v, e = heappop(heap)
        # a < b, so max(|a|, |b|, 1) is the larger of b, -a and 1
        w = b if b > -a else -a
        if b - a <= 16.0 * math.ulp(w if w > 1.0 else 1.0):
            # cannot be split further at this precision
            frozen_value += v
            frozen_err += e
            total_value -= v
            total_err -= e
            continue
        mid = 0.5 * (a + b)
        v1, e1 = _gauss_kronrod(f, a, mid)
        v2, e2 = _gauss_kronrod(f, mid, b)
        evaluations += 30
        total_value += v1 + v2 - v
        total_err += e1 + e2 - e
        heappush(heap, (-e1, a, mid, tie, v1, e1))
        heappush(heap, (-e2, mid, b, tie + 1, v2, e2))
        tie += 2

    if not math.isfinite(value):
        raise IntegrandError(f"the integral over [{lo!r}, {hi!r}] overflows")
    return QuadratureResult(value, err, evaluations, converged)
