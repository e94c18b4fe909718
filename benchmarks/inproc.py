"""The in-process workloads: ``kernels`` (closed-form route) and ``rectify``
(oracle route).

One client calls the library in a closed loop: the next operation starts
when the previous one returns.  The stream is a seeded sequence of distinct
continuous draws, preceded by a fixed list of domain corners, and every
operation in it has a 40-digit reference, computed before the slice that
holds it is timed.  The stream is sized by ``--seconds`` and runs to its
end, so the set of operations, and with it every accuracy figure and trace
count, depends on the seed and the run length only.
"""

from __future__ import annotations

import gc
import math
import random
from statistics import median
from time import perf_counter_ns
from typing import Callable, NamedTuple

import conicrect as cr

import reference as ref
from common import CHECK_TOL, REL_TOL, SETUP_REPEATS, fresh_import_seconds, normalise, percentile, probe_us
from tracer import Tracer

HALF_PI = 0.5 * math.pi


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _modulus(rng: random.Random) -> float:
    """Log-clustered at both ends of [0, 1 - 1e-12]."""
    if rng.random() < 0.5:
        return 0.5 * 10.0 ** -rng.uniform(0.0, 12.0)
    return 1.0 - 10.0 ** -rng.uniform(math.log10(2.0), 12.0)


def _limit_semiaxes(rng: random.Random) -> tuple[float, float]:
    a = _logu(rng, 0.1, 10.0)
    return a, a / _logu(rng, 1e-8, 1e6)


def _pair(a: float, b: float) -> tuple[float, float]:
    """(m, n) with a = m - n and b = 2 sqrt(mn), in cancellation-free form."""
    m = 0.5 * (math.hypot(a, b) + a)
    return m, b * b / (4.0 * m)


def _pedal(rng: random.Random) -> tuple[float, float, float]:
    a = _logu(rng, 0.1, 10.0)
    return a, a * _logu(rng, 0.01, 100.0), a * 10.0 ** -rng.uniform(0.0, 10.0)


def _simpson(rng: random.Random) -> tuple[float, float, float, float]:
    a = _logu(rng, 0.1, 10.0)
    u0 = _logu(rng, 1e-4, 0.9)
    u1 = 1.0 if rng.random() < 0.5 else u0 + (1.0 - u0) * rng.uniform(0.1, 0.9)
    return a, a * _logu(rng, 0.01, 100.0), u0, u1


def _tangent(rng: random.Random) -> tuple[float, float, float]:
    m = _logu(rng, 0.5, 2.0)
    n = m * _logu(rng, 1e-3, 0.99)
    return m, n, (m - n) * rng.uniform(0.01, 0.99)


def _invariance(rng: random.Random) -> tuple[float, float, float]:
    p = _logu(rng, 0.5, 2.0)
    q = p * rng.uniform(0.01, 0.99)
    x = 1.0 / p if rng.random() < 0.5 else rng.uniform(0.01, 0.99) / p
    return x, p, q


class Op(NamedTuple):
    call: Callable
    draw: Callable[[random.Random], tuple]
    reference: Callable | None  # None for an identity check, judged by residual
    check: str | None = None  # CHECK_TOL key
    values: Callable = lambda out: (out,)


# Calls resolve the library function at call time, through the package, so
# the traced run sees the tracer's wrappers.
OPS = {
    "agm": Op(
        lambda p, q: cr.agm(p, q),
        lambda r: (_logu(r, 1e-3, 1e3), _logu(r, 1e-3, 1e3)),
        ref.ref_agm,
        values=lambda out: (out.limit,),
    ),
    "complete_K": Op(lambda k: cr.complete_K(k), lambda r: (_modulus(r),), ref.ref_complete_K),
    "complete_E": Op(lambda k: cr.complete_E(k), lambda r: (_modulus(r),), ref.ref_complete_E),
    "incomplete_F": Op(
        lambda phi, k: cr.incomplete_F(phi, k), lambda r: (r.uniform(0.0, HALF_PI), _modulus(r)), ref.ref_incomplete_F
    ),
    "incomplete_E": Op(
        lambda phi, k: cr.incomplete_E(phi, k), lambda r: (r.uniform(0.0, HALF_PI), _modulus(r)), ref.ref_incomplete_E
    ),
    "lemniscate": Op(
        lambda radius: cr.lemniscate(radius),
        lambda r: (_logu(r, 1e-3, 1e3),),
        ref.ref_lemniscate,
        values=lambda out: (out.quarter_arc, out.full_arc, out.gauss_constant),
    ),
    "excess_infinity_closed": Op(
        lambda a, b: cr.excess_infinity_closed(cr.Hyperbola(a, b)), _limit_semiaxes, ref.ref_excess_infinity_closed
    ),
    "excess_infinity_landen": Op(
        lambda m, n: cr.excess_infinity_landen(cr.LandenPair(m, n)),
        lambda r: _pair(*_limit_semiaxes(r)),
        ref.ref_excess_infinity_landen,
    ),
    "check_gleichung": Op(
        lambda phi, k: cr.check_gleichung(phi, k), lambda r: (r.uniform(0.0, HALF_PI), _modulus(r)), None, "gleichung"
    ),
    "check_borwein": Op(lambda k: cr.check_borwein(k), lambda r: (_modulus(r),), None, "borwein"),
    "excess_finite": Op(lambda a, b, p: cr.excess_finite(cr.Hyperbola(a, b), p), _pedal, ref.ref_excess_finite),
    "hyperbola_arc": Op(lambda a, b, p: cr.hyperbola_arc(cr.Hyperbola(a, b), p), _pedal, ref.ref_hyperbola_arc),
    "simpson_arc": Op(
        lambda a, b, u0, u1: cr.simpson_arc(cr.Hyperbola(a, b), u0, u1), _simpson, ref.ref_simpson_arc
    ),
    "landen_theorem_check": Op(
        lambda m, n, t: cr.landen_theorem_check(cr.LandenPair(m, n), t)[1], _tangent, None, "landen-theorem"
    ),
    "fagnano_check": Op(lambda m, n, t: cr.fagnano_check(cr.LandenPair(m, n), t), _tangent, None, "fagnano"),
    "check_agm_invariance": Op(
        lambda x, p, q: cr.check_agm_invariance(x, p, q), _invariance, None, "agm-invariance"
    ),
}

WORKLOADS = {
    "kernels": (
        "agm",
        "complete_K",
        "complete_E",
        "incomplete_F",
        "incomplete_E",
        "lemniscate",
        "excess_infinity_closed",
        "excess_infinity_landen",
        "check_gleichung",
        "check_borwein",
    ),
    "rectify": (
        "excess_finite",
        "hyperbola_arc",
        "simpson_arc",
        "landen_theorem_check",
        "fagnano_check",
        "check_agm_invariance",
    ),
}

# The edges of each documented domain, run once at the head of every stream
# so the worst case is sampled in every run whatever the seed.
_K_EDGE = 1.0 - 1e-12
CORNERS = {
    "kernels": [
        ("agm", (1.0, 1e-12)),
        ("complete_K", (_K_EDGE,)),
        ("complete_E", (_K_EDGE,)),
        ("incomplete_F", (HALF_PI, _K_EDGE)),
        ("incomplete_E", (HALF_PI, _K_EDGE)),
        ("excess_infinity_closed", (1.0, 1e8)),
        ("excess_infinity_closed", (1e6, 1.0)),
        ("excess_infinity_landen", _pair(1.0, 1e8)),
        ("check_gleichung", (HALF_PI, _K_EDGE)),
        ("check_borwein", (_K_EDGE,)),
    ],
    "rectify": [
        ("excess_finite", (1.0, 2.0, 1e-10)),
        ("excess_finite", (1.0, 2.0, 1e-6)),
        ("hyperbola_arc", (1.0, 2.0, 1e-10)),
        ("simpson_arc", (1.0, 2.0, 1e-4, 1.0)),
        ("check_agm_invariance", (1.0, 1.0, 0.01)),
    ]
    # the worst edge, b/a -> 100 at p/a = 1e-10, on a grid dense enough that
    # its largest error, not the luck of the draws, sets rel_err_max
    + [("excess_finite", (a, a * 10.0 ** (1.5 + i / 78.0), a * 1e-10)) for a in (0.1, 1.0, 10.0) for i in range(40)],
}

# Drawn operations per second of --seconds.  References cost 10-20 times an
# operation on kernels, so the stream, not the clock, bounds the timed loop.
PER_SECOND = {"kernels": 5000, "rectify": 1000}
CHUNKS = 40
PROBES_PER_CHUNK = 5
TRACE_SHARE = 4  # the traced run replays the first 1/4 of the stream


def stream(workload: str, seed: int, seconds: float) -> list[tuple[str, tuple]]:
    """The seeded operation stream: corners, then distinct continuous draws."""
    rng = random.Random(f"{workload}:{seed}")
    names = WORKLOADS[workload]
    ops = list(CORNERS[workload])
    for _ in range(max(1, round(PER_SECOND[workload] * seconds))):
        name = rng.choice(names)
        ops.append((name, OPS[name].draw(rng)))
    return ops


def references(ops) -> list:
    return [None if OPS[name].reference is None else OPS[name].reference(*args) for name, args in ops]


def timed_pass(ops) -> tuple[list, list[int], int]:
    """Run every operation once; per-operation latencies and loop wall time in ns.

    The collector is paused as timeit pauses it: the library makes no
    reference cycles, and the stored results would otherwise make each
    collection scan a growing heap the program does not own.
    """
    calls = [(OPS[name].call, args) for name, args in ops]
    outs: list = [None] * len(calls)
    lat = [0] * len(calls)
    gc.collect()
    gc.disable()
    try:
        start = perf_counter_ns()
        for i, (call, args) in enumerate(calls):
            t0 = perf_counter_ns()
            try:
                out = call(*args)
            except Exception as exc:  # a raising operation is a failed one
                out = exc
            lat[i] = perf_counter_ns() - t0
            outs[i] = out
        wall = perf_counter_ns() - start
    finally:
        gc.enable()
    return outs, lat, wall


def _values(name: str, out) -> tuple:
    """The numbers an operation reports: its values, or (lhs, rhs, residual)."""
    op = OPS[name]
    return (out.lhs, out.rhs, out.residual) if op.check is not None else tuple(op.values(out))


def outcome(name: str, out) -> tuple:
    """Everything an operation returned, exactly, as comparable strings."""
    if isinstance(out, Exception):
        return ("raised", type(out).__name__, str(out))
    try:
        return tuple(map(repr, _values(name, out)))
    except (AttributeError, TypeError):
        return ("unreadable", repr(out))


def judge(ops, outs, refs) -> dict:
    """Failures and worst relative error of a pass against the references.

    A result the benchmark cannot read (not the type the operation
    documents) is a failure and also counts as ``unreadable``.
    """
    failed = unreadable = 0
    worst = 0.0
    by_reason: dict[str, int] = {}

    def fail(reason: str) -> None:
        nonlocal failed
        failed += 1
        by_reason[reason] = by_reason.get(reason, 0) + 1

    for (name, _), out, r in zip(ops, outs, refs):
        if isinstance(out, Exception):
            fail(f"{name} raised {type(out).__name__}")
            continue
        try:
            values = _values(name, out)
        except (AttributeError, TypeError):
            unreadable += 1
            fail(f"{name} returned an unreadable {type(out).__name__}")
            continue
        tol = CHECK_TOL.get(OPS[name].check)
        if tol is not None:
            if not values[2] <= tol:
                fail(f"{name} residual over {tol:g}")
            continue
        if not all(math.isfinite(v) for v in values):
            fail(f"{name} non-finite")
            continue
        err = max(ref.rel_err(v, rv) for v, rv in zip(values, r))
        worst = max(worst, err)
        if err > REL_TOL:
            fail(f"{name} rel_err over {REL_TOL:g}")
    return {"failed": failed, "unreadable": unreadable, "rel_err_max": worst, "by_reason": by_reason}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """End-to-end metrics of one untraced run.

    The stream is timed in CHUNKS slices, each right after its references
    are computed, with the host-speed probe after each slice and the set-up
    imports spread between slices, so that every sample covers the whole
    run rather than one burst of it.
    """
    if trace:
        return _traced(workload, seed, seconds)
    ops = stream(workload, seed, seconds)
    n = len(ops)
    size = -(-n // CHUNKS)
    setup_after = {round(j * (CHUNKS - 1) / (SETUP_REPEATS - 1)) for j in range(SETUP_REPEATS)}
    fresh_import_seconds("conicrect")  # writes the bytecode cache
    setup, refs, outs, lat, wall, probes = [], [], [], [], 0, []
    for index, start in enumerate(range(0, n, size)):
        chunk = ops[start : start + size]
        refs += references(chunk)
        chunk_outs, chunk_lat, chunk_wall = timed_pass(chunk)
        probes += [probe_us() for _ in range(PROBES_PER_CHUNK)]
        outs += chunk_outs
        lat += chunk_lat
        wall += chunk_wall
        if index in setup_after:
            setup.append(fresh_import_seconds("conicrect"))
    verdict = judge(ops, outs, refs)
    lat.sort()
    metrics, host = normalise(
        {
            "ops_per_s": n / (wall * 1e-9),
            "latency_p50_us": percentile(lat, 50) / 1000.0,
            "latency_tail_us": percentile(lat, 99) / 1000.0,
            "rel_err_max": verdict["rel_err_max"],
            "fail_ratio": verdict["failed"] / n,
            "setup_s": median(setup),
        },
        probes,
    )
    return {
        "correct": verdict["unreadable"] == 0,
        "attempted": n,
        "failed": verdict["failed"],
        "metrics": metrics,
        "samples": {"latency_p50_us": n, "latency_tail_us": n, "setup_s": len(setup)},
        "notes": [f"tail is p99 of {n} operations ({n - math.ceil(0.99 * n)} beyond it)", host]
        + [f"{count} x {reason}" for reason, count in sorted(verdict["by_reason"].items())],
    }


def _traced(workload: str, seed: int, seconds: float) -> dict:
    ops = stream(workload, seed, seconds / TRACE_SHARE)
    refs = references(ops)
    plain_outs, _, plain_wall = timed_pass(ops)
    with Tracer() as tracer:
        traced_outs, _, traced_wall = timed_pass(ops)
    identical = all(
        outcome(name, a) == outcome(name, b) for (name, _), a, b in zip(ops, plain_outs, traced_outs)
    )
    verdict = judge(ops, traced_outs, refs)
    n = len(ops)
    metrics = tracer.metrics()
    metrics["trace.ops_per_s_untraced"] = n / (plain_wall * 1e-9)
    metrics["trace.ops_per_s_traced"] = n / (traced_wall * 1e-9)
    metrics["trace.overhead"] = traced_wall / plain_wall
    return {
        "correct": identical and verdict["unreadable"] == 0,
        "attempted": n,
        "failed": verdict["failed"],
        "metrics": metrics,
        "samples": {},
        "notes": [] if identical else ["traced and untraced results differ"],
    }
