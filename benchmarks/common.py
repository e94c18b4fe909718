"""Pieces shared by the workloads: paths, pass criteria, statistics, set-up
timing and the host-speed probe."""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# An operation fails above this relative error against its reference: the
# level at which the README says the two routes agree.
REL_TOL = 1e-9

# Residual budgets of the identity checks: CHECK_DEFAULT_TOL of conicrect.cli
# at the commit that defined this benchmark, frozen here so a change to the
# program's table cannot move the benchmark's pass line.
CHECK_TOL = {
    "gleichung": 1e-12,
    "borwein": 1e-12,
    "agm-invariance": 1e-10,
    "landen-theorem": 1e-9,
    "fagnano": 1e-9,
}

SETUP_REPEATS = 9

# The host's speed drifts by tens of percent over minutes on shared machines,
# far more than any change worth measuring.  Every run therefore also times
# a fixed probe that shares no code with the program, many times over, and
# divides each end-to-end time by host_factor = (mean probe time) /
# PROBE_REF_US, so times read as if on a host where the probe takes
# PROBE_REF_US, a round figure near its time on the 2-CPU x86_64 host of
# BASELINE.json.  A change to the program moves the metrics and not the
# probe; a change of host speed moves both.  Runs print the raw figures too.
# The mean, not the median: that host flips between a fast and a slow state
# every few tens of milliseconds, the mean weighs the two by time as the
# workloads' own totals do, and a median jumps from one to the other.
PROBE_REF_US = 250.0


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first.

    The package is not installed, so ``src`` on the path is how a user of
    this checkout runs it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list, 0 < q <= 100."""
    return sorted_values[max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)]


def fresh_import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter, as the child reports it.

    Call it once and discard the result before measuring: that first import
    writes the bytecode cache, which an installed package already has.
    """
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout)


def launch_seconds(argv: list[str], repeats: int) -> list[float]:
    """Wall time from launch to exit of ``python <argv>``, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT, capture_output=True, timeout=120, check=True)
        times.append((perf_counter_ns() - t0) * 1e-9)
    return times


@dataclass(frozen=True)
class _ProbeMean:
    limit: float
    iterates: tuple


def _probe_mean(p: float, q: float) -> _ProbeMean:
    if not p > 0.0 < q:
        raise ValueError("probe inputs must be positive")
    iterates = [(p, q)]
    while p - q > 1e-15 * p:
        p, q = 0.5 * (p + q), math.sqrt(p * q)
        iterates.append((p, q))
    return _ProbeMean(0.5 * (p + q), tuple(iterates))


def probe_us() -> float:
    """Time of one run of the host-speed probe, in microseconds.

    What the program's kernels do, in miniature and in the benchmark's own
    code: checked arguments, a float iteration with its history, a frozen
    dataclass result, and a rejected input.  The collector is paused so that
    no garbage the program left can slow it.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        for i in range(60):
            _probe_mean(1.0 + i * 1e-3, 0.5 / (1.0 + i)).limit
            try:
                _probe_mean(-1.0, 1.0)
            except ValueError:
                pass
        return (perf_counter_ns() - t0) / 1000.0
    finally:
        if paused:
            gc.enable()


def normalise(metrics: dict, probes: list[float]) -> tuple[dict, str]:
    """End-to-end metrics at the reference host speed, and a note of the raw ones."""
    factor = fmean(probes) / PROBE_REF_US
    scaled = {
        name: value * factor if name == "ops_per_s" else value / factor if name.endswith(("_us", "_s")) else value
        for name, value in metrics.items()
    }
    raw = ", ".join(f"{name}={metrics[name]:.6g}" for name in metrics if scaled[name] != metrics[name])
    return scaled, f"host_factor {factor:.4f} from {len(probes)} probes; raw {raw}"
