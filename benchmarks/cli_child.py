"""Benchmark-owned child for the traced ``cli`` run.

Reads ``{"argvs": [[verb, argv], ...]}`` on stdin, calls
``conicrect.cli.main(argv)`` for each, first untraced and then under the
tracer, and prints one JSON object: the median time inside ``main`` per
verb, the layer metrics of the traced pass, the two passes' call rates, and
whether both passes produced the same exit codes, output and files.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import conicrect.cli

from tracer import Tracer


def _pass(argvs: list) -> tuple[list[int], list[tuple], int]:
    lat, seen = [], []
    start = perf_counter_ns()
    for _, argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter_ns()
            code = conicrect.cli.main(argv)
            lat.append(perf_counter_ns() - t0)
        written = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else b""
        seen.append((code, out.getvalue(), err.getvalue(), written))
    return lat, seen, perf_counter_ns() - start


def main() -> int:
    argvs = json.load(sys.stdin)["argvs"]
    plain_lat, plain_seen, plain_wall = _pass(argvs)
    with Tracer() as tracer:
        _, traced_seen, traced_wall = _pass(argvs)
    metrics = tracer.metrics()
    by_verb: dict[str, list[int]] = {}
    for (verb, _), ns in zip(argvs, plain_lat):
        by_verb.setdefault(verb, []).append(ns)
    for verb, values in by_verb.items():
        metrics[f"cli.main_us.{verb}"] = statistics.median(values) / 1000.0
    metrics["trace.ops_per_s_untraced"] = len(argvs) / (plain_wall * 1e-9)
    metrics["trace.ops_per_s_traced"] = len(argvs) / (traced_wall * 1e-9)
    metrics["trace.overhead"] = traced_wall / plain_wall
    print(json.dumps({"identical": plain_seen == traced_seen, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
