"""Repeat workloads over several seeds and report each metric's spread.

    python3 benchmarks/steadiness.py --runs 10 [--workloads kernels,cli] [--first-seed 1]

Runs ``benchmarks/run.py --trace 0`` once per seed per workload, one run at
a time, and prints for every end-to-end metric the median, the quartiles
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.  A spread over a third of the bound
is marked, and one over the bound marked louder; ``setup_s`` is reported
but, like its bound, judged on medians only.  ``--out FILE`` also writes
every run's metrics as JSON, so two sets can be compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.setdefault(workload, []).append(result)
            host = next((line.split("note: ")[1].split(";")[0] for line in lines if "host_factor" in line), "")
            print(f"{workload} seed {seed}: {host} " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    worst = 0.0
    for workload, results in runs.items():
        print(f"== {workload} ({len(results)} runs)")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            mark = "" if spread <= metric["bound"] / 3 else ("  OVER BOUND" if spread > metric["bound"] else "  over a third")
            print(
                f"   {metric['name']:<16} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                f" spread {spread:7.4f} bound {metric['bound']}{mark}"
            )
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
