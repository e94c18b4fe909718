"""Run one conicrect benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is a separate run that measures the per-layer metrics.
``--workload all`` runs every workload in turn.  Each metric is printed
with its unit, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import ROOT, SRC


def _load_program():
    """Import conicrect from this checkout's src, and nowhere else."""
    package = SRC / "conicrect"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no conicrect sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import conicrect

    if Path(conicrect.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported conicrect from {conicrect.__file__}, not {package}")


def _report(workload: str, result: dict, declared: list[dict]) -> dict:
    """Print the workload's metrics; return them in the output's JSON form.

    A per-layer metric of a layer the workload never reaches reads 0.
    """
    measured = result["metrics"]
    out = {}
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for spec in declared:
        name = spec["name"]
        if name not in measured and "bound" in spec:
            raise KeyError(f"{workload} did not measure end-to-end metric {name}")
        value = float(measured.get(name, 0.0))
        n = result["samples"].get(name)
        print(f"   {name:<38} {value:>16.6g} {spec['unit']:<6}" + (f" n={n}" if n else ""))
        out[name] = {"value": value, "unit": spec["unit"]}
    for note in result["notes"]:
        print(f"   note: {note}")
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _load_program()
    import cliload
    import inproc

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    results, metrics = [], {}
    for workload in workloads:
        module = cliload if workload == "cli" else inproc
        result = module.run(workload, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        reported = _report(workload, result, declared)
        if args.workload == "all":
            reported = {f"{workload}.{name}": value for name, value in reported.items()}
        metrics.update(reported)
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
