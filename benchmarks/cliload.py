"""The ``cli`` workload: one client launching ``python -m conicrect.cli``.

Launches run one after another in rounds of 20, one per verb variant, until
``--seconds`` have passed at the end of a round.  A round draws its inputs
from the well-conditioned middle of each domain (accuracy at the edges is
what ``kernels`` and ``rectify`` measure, failures and all), plus one fixed
corner launch, ``excess closed --a 1e-08 --b 1``, so every round carries the
same known edge case.  The three ``table`` sweeps use fixed grids and repeat
every round.  Each launch is checked from what a user sees: exit status,
stdout, and the SVG file ``construct`` writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import reference as ref
from common import (
    CHECK_TOL,
    REL_TOL,
    ROOT,
    SETUP_REPEATS,
    child_env,
    fresh_import_seconds,
    launch_seconds,
    normalise,
    percentile,
    probe_us,
)

HERE = Path(__file__).resolve().parent
MODULE = ["-m", "conicrect.cli"]
LAUNCH_TIMEOUT_S = 120


def _grid(start: float, stop: float, step: float) -> list[float]:
    """The sweep points ``table --from start --to stop --step step`` documents."""
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


# The three batched launches: ~100-row sweeps of the finite excess at small
# pedal distance, where each row costs ~1000 integrand evaluations.  Together
# they are 3 of the 20 launches in a round, so the p90 tail falls among them
# rather than on the edge between them and the one-shot launches.
_P_GRID = _grid(1e-06, 0.0001, 1e-06)
TABLES = {
    name: (
        ["--op", "excess-finite", "--sweep", "p", "--a", "1", "--b", b]
        + ["--from", "1e-06", "--to", "0.0001", "--step", "1e-06", "--format", fmt],
        "p",
        _P_GRID,
        lambda p, b=float(b): ref.ref_excess_finite(1.0, b, p),
    )
    for name, b, fmt in (("b2-csv", "2", "csv"), ("b8-json", "8", "json"), ("b05-csv", "0.5", "csv"))
}


@dataclass
class Launch:
    verb: str
    argv: list[str]
    kind: str  # how the output is read: json | check | svg | a TABLES key
    refs: dict = field(default_factory=dict)
    out_file: str | None = None


def _f(x: float) -> str:
    return repr(float(x))


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _round(rng: random.Random, outdir: Path, index: int) -> list[Launch]:
    k, phi = rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.5)
    p = _logu(rng, 0.1, 10.0)
    q = p * rng.uniform(0.05, 0.95)
    a = _logu(rng, 0.5, 2.0)
    b = a * _logu(rng, 0.3, 3.0)
    m = _logu(rng, 0.5, 2.0)
    n = m * rng.uniform(0.1, 0.6)
    t = (m - n) * rng.uniform(0.1, 0.9)
    flat_b = a / _logu(rng, 1e-3, 0.1)
    pedal = a * _logu(rng, 1e-3, 0.9)
    x = rng.uniform(0.1, 0.9) / p  # the singular endpoint x = 1/p is rectify's
    radius = _logu(rng, 0.1, 10.0)
    svg = outdir / f"figure-{index}.svg"

    def value(verb, argv, reference):
        return Launch(verb, argv + ["--json"], "json", {"value": reference[0]})

    launches = [
        Launch("agm", ["agm", "--p", _f(p), "--q", _f(q), "--json"], "json", {"limit": ref.ref_agm(p, q)[0]}),
        value("ellint", ["ellint", "K", "--k", _f(k)], ref.ref_complete_K(k)),
        value("ellint", ["ellint", "E", "--k", _f(k)], ref.ref_complete_E(k)),
        value("ellint", ["ellint", "F", "--k", _f(k), "--phi", _f(phi)], ref.ref_incomplete_F(phi, k)),
        value("ellint", ["ellint", "Einc", "--k", _f(k), "--phi", _f(phi)], ref.ref_incomplete_E(phi, k)),
        value("excess", ["excess", "closed", "--a", _f(a), "--b", _f(b)], ref.ref_excess_infinity_closed(a, b)),
        value("excess", ["excess", "landen", "--m", _f(m), "--n", _f(n)], ref.ref_excess_infinity_landen(m, n)),
        value("excess", ["excess", "series", "--a", _f(a), "--b", _f(flat_b), "--terms", "3"], ref.ref_excess_series(a, flat_b, 3)),
        value("excess", ["excess", "finite", "--a", _f(a), "--b", _f(b), "--p", _f(pedal)], ref.ref_excess_finite(a, b, pedal)),
        Launch("check", ["check", "gleichung", "--phi", _f(phi), "--k", _f(k)], "check", {"tol": CHECK_TOL["gleichung"]}),
        Launch("check", ["check", "borwein", "--k", _f(k)], "check", {"tol": CHECK_TOL["borwein"]}),
        Launch(
            "check",
            ["check", "agm-invariance", "--x", _f(x), "--p", _f(p), "--q", _f(q)],
            "check",
            {"tol": CHECK_TOL["agm-invariance"]},
        ),
        Launch(
            "check",
            ["check", "landen-theorem", "--m", _f(m), "--n", _f(n), "--t", _f(t)],
            "check",
            {"tol": CHECK_TOL["landen-theorem"]},
        ),
        Launch("check", ["check", "fagnano", "--m", _f(m), "--n", _f(n), "--t", _f(t)], "check", {"tol": CHECK_TOL["fagnano"]}),
        Launch(
            "lemniscate",
            ["lemniscate", "--radius", _f(radius), "--json"],
            "json",
            dict(zip(("quarter_arc", "full_arc", "gauss_constant"), ref.ref_lemniscate(radius))),
        ),
        *(Launch("table", ["table", *argv], name) for name, (argv, *_) in TABLES.items()),
        Launch(
            "construct",
            ["construct", "--m", _f(m), "--n", _f(n), "--t", _f(t), "--out", str(svg)],
            "svg",
            dict(zip("xy", ref.ref_hyperbola_point(m, n, t))),
            str(svg),
        ),
        value("excess", ["excess", "closed", "--a", "1e-08", "--b", "1.0"], ref.ref_excess_infinity_closed(1e-8, 1.0)),
    ]
    return launches


def rounds(seed: int, count: int, outdir: Path) -> list[list[Launch]]:
    rng = random.Random(f"cli:{seed}")
    return [_round(rng, outdir, i) for i in range(count)]


def table_references() -> dict[str, list]:
    return {name: [reference(v)[0] for v in grid] for name, (_, _, grid, reference) in TABLES.items()}


_RESIDUAL = re.compile(r"residual=(\S+) ")
_POINT_F = re.compile(r'<circle id="pt-F" cx="([^"]+)" cy="([^"]+)"')


def _rel(value, reference) -> float:
    value = float(value)
    return ref.rel_err(value, reference) if math.isfinite(value) else math.inf


def check(launch: Launch, exit_code: int, stdout: str, tables: dict[str, list]) -> tuple[bool, float | None]:
    """(failed, worst relative error) of one launch, read as a user reads it.

    Raises when the output of a launch that exited 0 cannot be read.
    """
    if exit_code != 0:
        return True, None
    errs: list[float] = []
    if launch.kind == "json":
        values = json.loads(stdout)["values"]
        errs = [_rel(values[name], r) for name, r in launch.refs.items()]
    elif launch.kind == "check":
        residual = float(_RESIDUAL.search(stdout).group(1))
        return not residual <= launch.refs["tol"], None
    elif launch.kind in TABLES:
        _, sweep, grid, _ = TABLES[launch.kind]
        if launch.kind.endswith("csv"):
            rows = list(csv.DictReader(io.StringIO(stdout)))
        else:
            rows = json.loads(stdout)["rows"]
        if [float(row[sweep]) for row in rows] != grid:
            return True, None
        errs = [_rel(row["value"], r) for row, r in zip(rows, tables[launch.kind])]
    elif launch.kind == "svg":
        found = _POINT_F.search(Path(launch.out_file).read_text(encoding="utf-8"))
        errs = [_rel(found.group(1), launch.refs["x"]), _rel(-float(found.group(2)), launch.refs["y"])]
    worst = max(errs)
    return not worst <= REL_TOL, worst


def _run_launch(launch: Launch) -> tuple[int, int, str, int]:
    """(latency ns, exit code, stdout, bytes written) of one process, launch to exit."""
    t0 = perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, *MODULE, *launch.argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=LAUNCH_TIMEOUT_S,
    )
    elapsed = perf_counter_ns() - t0
    written = len(proc.stdout.encode("utf-8"))
    if launch.out_file and proc.returncode == 0:
        written += Path(launch.out_file).stat().st_size
    return elapsed, proc.returncode, proc.stdout, written


class _Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.unreadable = 0
        self.worst = 0.0
        self.by_verb: dict[str, int] = {}

    def add(self, launch: Launch, code: int, stdout: str, tables) -> None:
        self.attempted += 1
        try:
            failed, err = check(launch, code, stdout, tables)
        except (ValueError, KeyError, AttributeError, OSError):
            failed, err = True, None
            self.unreadable += 1
        if err is not None and math.isfinite(err):
            self.worst = max(self.worst, err)
        if failed:
            self.failed += 1
            label = " ".join(launch.argv[:2])
            self.by_verb[label] = self.by_verb.get(label, 0) + 1

    def notes(self) -> list[str]:
        return [f"{count} x {label} failed" for label, count in sorted(self.by_verb.items())] + (
            [f"{self.unreadable} launches exited 0 with output that could not be read"] if self.unreadable else []
        )


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=ROOT) as tmp:
        if trace:
            return _traced(seed, Path(tmp))
        # a round takes well over a second, so this many is never used up
        planned = rounds(seed, int(seconds) + 2, Path(tmp))
        tables = table_references()
        fresh_import_seconds("conicrect.cli")  # writes the bytecode cache
        setup: list[float] = []
        tally = _Tally()
        lat: list[int] = []
        probes: list[float] = []
        wall = 0
        for batch in planned:
            # one set-up import per round spreads the set-up sample over the run
            setup.append(fresh_import_seconds("conicrect.cli"))
            for launch in batch:
                elapsed, code, stdout, _ = _run_launch(launch)
                probes.append(probe_us())
                lat.append(elapsed)
                wall += elapsed
                tally.add(launch, code, stdout, tables)
            if wall >= seconds * 1e9:
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(fresh_import_seconds("conicrect.cli"))
    lat.sort()
    n = len(lat)
    metrics, host = normalise(
        {
            "ops_per_s": n / (wall * 1e-9),
            "latency_p50_us": percentile(lat, 50) / 1000.0,
            "latency_tail_us": percentile(lat, 90) / 1000.0,
            "rel_err_max": tally.worst,
            "fail_ratio": tally.failed / tally.attempted,
            "setup_s": median(setup),
        },
        probes,
    )
    return {
        "correct": tally.unreadable == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "samples": {"latency_p50_us": n, "latency_tail_us": n, "setup_s": len(setup)},
        "notes": [f"tail is p90 of {n} launches ({n - math.ceil(0.9 * n)} beyond it)", host] + tally.notes(),
    }


def _traced(seed: int, tmp: Path) -> dict:
    """Per-layer numbers of the cli workload, from two rounds.

    The launches give the process-level layer; the same argv lists replayed
    through ``conicrect.cli.main`` in a benchmark-owned child, untraced and
    then traced, give the time inside ``main`` and the library layers.
    """
    planned = rounds(seed, 2, tmp)
    tables = table_references()
    interpreter = launch_seconds(["-c", "pass"], 7)
    fresh_import_seconds("conicrect.cli")  # writes the bytecode cache
    imports = [fresh_import_seconds("conicrect.cli") for _ in range(SETUP_REPEATS)]
    tally = _Tally()
    spawn: list[int] = []
    output_bytes = 0
    for launch in planned[0]:
        elapsed, code, stdout, written = _run_launch(launch)
        spawn.append(elapsed)
        output_bytes += written
        tally.add(launch, code, stdout, tables)
    request = json.dumps({"argvs": [[launch.verb, launch.argv] for batch in planned for launch in batch]})
    child = subprocess.run(
        [sys.executable, str(HERE / "cli_child.py")],
        input=request,
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    inner = json.loads(child.stdout)
    metrics = dict(inner["metrics"])
    metrics.update(
        {
            "cli.interpreter_us": median(interpreter) * 1e6,
            "cli.import_us": median(imports) * 1e6,
            "cli.spawn_us": median(spawn) / 1000.0,
            "cli.output_bytes": output_bytes,
        }
    )
    return {
        "correct": inner["identical"] and tally.unreadable == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "samples": {},
        "notes": tally.notes() + ([] if inner["identical"] else ["traced and untraced main() output differs"]),
    }
