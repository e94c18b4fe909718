"""Self-tests of the benchmark: determinism, tracer hygiene, references.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import conicrect
import conicrect.cli
from mpmath import mp, mpf

import cliload
import inproc
import reference as ref
from common import ROOT
from tracer import Tracer, installed_wrappers

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _outcomes(ops, outs) -> list[tuple]:
    return [inproc.outcome(name, out) for (name, _), out in zip(ops, outs)]


def test_same_seed_same_inputs():
    for workload in ("kernels", "rectify"):
        assert inproc.stream(workload, 7, 0.2) == inproc.stream(workload, 7, 0.2)
        assert inproc.stream(workload, 7, 0.2) != inproc.stream(workload, 8, 0.2)
    argvs = [[[launch.argv for launch in batch] for batch in cliload.rounds(seed, 2, Path("out"))] for seed in (7, 7, 8)]
    assert argvs[0] == argvs[1] != argvs[2]


def test_drawn_inputs_are_distinct():
    ops = inproc.stream("kernels", 1, 1.0)
    drawn = ops[len(inproc.CORNERS["kernels"]) :]
    assert len(set(drawn)) == len(drawn)


def test_traced_and_untraced_values_are_bit_identical():
    for workload in ("kernels", "rectify"):
        ops = inproc.stream(workload, 3, 0.2)
        plain, _, _ = inproc.timed_pass(ops)
        with Tracer():
            traced, _, _ = inproc.timed_pass(ops)
        assert _outcomes(ops, plain) == _outcomes(ops, traced)


def test_counts_repeat_exactly():
    def counts() -> tuple:
        ops = inproc.stream("kernels", 5, 0.1) + inproc.stream("rectify", 5, 0.1)
        with Tracer() as tracer:
            inproc.timed_pass(ops)
            conicrect.render_svg(conicrect.LandenPair(2.0, 1.0), 0.5)
        m = tracer.metrics()
        return m["quadrature.evaluations"], m["agm.iterations"], m["construction.svg_bytes"]

    first = counts()
    assert first == counts()
    assert all(count > 0 for count in first)


def test_traced_runs_repeat_counts_exactly():
    def counts(workload: str) -> dict:
        proc = _bench("--workload", workload, "--seed", "2", "--seconds", "0.4", "--trace", "1")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}

    for workload in ("rectify", "cli"):
        first = counts(workload)
        assert first == counts(workload)
        assert first["quadrature.evaluations"] > 0
    assert first["agm.iterations"] > 0 and first["construction.svg_bytes"] > 0 and first["cli.output_bytes"] > 0


def test_no_wrapper_left_after_traced_run():
    modules = [m for name, m in sys.modules.items() if name == "conicrect" or name.startswith("conicrect.")]
    before = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    try:
        with Tracer():
            assert "conicrect.conics.integrate" in installed_wrappers()
            assert "conicrect.cli.complete_E" in installed_wrappers()
            assert "conicrect.agm" in installed_wrappers()  # the package attribute is the function
            inproc.timed_pass(inproc.stream("rectify", 1, 0.05))
            raise KeyboardInterrupt  # wrappers must go even when the block is left by an exception
    except KeyboardInterrupt:
        pass
    assert installed_wrappers() == []
    after = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_fe_matches_mpmath():
    # mpmath's own functions at 60 digits: at 40 they lose digits near k -> 1
    for phi, k in [(0.0, 0.5), (1.0, 0.0), (0.3, 1e-12), (1.2, 0.7), (1.5707963267948966, 1 - 1e-12), (0.9, 0.999999)]:
        f, e = ref._fe(phi, k)
        with mp.workdps(60):
            m = mpf(k) ** 2
            assert abs(f - mp.ellipf(phi, m)) <= mpf(10) ** -39 * max(1, abs(f))
            assert abs(e - mp.ellipe(phi, m)) <= mpf(10) ** -39 * max(1, abs(e))
    for k in (0.0, 1e-9, 0.5, 0.99, 1 - 1e-12):
        big_k, big_e = ref._fe(mp.pi / 2, k)
        with mp.workdps(60):
            assert abs(big_k / mp.ellipk(mpf(k) ** 2) - 1) < mpf(10) ** -38
            assert abs(big_e / mp.ellipe(mpf(k) ** 2) - 1) < mpf(10) ** -38


def test_closed_forms_match_quadrature():
    for a, b, p in [(1.0, 2.0, 1e-10), (1.0, 2.0**1.5, 0.1), (3.0, 0.05, 0.7)]:
        A, B, P = mpf(a), mpf(b), mpf(p)
        direct = mp.quad(lambda q: q * q / mp.sqrt((A * A - q * q) * (B * B + q * q)), [P, A])
        assert abs(ref.ref_excess_finite(a, b, p)[0] / direct - 1) < mpf(10) ** -20
    for a, b, u0, u1 in [(1.0, 2.0, 0.1, 1.0), (2.0, 5.0, 0.3, 0.9)]:
        A, B = mpf(a), mpf(b)
        c = mp.sqrt(A * A + B * B)
        d2 = (A / c) ** 2
        direct = mp.quad(lambda u: c * mp.sqrt(1 - d2 * u * u) / (u * u * mp.sqrt((1 - u) * (1 + u))), [u0, u1])
        assert abs(ref.ref_simpson_arc(a, b, u0, u1)[0] / direct - 1) < mpf(10) ** -20
    x, y = ref.ref_hyperbola_point(2.0, 1.0, 0.5)
    assert abs((x / 1) ** 2 - (y / mp.sqrt(8)) ** 2 - 1) < mpf(10) ** -35


def test_reference_module_does_not_import_the_program():
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.startswith("conicrect") for name in imported)


def test_output_has_the_declared_shape():
    for workload, trace in (("kernels", 0), ("kernels", 1), ("cli", 0)):
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "kernels", "--seed", "1", "--seconds", "0.2", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
