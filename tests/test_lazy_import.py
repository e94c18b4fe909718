"""The package loads ``agm`` and ``errors`` with itself and the other four
library modules on first use: the exported names, ``dir`` and pickles are
what they were when every module loaded eagerly, and a CLI launch runs only
the modules its command reads."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import conicrect

SRC = Path(conicrect.__file__).resolve().parent.parent
LAZY = ("quadrature", "landen", "conics", "construction")
LIBRARY = ("agm", "errors", *LAZY)

# conicrect.__all__ when __init__.py star-imported all six modules
EXPORTS = [
    "AgmSequence", "ConicRectError", "ConstructionPoints", "ConvergenceError", "DomainError", "Ellipse",
    "ExcessBreakdown", "Hyperbola", "IntegrandError", "LagrangeParams", "LandenPair", "LemniscateArcs",
    "QuadratureResult", "ResidualReport", "agm", "amplitude_inverse", "check_agm_invariance", "check_borwein",
    "check_gleichung", "complement", "complete_E", "complete_K", "construction_points", "ellipse_arc",
    "ellipse_tangent_length", "excess_finite", "excess_infinity_closed", "excess_infinity_landen",
    "excess_infinity_series", "fagnano_check", "hyperbola_arc", "hyperbola_point_from_pedal",
    "hyperbola_tangent_length", "incomplete_E", "incomplete_F", "integrate", "lagrange_substitution",
    "landen_theorem_check", "lemniscate", "modulus_ascend", "render_svg", "semiaxes_to_pair", "series_KE",
    "simpson_arc", "upper_limit", "validate_points",
]  # fmt: skip
# the rest of dir(conicrect) then
OTHER_NAMES = [
    "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__", "__package__",
    "__path__", "__spec__", "__version__", "_agm_module", "conics", "construction", "errors", "landen",
    "quadrature",
]  # fmt: skip

# Prints, as JSON, which lazy modules have run after each step of STEPS.  An
# executed lazy module is a plain module again; reading an attribute of one
# that has not run, even through vars(), would run it.
PROBE = """
import sys, types
import conicrect
def ran():
    return [n for n in {lazy!r} if type(sys.modules["conicrect." + n]) is types.ModuleType]
seen = {{"import": [ran(), [n for n in {library!r} if "conicrect." + n in sys.modules]]}}
{steps}
import json  # last, so that the steps can tell whether a command loaded it
print(json.dumps(seen))
"""


def _fresh(steps: str, stdin: bytes = b"", **env) -> bytes:
    code = PROBE.format(lazy=LAZY, library=LIBRARY, steps=steps)
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        timeout=60,
        check=True,
    )
    return proc.stdout


def test_the_lazy_map_is_the_modules_all():
    union = {name: module for module in LAZY for name in sys.modules[f"conicrect.{module}"].__all__}
    assert conicrect._HOME == union


def test_exports_dir_and_agm_are_unchanged():
    assert conicrect.__all__ == EXPORTS
    assert callable(conicrect.agm) and conicrect.agm is sys.modules["conicrect.agm"].agm
    steps = (
        'seen["dir_before"] = dir(conicrect)\n'
        'seen["agm"] = type(conicrect.agm).__name__\n'
        'sys.modules["conicrect.landen"].check_borwein\n'
        'seen["bound"] = sorted(set(vars(conicrect)) & set(conicrect._HOME))\n'
        "from conicrect import *\n"
        'seen["dir_after"] = dir(conicrect)\n'
        'seen["all_loaded"] = ran()'
    )
    seen = json.loads(_fresh(steps))
    # every library module is in sys.modules from the import on, unexecuted
    assert seen["import"] == [[], list(LIBRARY)]
    assert seen["agm"] == "function"
    # running landen, which runs quadrature, bound both modules' names at once
    assert seen["bound"] == sorted(conicrect._LAZY["landen"] + conicrect._LAZY["quadrature"])
    for listed in (seen["dir_before"], seen["dir_after"]):
        assert sorted(set(EXPORTS + OTHER_NAMES) - set(listed)) == []
    assert seen["all_loaded"] == list(LAZY)


def test_records_pickled_in_a_fresh_interpreter_load_back_equal():
    # pickled where their modules ran lazily, unpickled here and where they
    # had not run
    records = "(conicrect.Hyperbola(1.0, 2.0), conicrect.check_borwein(0.5))"
    dumped = json.loads(_fresh(f'import pickle\nseen["pickle"] = pickle.dumps({records}).hex()'))["pickle"]
    assert pickle.loads(bytes.fromhex(dumped)) == (conicrect.Hyperbola(1.0, 2.0), conicrect.check_borwein(0.5))
    steps = f'import pickle\nseen["equal"] = pickle.loads(bytes.fromhex(sys.stdin.read())) == {records}'
    assert json.loads(_fresh(steps, stdin=dumped.encode()))["equal"] is True


def test_a_launch_runs_only_the_modules_its_command_reads(tmp_path):
    figure = tmp_path / "figure.svg"
    steps = (
        "import contextlib, io\n"
        "import conicrect.cli\n"
        "for argv in ({argvs}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert conicrect.cli.main(argv) == 0\n"
        '    seen[argv[0]] = [ran(), sorted(m for m in ("csv", "json") if m in sys.modules)]'
    ).format(
        argvs=repr(
            (
                ["ellint", "K", "--k", "0.5"],
                ["check", "borwein", "--k", "0.5"],
                ["construct", "--m", "2", "--n", "1", "--t", "0.5", "--out", str(figure)],
            )
        )
    )
    # with no bytecode written, as on a host that sets this, a module's first
    # run compiles it
    seen = json.loads(_fresh(steps, PYTHONDONTWRITEBYTECODE="1"))
    assert seen["ellint"] == [[], []]
    assert seen["check"] == [["quadrature", "landen"], []]
    assert seen["construct"] == [list(LAZY), []]
    assert figure.read_text().endswith("</svg>\n")
