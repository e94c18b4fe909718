"""The CLI's boundary contract, fuzzed from its registries.

Whatever numbers a launch is given, ``main`` returns an exit code in
{0, 1, 2, 3} and raises nothing, and a launch that exits 0 (success) or 1
(check failed) prints only finite numbers.  Out-of-domain input is exit 2,
a ``DomainError``.

The cases are built from ``cli.OPS``, ``cli.CHECKS`` and ``build_parser()``,
so a new op or check is fuzzed without a new test.  An op with a verb form
(``ellint K``, ``agm``) runs as that verb; an op that only ``table`` reaches
(``tangent-length``) runs as a one-row table.  ``construct``, in neither
registry, draws each of its parser's numeric flags and writes its figure to a
temporary file.  The draws are seeded: lengths
log-uniform in [1e-300, 1e300], 15% of them fixed extremes from 5e-324 to
1.7e308, and moduli and amplitudes clustered at both ends of their ranges.
"""

import argparse
import math
import random
import re

from conicrect.cli import CHECKS, OPS, build_parser, main

DRAWS = 40
HALF_PI = 0.5 * math.pi
EXTREMES = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-160, 1e154, 1e160, 1e300, 1e308, 1.7e308)
NON_FINITE = re.compile(r"(?i)\b(?:nan|inf|infinity)\b")

# argvs that these draws or other seeded fuzzing once found escaping main or
# printing a wrong PASS; tests/test_cli.py pins their exit codes, and {out} is
# a temporary file
PINNED = [
    ["check", "fagnano", "--m", "1.6e-161", "--n", "5e-162", "--t", "4e-162"],
    ["check", "fagnano", "--m", "1e+160", "--n", "9.999999999992951e+159", "--t", "4.73225274578919e+147"],
    ["check", "landen-theorem", "--m", "3.020504872450423e+154", "--n", "3.0205048724504216e+154"]
    + ["--t", "4.379211765587606e-115"],
    "table --op tangent-length --sweep x --from 0 --to 1 --step 0.5 --m 1 --n 1e-9".split(),
    ["construct", "--m", "8.895287952202664e+44", "--n", "1.213308943571832e-277"]
    + ["--t", "6.047961620343681e+44", "--out", "{out}"],
    ["construct", "--m", "1.6e-154", "--n", "1.5e-154", "--t", "5e-156", "--out", "{out}"],
]


def _length(rng):
    if rng.random() < 0.15:
        return rng.choice(EXTREMES)
    return 10.0 ** rng.uniform(-300.0, 300.0)


def _near_ends(rng, top):
    """A value of [0, top] within a log-uniform distance of one end."""
    gap = top * 10.0 ** -rng.uniform(0.0, 17.0)
    return rng.choice((gap, top - gap))


def _value(rng, name):
    if name == "terms":
        return str(rng.choice((1, 2, 3)))
    if name == "k":
        return repr(_near_ends(rng, 1.0))
    if name == "phi":
        return repr(_near_ends(rng, HALF_PI))
    return repr(_length(rng))


def _verbs():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _entries(out):
    """(name, argv builder) for each op and check, and for ``construct``,
    which writes its figure to ``out``."""
    verbs = _verbs()
    entries = []
    for op, (params, _) in OPS.items():
        verb, _, kind = op.partition("-")
        if verb in verbs:
            head = [verb, kind] if kind else [verb]
            entries.append((op, lambda rng, head=head, params=params: head + _flags(rng, params)))
        else:
            entries.append((op, lambda rng, op=op, params=params: _table(rng, op, params)))
    for name, (params, _, _) in CHECKS.items():
        entries.append((name, lambda rng, name=name, params=params: ["check", name] + _flags(rng, params)))
    params = [action.dest for action in verbs["construct"]._actions if action.type is float]
    entries.append(("construct", lambda rng: ["construct"] + _flags(rng, params) + ["--out", str(out)]))
    return entries


def _flags(rng, params):
    return [item for name in params for item in (f"--{name}", _value(rng, name))]


def _table(rng, op, params):
    sweep, *fixed = params
    v = _value(rng, sweep)
    return ["table", "--op", op, "--sweep", sweep, "--from", v, "--to", v, "--step", "1"] + _flags(rng, fixed)


def _argvs(out):
    rng = random.Random(5)
    drawn = [build(rng) for _, build in _entries(out) for _ in range(DRAWS)]
    return drawn + [[arg.format(out=out) for arg in argv] for argv in PINNED]


def test_every_op_and_check_is_fuzzed(tmp_path):
    rng = random.Random(0)
    argvs = {name: build(rng) for name, build in _entries(tmp_path / "figure.svg")}
    heads = {name: argv[:3] for name, argv in argvs.items()}
    assert set(heads) == set(OPS) | set(CHECKS) | {"construct"}
    assert heads["ellint-K"] == ["ellint", "K", "--k"]
    # no verb reaches tangent-length, so it runs as a one-row table
    assert heads["tangent-length"] == ["table", "--op", "tangent-length"]
    # construct is in neither registry; its parser gives the flags it draws
    construct = argvs["construct"]
    assert construct[0] == "construct"
    assert construct[1::2] == ["--m", "--n", "--t", "--out"]
    assert construct[-1] == str(tmp_path / "figure.svg")


def test_nothing_escapes_main(capsys, tmp_path):
    broken = []
    for argv in _argvs(tmp_path / "figure.svg"):
        try:
            code = main(argv)
        except Exception as exc:  # the contract: nothing escapes
            broken.append((argv, type(exc).__name__))
            capsys.readouterr()
            continue
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3) or (code in (0, 1) and NON_FINITE.search(out)):
            broken.append((argv, code, out))
    assert broken == []
