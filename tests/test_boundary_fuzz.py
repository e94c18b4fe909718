"""The CLI's boundary contract, fuzzed from its one registry.

Whatever numbers a launch is given, ``main`` returns an exit code in
{0, 1, 2, 3} and raises nothing, and a launch that exits 0 (success) or 1
(check failed) prints only finite numbers.  Out-of-domain input is exit 2,
a ``DomainError``.

The cases are built from ``cli.COMMANDS`` and ``build_parser()``, so a new
command is fuzzed without a new test.  A command with a verb form
(``ellint K``, ``check fagnano``, ``agm``, ``construct``) runs as that verb,
with every flag it takes; one that only ``table`` reaches
(``tangent-length``) runs as a one-row table.  ``construct`` writes its
figure to a temporary file.  The draws are seeded: lengths log-uniform in
[1e-300, 1e300], 15% of them fixed extremes from 5e-324 to 1.7e308, and
moduli and amplitudes clustered at both ends of their ranges.  Flags that
bound one another are drawn together, each a log-uniform gap from either
end of its range, so that most draws reach the arithmetic rather than
stopping at a domain check: a Landen pair and a tangent length
(``check landen-theorem``, ``check fagnano``, ``construct``) as n in (0, m)
and t in (0, m - n); an ellipse and an abscissa (``tangent-length``) as
n in [0, m] and x in [0, m]; an AGM step and its limit
(``check agm-invariance``) as q in (0, p) and x in [0, 1/p]; a hyperbola and
a pedal distance (``excess finite``) as p in (0, a].
"""

import argparse
import math
import random
import re

from conicrect.cli import COMMANDS, build_parser, main

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


def _value(rng, name, out):
    if name == "out":
        return str(out)
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
    """(command, argv builder) for each command of the registry; ``construct``
    writes its figure to ``out``."""
    verbs = _verbs()
    entries = []
    for command, (params, _) in COMMANDS.items():
        verb, _, kind = command.partition("-")
        if verb in verbs:
            head = [verb, kind] if kind else [verb]
            entries.append((command, lambda rng, head=head, params=params: head + _flags(_values(rng, params, out))))
        else:
            entries.append((command, lambda rng, command=command, params=params: _table(rng, command, params)))
    return entries


def _values(rng, params, out):
    """A value for each of ``params``, those that bound one another drawn together."""
    drawn = {name: repr(value) for name, value in _together(rng, set(params)).items()}
    return {name: drawn[name] if name in drawn else _value(rng, name, out) for name in params}


def _together(rng, names):
    """The flags among ``names`` that bound one another, each near an end of
    the range the others leave it."""
    if {"m", "n", "t"} <= names:  # a Landen pair n < m and t in (0, m - n)
        m = _length(rng)
        n = _near_ends(rng, m)
        return {"m": m, "n": n, "t": _near_ends(rng, m - n)}
    if {"m", "n", "x"} <= names:  # an ellipse n <= m and x in [0, m]
        m = _length(rng)
        return {"m": m, "n": _near_ends(rng, m), "x": _near_ends(rng, m)}
    if {"x", "p", "q"} <= names:  # an AGM step q < p and x in [0, 1/p]
        p = _length(rng)
        return {"p": p, "q": _near_ends(rng, p), "x": _near_ends(rng, 1.0 / p)}
    if {"a", "p"} <= names:  # a hyperbola and p in (0, a]
        a = _length(rng)
        return {"a": a, "p": _near_ends(rng, a)}
    return {}


def _flags(values):
    return [item for name, value in values.items() for item in (f"--{name}", value)]


def _table(rng, command, params):
    sweep = params[0]
    values = _values(rng, params, None)
    v = values.pop(sweep)
    return ["table", "--op", command, "--sweep", sweep, "--from", v, "--to", v, "--step", "1"] + _flags(values)


def _argvs(out):
    rng = random.Random(5)
    drawn = [build(rng) for _, build in _entries(out) for _ in range(DRAWS)]
    return drawn + [[arg.format(out=out) for arg in argv] for argv in PINNED]


def test_every_op_and_check_is_fuzzed(tmp_path):
    rng = random.Random(0)
    argvs = {name: build(rng) for name, build in _entries(tmp_path / "figure.svg")}
    heads = {name: argv[:3] for name, argv in argvs.items()}
    assert list(heads) == list(COMMANDS)
    assert heads["ellint-K"] == ["ellint", "K", "--k"]
    assert heads["check-agm-invariance"] == ["check", "agm-invariance", "--x"]
    # no verb reaches tangent-length, so it runs as a one-row table
    assert heads["tangent-length"] == ["table", "--op", "tangent-length"]
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
