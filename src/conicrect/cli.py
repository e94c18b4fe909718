"""Command-line interface.

Usage:
    conicrect agm --p 1 --q 0.8 --json
    conicrect ellint K --k 0.70710678118654752
    conicrect ellint F --k 0.8 --phi 0.7853981633974483
    conicrect excess closed --a 1 --b 2.8284271247461903
    conicrect excess landen --m 2 --n 1 --json
    conicrect check landen-theorem --m 2 --n 1 --t 0.5
    conicrect lemniscate --radius 1
    conicrect table --op ellint-K --sweep k --from 0.1 --to 0.9 --step 0.1 --format csv
    conicrect construct --m 2 --n 1 --t 0.5 --out figure.svg

Exit codes: 0 success (for ``check``: residual within tolerance), 1 check
failed, 2 domain or usage error, 3 convergence failure.  All numeric output
carries full double precision and no environment variable affects it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

from . import conics as _conics
from . import construction as _construction
from . import landen as _landen
from .agm import (
    agm,
    complete_E,
    complete_K,
    incomplete_E,
    incomplete_F,
    lemniscate,
)
from .errors import ConvergenceError, DomainError

SCHEMA_VERSION = 1


class RunReport(NamedTuple):
    """One command's result, JSON-serializable at full double precision."""

    op: str
    inputs: dict[str, float]
    values: dict[str, object]
    iterations: int | None = None
    flags: tuple[str, ...] = ()

    def to_json(self) -> str:
        import json  # imported here: only --json and table print JSON

        # schema 1 keeps a "residual" key, null since no command reports one
        payload = {"schema_version": SCHEMA_VERSION, "residual": None, **self._asdict()}
        return json.dumps(payload, sort_keys=True)

    def to_plain(self) -> str:
        parts = [f"{name}={value!r}" for name, value in self.inputs.items()]
        head = f"{self.op}({', '.join(parts)})"
        # a value that is not a float (agm's iterates) is shown by --json only
        lines = [f"{head} {k} = {x!r}" for k, x in self.values.items() if isinstance(x, float)]
        if self.iterations is not None:
            lines.append(f"{head} iterations = {self.iterations}")
        lines += [f"{head} warning: {flag}" for flag in self.flags]
        return "\n".join(lines)


def _hyperbola(v: dict[str, float]) -> _conics.Hyperbola:
    """The hyperbola given by its semiaxes (a, b) or by its Landen pair (m, n)."""
    return _conics.Hyperbola(v["a"], v["b"]) if "a" in v else _pair(v).hyperbola


def _pair(v: dict[str, float]) -> _conics.LandenPair:
    """The Landen pair given as (m, n) or by its hyperbola's semiaxes (a, b)."""
    if "m" in v:
        return _conics.LandenPair(v["m"], v["n"])
    return _conics.semiaxes_to_pair(v["a"], v["b"])


def _agm(v: dict[str, float]) -> RunReport:
    seq = agm(v["p"], v["q"])
    values = {"limit": seq.limit, "iterates": [[pn, qn] for pn, qn in seq.iterates]}
    return RunReport("agm", v, values, seq.iterations, ("inputs-swapped",) if seq.swapped else ())


def _verdict(report: _landen.ResidualReport, v: dict[str, float], budget: float) -> int:
    """Print a check's line and give its exit code, judged against ``--tol``
    or, when that is not given, the check's own ``budget``."""
    tol = budget if v["tol"] is None else v["tol"]
    passed = report.within(tol)
    inputs = ", ".join(f"{k}={x!r}" for k, x in report.inputs.items())
    print(
        f"check {report.name}({inputs}): lhs={report.lhs!r} rhs={report.rhs!r} "
        f"residual={report.residual!r} tol={tol!r} {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def _construct(v: dict[str, object]) -> int:
    svg = _construction.render_svg(_pair(v), v["t"])
    try:
        with open(v["out"], "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise DomainError(f"cannot write {v['out']}: {exc}") from exc
    print(f"wrote {v['out']}")
    return 0


# Command name -> (parameter names, function of their values).  The argv
# ``V K`` runs the command ``V-K``, and ``table --op`` takes the same names.
# A command gives its named outputs or a RunReport, or, for ``check`` and
# ``construct``, prints its own line and gives its exit code.  Kernels are
# looked up by module-global name each time a command runs, never stored, so
# rebinding a module attribute reaches every verb and table.
COMMANDS = {
    "agm": (("p", "q"), _agm),
    "ellint-K": (("k",), lambda v: {"value": complete_K(v["k"])}),
    "ellint-E": (("k",), lambda v: {"value": complete_E(v["k"])}),
    "ellint-F": (("k", "phi"), lambda v: {"value": incomplete_F(v["phi"], v["k"])}),
    "ellint-Einc": (("k", "phi"), lambda v: {"value": incomplete_E(v["phi"], v["k"])}),
    "excess-closed": (
        ("a", "b"),
        lambda v: {"value": _conics.excess_infinity_closed(_hyperbola(v))},
    ),
    "excess-series": (
        ("a", "b", "terms"),
        lambda v: {"value": _conics.excess_infinity_series(_hyperbola(v), v["terms"])},
    ),
    "excess-landen": (("m", "n"), lambda v: {"value": _conics.excess_infinity_landen(_pair(v))}),
    "excess-finite": (
        ("a", "b", "p"),
        lambda v: {"value": _conics.excess_finite(_hyperbola(v), v["p"])},
    ),
    "tangent-length": (
        ("m", "n", "x"),
        lambda v: {"value": _conics.ellipse_tangent_length(_conics.Ellipse(v["m"], v["n"]), v["x"])},
    ),
    "lemniscate": (("radius",), lambda v: lemniscate(v["radius"])._asdict()),
    "check-gleichung": (
        ("phi", "k", "tol"),
        lambda v: _verdict(_landen.check_gleichung(v["phi"], v["k"]), v, 1e-12),
    ),
    "check-borwein": (("k", "tol"), lambda v: _verdict(_landen.check_borwein(v["k"]), v, 1e-12)),
    "check-agm-invariance": (
        ("x", "p", "q", "tol"),
        lambda v: _verdict(_landen.check_agm_invariance(v["x"], v["p"], v["q"]), v, 1e-10),
    ),
    "check-landen-theorem": (
        ("m", "n", "t", "tol"),
        lambda v: _verdict(_conics.landen_theorem_check(_pair(v), v["t"])[1], v, 1e-9),
    ),
    "check-fagnano": (
        ("m", "n", "t", "tol"),
        lambda v: _verdict(_conics.fagnano_check(_pair(v), v["t"]), v, 1e-9),
    ),
    "construct": (("m", "n", "t", "out"), _construct),
}

# Verb -> help.  ``tangent-length`` has no verb, so only ``table`` reaches it.
_VERBS = {
    "agm": "arithmetic-geometric mean with history",
    "ellint": "complete/incomplete elliptic integrals",
    "excess": "hyperbolic excess in its four forms",
    "lemniscate": "lemniscate arc lengths",
    "check": "residual checks; exit 0 iff within tolerance",
    "table": "sweep one flag of an op into CSV or JSON",
    "construct": "render the rectification figure as SVG",
}
_OWN_LINE = ("check", "construct")  # verbs that print no RunReport, so take no --json

# A flag in _DEFAULTS may be omitted: ``excess series --terms`` is 3, and a
# check without ``--tol`` is judged against its own budget.  ``table`` fixes
# and sweeps floats into rows of outputs, so it takes no command with an
# integer flag or a line of its own.
_DEFAULTS = {"terms": 3, "tol": None}
_TABLE_OPS = [
    op for op, (params, _) in COMMANDS.items()
    if "terms" not in params and op.partition("-")[0] not in _OWN_LINE
]
_SEMIAXES, _PAIR = ("a", "b"), ("m", "n")
_MAX_ROWS = 100_000  # a table's rows; documented sweeps make at most 100


def _take(args: argparse.Namespace, op: str, names: tuple[str, ...]) -> dict:
    """The values of ``names`` among the flags.  A missing one without a
    default, or a flag given that is not among them, is a DomainError."""
    for flag in args.op_flags:
        if flag not in names and getattr(args, flag) is not None:
            raise DomainError(f"{op} does not take --{flag}")
    values = {}
    for name in names:
        value = getattr(args, name)
        if value is None and name not in _DEFAULTS:
            raise DomainError(f"{op} requires --{name}")
        values[name] = _DEFAULTS[name] if value is None else value
    return values


def _report(op: str, inputs: dict[str, float]) -> RunReport:
    out = COMMANDS[op][1](inputs)
    return out if isinstance(out, RunReport) else RunReport(op, inputs, out)


def _cmd(args: argparse.Namespace) -> int:
    op = f"{args.verb}-{args.kind}" if "kind" in args else args.verb
    params = COMMANDS[op][0]
    if args.verb == "excess":
        # the hyperbola comes as its semiaxes or as its Landen pair, not both
        given = [g for g in (_SEMIAXES, _PAIR) if any(getattr(args, x) is not None for x in g)]
        if len(given) != 1:
            raise DomainError("provide exactly one of (--a, --b) or (--m, --n)")
        params = (*given[0], *(x for x in params if x not in _SEMIAXES + _PAIR))
    inputs = _take(args, op, params)
    if args.verb in _OWN_LINE:
        return COMMANDS[op][1](inputs)
    report = _report(op, inputs)
    print(report.to_json() if args.json else report.to_plain())
    return 0


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise DomainError(f"sweep must be finite, got from {start!r} to {stop!r} step {step!r}")
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if stop < start:
        raise DomainError(f"sweep range is empty: from {start!r} to {stop!r}")
    # the row count less one, taken before any row is built; it is inf when
    # the range overflows or the step underflows it
    span = (stop - start) / step + 1e-9
    if not span < _MAX_ROWS:
        raise DomainError(f"sweep from {start!r} to {stop!r} step {step!r} makes more than {_MAX_ROWS} rows")
    return [start + i * step for i in range(int(span) + 1)]


def _row(point: dict[str, float], report: RunReport) -> dict[str, float]:
    """One table row: the point, the report's floats and its iteration count."""
    row = {**point, **{name: x for name, x in report.values.items() if isinstance(x, float)}}
    if report.iterations is not None:
        row["iterations"] = float(report.iterations)
    return row


def _cmd_table(args: argparse.Namespace) -> int:
    if args.op not in _TABLE_OPS:
        raise DomainError(f"unknown table op {args.op!r}; choose from {sorted(_TABLE_OPS)}")
    params = COMMANDS[args.op][0]
    if args.sweep not in params:
        raise DomainError(f"op {args.op!r} sweeps one of {params}, got {args.sweep!r}")
    fixed = _take(args, args.op, tuple(name for name in params if name != args.sweep))
    sweep = _sweep_values(args.sweep_from, args.sweep_to, args.step)
    rows = [_row(p, _report(args.op, p)) for p in ({args.sweep: v, **fixed} for v in sweep)]
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([repr(x) for x in row.values()] for row in rows)
    else:
        import json

        payload = {"op": args.op, "sweep": args.sweep, "rows": rows}
        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True))
    return 0


def _add_flags(parser: argparse.ArgumentParser, ops: list[str]) -> None:
    """One flag per parameter of ``ops``; ``_take`` checks what each op needs."""
    flags = tuple(dict.fromkeys(name for op in ops for name in COMMANDS[op][0]))
    for name in flags:
        if name == "terms":
            parser.add_argument("--terms", type=int, choices=[1, 2, 3])
        else:
            parser.add_argument(f"--{name}", type=str if name == "out" else float)
    parser.set_defaults(op_flags=flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicrect",
        description="Elliptic integrals, conic rectification, and identity checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in _VERBS.items():
        if verb == "table":  # built in its place, so usage lists the verbs in _VERBS order
            # no abbreviated flags: a stray --t would otherwise pass for --to
            p_tab = sub.add_parser("table", help=help_text, allow_abbrev=False)
            p_tab.add_argument("--op", required=True)
            p_tab.add_argument("--sweep", required=True)
            p_tab.add_argument("--from", dest="sweep_from", type=float, required=True)
            p_tab.add_argument("--to", dest="sweep_to", type=float, required=True)
            p_tab.add_argument("--step", type=float, required=True)
            p_tab.add_argument("--format", choices=["csv", "json"], default="csv")
            _add_flags(p_tab, _TABLE_OPS)
            p_tab.set_defaults(func=_cmd_table)
            continue
        ops = [op for op in COMMANDS if op.partition("-")[0] == verb]
        p_verb = sub.add_parser(verb, help=help_text)
        if ops != [verb]:
            p_verb.add_argument("kind", choices=[op.partition("-")[2] for op in ops])
        _add_flags(p_verb, ops)
        if verb not in _OWN_LINE:
            p_verb.add_argument("--json", action="store_true")
        p_verb.set_defaults(func=_cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
