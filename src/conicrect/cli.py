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
import csv
import json
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
    residual: float | None = None
    iterations: int | None = None
    flags: tuple[str, ...] = ()

    def to_json(self) -> str:
        payload = {"schema_version": SCHEMA_VERSION, **self._asdict()}
        return json.dumps(payload, sort_keys=True)

    def to_plain(self) -> str:
        parts = [f"{name}={value!r}" for name, value in self.inputs.items()]
        head = f"{self.op}({', '.join(parts)})"
        lines = []
        for name, value in self.values.items():
            if isinstance(value, float):
                lines.append(f"{head} {name} = {value!r}")
            elif name != "iterates":
                lines.append(f"{head} {name} = {value}")
        if self.residual is not None:
            lines.append(f"{head} residual = {self.residual!r}")
        if self.iterations is not None:
            lines.append(f"{head} iterations = {self.iterations}")
        for flag in self.flags:
            lines.append(f"{head} warning: {flag}")
        return "\n".join(lines)


def _emit(report: RunReport, as_json: bool) -> None:
    print(report.to_json() if as_json else report.to_plain())


def _hyperbola(v: dict[str, float]) -> _conics.Hyperbola:
    """The hyperbola given by its semiaxes (a, b) or by its Landen pair (m, n)."""
    return _conics.Hyperbola(v["a"], v["b"]) if "a" in v else _pair(v).hyperbola


def _pair(v: dict[str, float]) -> _conics.LandenPair:
    """The Landen pair given as (m, n) or by its hyperbola's semiaxes (a, b)."""
    if "m" in v:
        return _conics.LandenPair(v["m"], v["n"])
    return _conics.semiaxes_to_pair(v["a"], v["b"])


def _agm_row(v: dict[str, float]) -> dict[str, float]:
    seq = agm(v["p"], v["q"])
    return {"limit": seq.limit, "iterations": float(seq.iterations)}


# Op name -> (parameter names, function from their values to named outputs).
# The verb form ``V K`` is the op ``V-K``, and ``table --op`` takes the same
# names.  Kernels are looked up by module-global name each time an op runs,
# never stored, so rebinding a module attribute reaches every verb and table.
OPS = {
    "agm": (("p", "q"), _agm_row),
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
        lambda v: {
            "value": _conics.ellipse_tangent_length(_conics.Ellipse(v["m"], v["n"]), v["x"])
        },
    ),
    "lemniscate": (("radius",), lambda v: lemniscate(v["radius"])._asdict()),
}

# ``excess series --terms`` is the one integer flag, 3 when omitted.  ``table``
# fixes and sweeps floats only, so it takes every op but that one.
_DEFAULTS = {"terms": 3}
_TABLE_OPS = [op for op, (params, _) in OPS.items() if "terms" not in params]
_SEMIAXES, _PAIR = ("a", "b"), ("m", "n")

# Check name -> (parameter names, default residual budget, function to its report).
CHECKS = {
    "gleichung": (("phi", "k"), 1e-12, lambda v: _landen.check_gleichung(v["phi"], v["k"])),
    "borwein": (("k",), 1e-12, lambda v: _landen.check_borwein(v["k"])),
    "agm-invariance": (
        ("x", "p", "q"),
        1e-10,
        lambda v: _landen.check_agm_invariance(v["x"], v["p"], v["q"]),
    ),
    "landen-theorem": (
        ("m", "n", "t"),
        1e-9,
        lambda v: _conics.landen_theorem_check(_pair(v), v["t"])[1],
    ),
    "fagnano": (("m", "n", "t"), 1e-9, lambda v: _conics.fagnano_check(_pair(v), v["t"])),
}


def _take(args: argparse.Namespace, op: str, names: tuple[str, ...]) -> dict[str, float]:
    """The values of ``names`` among the flags.  A missing one, or a flag
    given that is not among them, is a DomainError."""
    for flag in args.op_flags:
        if flag not in names and getattr(args, flag) is not None:
            raise DomainError(f"{op} does not take --{flag}")
    values = {}
    for name in names:
        value = getattr(args, name)
        if value is None:
            value = _DEFAULTS.get(name)
        if value is None:
            raise DomainError(f"{op} requires --{name}")
        values[name] = value
    return values


def _cmd_agm(args: argparse.Namespace) -> int:
    seq = agm(args.p, args.q)
    values = {"limit": seq.limit, "iterates": [[pn, qn] for pn, qn in seq.iterates]}
    flags = ("inputs-swapped",) if seq.swapped else ()
    inputs = {"p": args.p, "q": args.q}
    _emit(RunReport("agm", inputs, values, iterations=seq.iterations, flags=flags), args.json)
    return 0


def _cmd_op(args: argparse.Namespace) -> int:
    op = f"{args.verb}-{args.kind}" if "kind" in args else args.verb
    params, fn = OPS[op]
    if args.verb == "excess":
        # the hyperbola comes as its semiaxes or as its Landen pair, not both
        given = [g for g in (_SEMIAXES, _PAIR) if any(getattr(args, x) is not None for x in g)]
        if len(given) != 1:
            raise DomainError("provide exactly one of (--a, --b) or (--m, --n)")
        params = (*given[0], *(x for x in params if x not in _SEMIAXES + _PAIR))
    inputs = _take(args, op, params)
    _emit(RunReport(op, inputs, fn(inputs)), args.json)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    params, budget, fn = CHECKS[args.name]
    report = fn({name: getattr(args, name) for name in params})
    tol = args.tol if args.tol is not None else budget
    passed = report.within(tol)
    verdict = "PASS" if passed else "FAIL"
    inputs = ", ".join(f"{k}={v!r}" for k, v in report.inputs.items())
    print(
        f"check {report.name}({inputs}): lhs={report.lhs!r} rhs={report.rhs!r} "
        f"residual={report.residual!r} tol={tol!r} {verdict}"
    )
    return 0 if passed else 1


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise DomainError(f"sweep must be finite, got from {start!r} to {stop!r} step {step!r}")
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if stop < start:
        raise DomainError(f"sweep range is empty: from {start!r} to {stop!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _cmd_table(args: argparse.Namespace) -> int:
    if args.op not in _TABLE_OPS:
        raise DomainError(f"unknown table op {args.op!r}; choose from {sorted(_TABLE_OPS)}")
    params, fn = OPS[args.op]
    if args.sweep not in params:
        raise DomainError(f"op {args.op!r} sweeps one of {params}, got {args.sweep!r}")
    fixed = _take(args, args.op, tuple(name for name in params if name != args.sweep))
    sweep = _sweep_values(args.sweep_from, args.sweep_to, args.step)
    rows = [{**point, **fn(point)} for point in ({args.sweep: v, **fixed} for v in sweep)]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([repr(x) for x in row.values()] for row in rows)
    else:
        payload = {"op": args.op, "sweep": args.sweep, "rows": rows}
        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    pair = _conics.LandenPair(args.m, args.n)
    svg = _construction.render_svg(pair, args.t)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}")
    return 0


def _add_op_flags(parser: argparse.ArgumentParser, ops: list[str]) -> None:
    """One flag per parameter of ``ops``; ``_take`` checks what each op needs."""
    flags = tuple(dict.fromkeys(name for op in ops for name in OPS[op][0]))
    for name in flags:
        if name == "terms":
            parser.add_argument("--terms", type=int, choices=[1, 2, 3])
        else:
            parser.add_argument(f"--{name}", type=float)
    parser.set_defaults(op_flags=flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicrect",
        description="Elliptic integrals, conic rectification, and identity checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_agm = sub.add_parser("agm", help="arithmetic-geometric mean with history")
    p_agm.add_argument("--p", type=float, required=True)
    p_agm.add_argument("--q", type=float, required=True)
    p_agm.add_argument("--json", action="store_true")
    p_agm.set_defaults(func=_cmd_agm)

    for verb, help_text in (
        ("ellint", "complete/incomplete elliptic integrals"),
        ("excess", "hyperbolic excess in its four forms"),
        ("lemniscate", "lemniscate arc lengths"),
    ):
        ops = [op for op in OPS if op.partition("-")[0] == verb]
        p_op = sub.add_parser(verb, help=help_text)
        if ops != [verb]:
            p_op.add_argument("kind", choices=[op.partition("-")[2] for op in ops])
        _add_op_flags(p_op, ops)
        p_op.add_argument("--json", action="store_true")
        p_op.set_defaults(func=_cmd_op)

    p_chk = sub.add_parser("check", help="residual checks; exit 0 iff within tolerance")
    chk_sub = p_chk.add_subparsers(dest="name", required=True)
    for name, (params, budget, _) in CHECKS.items():
        c = chk_sub.add_parser(name)
        for param in params:
            c.add_argument(f"--{param}", type=float, required=True)
        c.add_argument("--tol", type=float, default=None, help=f"default {budget!r}")
        c.set_defaults(func=_cmd_check)

    # no abbreviated flags: a stray --t would otherwise pass for --to
    p_tab = sub.add_parser(
        "table", help="sweep one flag of an op into CSV or JSON", allow_abbrev=False
    )
    p_tab.add_argument("--op", required=True)
    p_tab.add_argument("--sweep", required=True)
    p_tab.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_tab.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_tab.add_argument("--step", type=float, required=True)
    p_tab.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_op_flags(p_tab, _TABLE_OPS)
    p_tab.set_defaults(func=_cmd_table)

    p_con = sub.add_parser("construct", help="render the rectification figure as SVG")
    p_con.add_argument("--m", type=float, required=True)
    p_con.add_argument("--n", type=float, required=True)
    p_con.add_argument("--t", type=float, required=True)
    p_con.add_argument("--out", required=True)
    p_con.set_defaults(func=_cmd_construct)

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
