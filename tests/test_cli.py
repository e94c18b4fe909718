"""End-to-end CLI coverage: verbs, formats, exit codes."""

import json
import math

import pytest

from conicrect import DomainError
from conicrect.cli import COMMANDS, _MAX_ROWS, _TABLE_OPS, _sweep_values, main


SWEEP = ["--from", "0.1", "--to", "0.5", "--step", "0.2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAgmVerb:
    def test_json_iterates(self, capsys):
        code, out = run(capsys, "agm", "--p", "1", "--q", "0.8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        p3, q3 = payload["values"]["iterates"][3]
        assert abs(p3 - q3) < 1e-11

    def test_json_round_trip_bit_exact(self, capsys):
        _, out = run(capsys, "agm", "--p", "1", "--q", "0.8", "--json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload
        assert payload["values"]["limit"] == 0.8972114321150411

    def test_json_bytes(self, capsys):
        # schema 1 keeps "residual": null, though no command reports one
        _, out = run(capsys, "agm", "--p", "2", "--q", "2", "--json")
        assert out == (
            '{"flags": [], "inputs": {"p": 2.0, "q": 2.0}, "iterations": 0, "op": "agm", '
            '"residual": null, "schema_version": 1, "values": {"iterates": [[2.0, 2.0]], "limit": 2.0}}\n'
        )

    def test_plain(self, capsys):
        code, out = run(capsys, "agm", "--p", "2", "--q", "2")
        assert code == 0
        assert "limit = 2.0" in out

    def test_swap_flagged(self, capsys):
        _, out = run(capsys, "agm", "--p", "0.8", "--q", "1", "--json")
        assert "inputs-swapped" in json.loads(out)["flags"]


class TestEllintVerb:
    def test_k_zero(self, capsys):
        code, out = run(capsys, "ellint", "K", "--k", "0")
        assert code == 0
        assert "1.5707963267948966" in out

    def test_incomplete_requires_phi(self, capsys):
        code, _ = run(capsys, "ellint", "F", "--k", "0.5")
        assert code == 2

    def test_domain_error_exit(self, capsys):
        code, _ = run(capsys, "ellint", "K", "--k", "1.5")
        assert code == 2

    def test_einc(self, capsys):
        code, out = run(capsys, "ellint", "Einc", "--k", "0.5", "--phi", "0.7", "--json")
        assert code == 0
        assert json.loads(out)["values"]["value"] == pytest.approx(0.686, abs=1e-3)


class TestExcessVerb:
    def test_closed_ab(self, capsys):
        code, out = run(capsys, "excess", "closed", "--a", "1", "--b", "1", "--json")
        assert code == 0
        assert json.loads(out)["values"]["value"] == pytest.approx(
            0.5990701173677961, abs=1e-13
        )

    def test_landen_mn_equals_closed_ab(self, capsys):
        _, out1 = run(capsys, "excess", "landen", "--m", "2", "--n", "1", "--json")
        _, out2 = run(
            capsys, "excess", "closed", "--a", "1", "--b", repr(2.0 * math.sqrt(2.0)), "--json"
        )
        v1 = json.loads(out1)["values"]["value"]
        v2 = json.loads(out2)["values"]["value"]
        assert abs(v1 - v2) < 1e-10

    def test_requires_one_parameterization(self, capsys):
        code, _ = run(capsys, "excess", "closed", "--a", "1")
        assert code == 2
        code, _ = run(capsys, "excess", "closed", "--a", "1", "--b", "1", "--m", "2", "--n", "1")
        assert code == 2

    def test_finite_needs_p(self, capsys):
        code, _ = run(capsys, "excess", "finite", "--a", "1", "--b", "1")
        assert code == 2


class TestCheckVerb:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "gleichung", "--phi", "1.0", "--k", "0.6"),
            ("check", "borwein", "--k", "0.5"),
            ("check", "agm-invariance", "--x", "0.5", "--p", "1", "--q", "0.5"),
            ("check", "landen-theorem", "--m", "2", "--n", "1", "--t", "0.5"),
            ("check", "fagnano", "--m", "2", "--n", "1", "--t", "0.5"),
        ],
    )
    def test_default_tolerances_pass(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert "PASS" in out

    def test_exit_matches_threshold(self, capsys):
        code, out = run(capsys, "check", "borwein", "--k", "0.5", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_domain_exit(self, capsys):
        code, _ = run(capsys, "check", "fagnano", "--m", "1", "--n", "2", "--t", "0.1")
        assert code == 2


class TestLemniscateVerb:
    def test_values(self, capsys):
        code, out = run(capsys, "lemniscate", "--radius", "1", "--json")
        assert code == 0
        values = json.loads(out)["values"]
        assert values["quarter_arc"] == pytest.approx(1.3110287771460599, abs=1e-12)
        assert values["full_arc"] == pytest.approx(4.0 * values["quarter_arc"], abs=1e-12)
        assert values["gauss_constant"] == pytest.approx(0.8346268416740732, abs=1e-13)


class TestTableVerb:
    def test_csv_sorted_deterministic(self, capsys):
        argv = (
            "table", "--op", "ellint-K", "--sweep", "k",
            "--from", "0.1", "--to", "0.9", "--step", "0.2", "--format", "csv",
        )
        code, out1 = run(capsys, *argv)
        assert code == 0
        _, out2 = run(capsys, *argv)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "k,value"
        ks = [float(line.split(",")[0]) for line in lines[1:]]
        assert ks == sorted(ks)
        assert len(ks) == 5

    def test_csv_fixed_params_in_header(self, capsys):
        code, out = run(
            capsys,
            "table", "--op", "excess-closed", "--sweep", "a",
            "--from", "0.5", "--to", "1.0", "--step", "0.5", "--b", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "a,b,value"

    def test_json_format(self, capsys):
        code, out = run(
            capsys,
            "table", "--op", "lemniscate", "--sweep", "radius",
            "--from", "1", "--to", "2", "--step", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 2
        assert payload["rows"][1]["quarter_arc"] == pytest.approx(
            2.0 * payload["rows"][0]["quarter_arc"], rel=1e-14
        )

    def test_unknown_op(self, capsys):
        code, _ = run(
            capsys,
            "table", "--op", "nope", "--sweep", "k",
            "--from", "0", "--to", "1", "--step", "0.5",
        )
        assert code == 2

    def test_missing_fixed_param(self, capsys):
        code, _ = run(
            capsys,
            "table", "--op", "excess-closed", "--sweep", "a",
            "--from", "0.5", "--to", "1.0", "--step", "0.5",
        )
        assert code == 2


class TestConstructVerb:
    def test_writes_svg(self, capsys, tmp_path):
        out_path = tmp_path / "figure.svg"
        code, out = run(
            capsys, "construct", "--m", "2", "--n", "1", "--t", "0.5", "--out", str(out_path)
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<?xml")
        assert 'id="pt-F"' in text

    def test_degenerate_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "figure.svg"
        code, _ = run(
            capsys, "construct", "--m", "2", "--n", "1", "--t", "1.0", "--out", str(out_path)
        )
        assert code == 2
        assert not out_path.exists()

    def test_underflowing_n_squared_is_a_domain_error(self, capsys, tmp_path):
        # n^2 underflows to 0: the normal y/n^2 was a ZeroDivisionError traceback
        out_path = tmp_path / "figure.svg"
        code = main([
            "construct", "--m", "8.895287952202664e+44", "--n", "1.213308943571832e-277",
            "--t", "6.047961620343681e+44", "--out", str(out_path),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error: n^2") and captured.out == ""
        assert not out_path.exists()

    def test_subnormal_a_squared_still_validates(self, capsys, tmp_path):
        # a = m - n = 1e-155, so a^2 is subnormal and (x/a^2)^2 overflowed in the
        # check of F's pedal distance: an OverflowError traceback
        out_path = tmp_path / "figure.svg"
        code, _ = run(
            capsys, "construct", "--m", "1.6e-154", "--n", "1.5e-154", "--t", "5e-156", "--out", str(out_path)
        )
        assert code == 0
        assert 'id="pt-F"' in out_path.read_text()


# one point for each command that both a verb and ``table`` reach
TABLED_VERBS = [
    ("agm", {"p": "1.5", "q": "0.3"}),
    ("ellint-K", {"k": "0.7"}),
    ("ellint-E", {"k": "0.7"}),
    ("ellint-F", {"k": "0.7", "phi": "0.9"}),
    ("ellint-Einc", {"k": "0.7", "phi": "0.9"}),
    ("excess-closed", {"a": "1", "b": "2.5"}),
    ("excess-landen", {"m": "0.5520621297032798", "n": "0.20963619791418595"}),
    ("excess-finite", {"a": "1", "b": "2.5", "p": "0.3"}),
    ("lemniscate", {"radius": "1.7"}),
]


class TestOneRegistry:
    def test_every_tabled_verb_is_compared(self):
        # no verb reaches tangent-length
        assert [op for op, _ in TABLED_VERBS] == [op for op in _TABLE_OPS if op != "tangent-length"]
        assert set(COMMANDS) - set(_TABLE_OPS) == {
            "excess-series", "construct", *(op for op in COMMANDS if op.startswith("check-"))
        }

    @pytest.mark.parametrize("op, point", TABLED_VERBS)
    def test_verb_and_table_agree_bit_for_bit(self, capsys, op, point):
        flags = [token for name, value in point.items() for token in (f"--{name}", value)]
        _, out = run(capsys, *op.split("-"), *flags, "--json")
        payload = json.loads(out)
        from_verb = {name: x for name, x in payload["values"].items() if isinstance(x, float)}
        if payload["iterations"] is not None:
            from_verb["iterations"] = float(payload["iterations"])
        sweep, at = flags[0][2:], flags[1]
        _, out = run(
            capsys,
            "table", "--op", op, "--sweep", sweep, "--from", at, "--to", at, "--step", "1",
            *flags[2:], "--format", "json",
        )
        [row] = json.loads(out)["rows"]
        from_table = {name: x for name, x in row.items() if name not in point}
        assert from_table
        assert {name: repr(x) for name, x in from_table.items()} == {
            name: repr(x) for name, x in from_verb.items()
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--op", "ellint-K", "--sweep", "k", *SWEEP, "--b", "3"],
            ["table", "--op", "ellint-K", "--sweep", "k", *SWEEP, "--k", "0.3"],
            ["table", "--op", "ellint-K", "--sweep", "k", *SWEEP, "--t", "0.3"],
            ["table", "--op", "excess-series", "--sweep", "a", *SWEEP, "--b", "1"],
            ["ellint", "K", "--k", "0.5", "--phi", "0.3"],
            ["excess", "closed", "--a", "1", "--b", "2", "--p", "0.1"],
            ["excess", "landen", "--m", "2", "--n", "1", "--terms", "2"],
            ["excess", "closed", "--a", "1", "--b", "2", "--m", "2"],
            ["check", "borwein", "--k", "0.5", "--m", "2"],
            ["check", "fagnano", "--m", "2", "--n", "1", "--t", "0.5", "--k", "1"],
        ],
    )
    def test_flag_the_op_does_not_take_is_rejected(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["agm"], "agm requires --p"),
            (["agm", "--p", "1"], "agm requires --q"),
            (["check", "gleichung", "--k", "0.6"], "check-gleichung requires --phi"),
            (["construct", "--m", "2", "--n", "1", "--t", "0.5"], "construct requires --out"),
        ],
    )
    def test_missing_flag_is_one_domain_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"domain error: {message}\n" and captured.out == ""

    def test_check_help_lists_every_check_flag(self, capsys):
        assert main(["check", "--help"]) == 0
        out = capsys.readouterr().out
        params = {name for op, (names, _) in COMMANDS.items() if op.startswith("check-") for name in names}
        assert params == {"phi", "k", "x", "p", "q", "m", "n", "t", "tol"}
        assert all(f"--{name} " in out for name in params)

    def test_series_terms_default_is_shown(self, capsys):
        code, out = run(capsys, "excess", "series", "--a", "0.1", "--b", "1")
        assert code == 0
        assert out.startswith("excess-series(a=0.1, b=1.0, terms=3) value = ")


# One valid argv per verb form; every float flag of each is made non-finite below.
VERB_FORMS = [
    ["agm", "--p", "1", "--q", "0.8"],
    ["ellint", "K", "--k", "0.5"],
    ["ellint", "E", "--k", "0.5"],
    ["ellint", "F", "--k", "0.5", "--phi", "0.7"],
    ["ellint", "Einc", "--k", "0.5", "--phi", "0.7"],
    ["excess", "closed", "--a", "1", "--b", "2"],
    ["excess", "closed", "--m", "2", "--n", "1"],
    ["excess", "series", "--a", "0.1", "--b", "1", "--terms", "2"],
    ["excess", "landen", "--m", "2", "--n", "1"],
    ["excess", "landen", "--a", "1", "--b", "2"],
    ["excess", "finite", "--a", "1", "--b", "2", "--p", "0.5"],
    ["check", "gleichung", "--phi", "1.0", "--k", "0.6", "--tol", "1e-12"],
    ["check", "borwein", "--k", "0.5", "--tol", "1e-12"],
    ["check", "agm-invariance", "--x", "0.5", "--p", "1", "--q", "0.5", "--tol", "1e-10"],
    ["check", "landen-theorem", "--m", "2", "--n", "1", "--t", "0.5", "--tol", "1e-9"],
    ["check", "fagnano", "--m", "2", "--n", "1", "--t", "0.5", "--tol", "1e-9"],
    ["lemniscate", "--radius", "1"],
    ["table", "--op", "agm", "--sweep", "p", *SWEEP, "--q", "0.05"],
    ["table", "--op", "ellint-K", "--sweep", "k", *SWEEP],
    ["table", "--op", "ellint-E", "--sweep", "k", *SWEEP],
    ["table", "--op", "ellint-F", "--sweep", "phi", *SWEEP, "--k", "0.5"],
    ["table", "--op", "ellint-Einc", "--sweep", "k", *SWEEP, "--phi", "0.7"],
    ["table", "--op", "excess-closed", "--sweep", "a", *SWEEP, "--b", "1"],
    ["table", "--op", "excess-landen", "--sweep", "m", *SWEEP, "--n", "0.05"],
    ["table", "--op", "excess-finite", "--sweep", "p", *SWEEP, "--a", "1", "--b", "2"],
    ["table", "--op", "tangent-length", "--sweep", "x", *SWEEP, "--m", "2", "--n", "1"],
    ["table", "--op", "lemniscate", "--sweep", "radius", *SWEEP],
    ["construct", "--m", "2", "--n", "1", "--t", "0.5", "--out", "{out}"],
    # p * p underflows at this pedal distance
    ["excess", "finite", "--a", "1", "--b", "2", "--p", "1e-200"],
    ["excess", "finite", "--m", "2", "--n", "1", "--p", "1e-200"],
    ["table", "--op", "excess-finite", "--sweep", "b", *SWEEP, "--a", "1", "--p", "1e-200"],
]


def _is_float_flag(flag: str, value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return flag.startswith("--") and flag != "--terms"


# ``--flag=value``, since argparse reads a separate ``-inf`` as an unknown flag
NON_FINITE = [
    [*form[:i], f"{form[i]}={bad}", *form[i + 2 :]]
    for form in VERB_FORMS
    for i in range(len(form) - 1)
    if _is_float_flag(form[i], form[i + 1])
    for bad in ("nan", "inf", "-inf")
]


@pytest.mark.parametrize("argv", VERB_FORMS)
def test_verb_forms_run(capsys, tmp_path, argv):
    out = tmp_path / "figure.svg"
    assert main([str(out) if a == "{out}" else a for a in argv]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["lemniscate", "--radius", "nan"],
        ["lemniscate", "--radius", "inf"],
        ["agm", "--p", "nan", "--q", "1"],
        ["agm", "--p", "1", "--q", "inf"],
        *NON_FINITE,
    ],
)
def test_non_finite_input_is_a_domain_error(capsys, tmp_path, argv):
    out = tmp_path / "figure.svg"
    code = main([str(out) if a == "{out}" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("domain error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert main(["no-such-verb"]) == 2
    assert main(["agm", "--p", "1", "--q", "0.8", "--tol", "1e-15"]) == 2  # agm takes no tolerance


@pytest.mark.parametrize(
    "argv",
    [
        # (a/b)^2 overflows; the prefactor pi a^2 / 2b overflows
        ["excess", "series", "--a", "3e-42", "--b", "2e-290", "--terms", "2"],
        ["excess", "series", "--a", "1.7e308", "--b", "1e300", "--terms", "2"],
    ],
)
def test_overflowing_series_is_a_domain_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("domain error:") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # c K overflows where k^2/2 - tail underflows: the value was nan
        ["excess", "closed", "--a", "7.45e-122", "--b", "1.7e308"],
        # the inner ellipse's a^2 underflows: a ZeroDivisionError traceback
        ["check", "landen-theorem", "--m", "1e-300", "--n", "5e-301", "--t", "1e-301"],
        ["check", "fagnano", "--m", "1e-300", "--n", "5e-301", "--t", "1e-301"],
        # a^2 is subnormal: g was 0.0, and the check printed a wrong PASS
        ["check", "fagnano", "--m", "1.6e-161", "--n", "5e-162", "--t", "4e-162"],
        # a^2 overflows: g was 0.0, and a ZeroDivisionError traceback followed
        ["check", "fagnano", "--m", "1e+160", "--n", "9.999999999992951e+159", "--t", "4.73225274578919e+147"],
        [
            "check", "landen-theorem", "--m", "3.020504872450423e+154",
            "--n", "3.0205048724504216e+154", "--t", "4.379211765587606e-115",
        ],
    ],
)
def test_unrepresentable_intermediate_is_a_domain_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("domain error:") and captured.out == ""


def test_tangent_length_table_reaches_the_major_vertex(capsys):
    # g rounds to 1 at n/m = 1e-9, so the length at x = a was 0/0, a traceback
    argv = "table --op tangent-length --sweep x --from 0 --to 1 --step 0.5 --m 1 --n 1e-9".split()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "1.0,1.0,1e-09,0.0"


@pytest.mark.parametrize(
    "bounds",
    [
        # the row count overflowed: an OverflowError traceback
        ["--from=-1e308", "--to=1e308", "--step=1"],
        # 9e11 rows, built until the process was killed
        ["--from", "0", "--to", "0.9", "--step", "1e-12"],
    ],
)
def test_oversized_sweep_is_one_domain_error_line(capsys, bounds):
    assert main(["table", "--op", "ellint-K", "--sweep", "k", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error:") and captured.err.count("\n") == 1


def test_sweep_row_cap_is_exact():
    assert len(_sweep_values(0.0, _MAX_ROWS - 1.0, 1.0)) == _MAX_ROWS
    with pytest.raises(DomainError, match="more than 100000 rows"):
        _sweep_values(0.0, float(_MAX_ROWS), 1.0)
