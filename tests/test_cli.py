"""End-to-end CLI coverage: verbs, formats, exit codes."""

import json
import math

import pytest

from conicrect.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAgmVerb:
    def test_json_iterates(self, capsys):
        code, out = run(capsys, "agm", "--p", "1", "--q", "0.8", "--tol", "1e-15", "--json")
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


@pytest.mark.parametrize(
    "argv",
    [
        ["lemniscate", "--radius", "nan"],
        ["lemniscate", "--radius", "inf"],
        ["agm", "--p", "nan", "--q", "1"],
        ["agm", "--p", "1", "--q", "inf"],
    ],
)
def test_non_finite_input_is_a_domain_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("domain error:")
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-verb"]) == 2
