"""Command-line interface: documented examples, formats, exit codes."""

import json
from pathlib import Path

import pytest

from steinbounds.catalog import make_spec
from steinbounds.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCoeffs:
    def test_vg_symmetric_first_derivative(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--family", "vg", "--r", "3", "--theta", "0",
            "--sigma", "1", "--n", "1", "--mode", "lemma23ii",
        )
        assert code == 0
        assert out.strip() == "||h~||: 0.6666666667"

    def test_json_document_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--family", "normal", "--n", "2",
            "--mode", "lemma23i", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "normal"
        assert doc["n"] == 2
        assert doc["mode"] == "lemma23i"
        rows = doc["coefficients"]
        assert [r["symbol"] for r in rows] == ["h~", "h1", "h2"]
        assert rows[0]["centered"] is True
        assert rows[0]["order"] == 0
        assert rows[1]["order"] == 1

    def test_json_byte_identical(self, capsys):
        args = ("coeffs", "--family", "quartic", "--n", "3", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--family", "prr", "--s", "1", "--n", "2",
            "--mode", "lemma24i", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,param_string,n,mode,symbol,value"
        assert lines[1].startswith("prr,s=1,2,lemma24i,h,")


class TestBound:
    def test_normal_order_two_total(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--family", "normal", "--n", "2",
            "--norms", "h~=1,h1=1,h2=1", "--mode", "lemma23i",
        )
        assert code == 0
        assert out.splitlines()[0] == "bound = 8.332309277"

    def test_missing_norm_slot_is_validity_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--family", "normal", "--n", "2",
            "--norms", "h~=1,h1=1", "--mode", "lemma23i",
        )
        assert code == 2
        assert "h^(2)" in err


class TestExitCodes:
    def test_parse_error_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--family", "cauchy", "--n", "1"])
        assert exc.value.code == 1

    def test_parse_error_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--family", "gamma", "--r", "2", "--n", "1")
        assert code == 1  # lam missing

    def test_validity_window_violation(self, capsys):
        code, _, err = run_cli(
            capsys, "coeffs", "--family", "inverse_gamma", "--alpha", "9",
            "--beta", "2", "--n", "4",
        )
        assert code == 2
        assert "window" in err

    def test_unsupported_mode_for_family(self, capsys):
        code, _, err = run_cli(
            capsys, "coeffs", "--family", "normal", "--n", "1", "--mode", "lemma24i",
        )
        assert code == 2

    def test_lipschitz_chain_below_first_order(self, capsys):
        code, _, err = run_cli(
            capsys, "coeffs", "--family", "beta", "--alpha", "2", "--beta", "3",
            "--n", "0", "--mode", "lemma23iii",
        )
        assert code == 2
        assert "order 1" in err

    def test_quantile_without_a_bracket_is_numeric_error(self, capsys):
        # student_t with d = 0.5 has tails so heavy that its numeric CDF
        # stays below 1 - 1e-8 out to 1e12, so the grid has no right edge
        code, _, err = run_cli(
            capsys, "verify", "--family", "student_t", "--d", "0.5", "--delta", "1", "--n", "0",
        )
        assert code == 4
        assert "no right bracket" in err

    def test_nan_residual_is_numeric_error(self, capsys):
        # the I-kernel exponential of this skewed vg overflows on the left
        # tail, so the solve is NaN there: that is a numeric failure, not
        # a verdict
        with pytest.warns(RuntimeWarning):
            code, out, err = run_cli(
                capsys, "verify", "--family", "vg", "--r", "3.33489", "--theta", "-1.41193",
                "--sigma", "0.516807", "--n", "0", "--test", "sine:1",
            )
        assert code == 4
        assert "residual nan" in err
        assert out == ""

    def test_symmetric_vg_mixed_chain_beyond_base_bounds(self, capsys):
        vg = ("coeffs", "--family", "vg", "--r", "3", "--theta", "0", "--sigma", "1", "--mode", "lemma25")
        for n in ("0", "1"):
            assert run_cli(capsys, *vg, "--n", n)[0] == 0
        code, _, err = run_cli(capsys, *vg, "--n", "2")
        assert code == 2
        assert "window" in err


    def test_verify_family_without_solver(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "mvn", "--dim", "2", "--n", "1")
        assert code == 2
        assert "no 1-D solver support" in err
        assert "Traceback" not in err

    def test_verify_unpriceable_bounds(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "prr", "--s", "0.5", "--n", "1")
        assert code == 2
        assert "symbolic" in err
        code, _, err = run_cli(capsys, "verify", "--family", "normal", "--n", "1", "--test", "probe:x")
        assert code == 1
        assert "unbounded" in err


class TestCatalogCommand:
    def test_quartic_contains_normalizer(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--family", "quartic")
        assert code == 0
        doc = json.loads(out)
        assert doc["c1"] == pytest.approx(0.2963832180, rel=1e-9)

    def test_full_catalog_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        docs = json.loads(out)
        assert {d["family"] for d in docs} >= {"normal", "vg", "quartic", "mvn"}

    def test_full_catalog_golden(self, capsys):
        # byte-for-byte the listing of the eleven default catalog specs
        golden = Path(__file__).parent / "golden" / "catalog.json"
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        assert out == golden.read_text()
        assert make_spec("student_t", d=9.0, delta=3.0).propagation_cap() == 5
        assert make_spec("inverse_gamma", alpha=9.0, beta=2.0).propagation_cap() == 3


class TestSweepCommand:
    def test_full_sweep_golden(self, capsys):
        # byte-for-byte the default 11-spec x 3-test-function x orders 0-4 table
        golden = Path(__file__).parent / "golden" / "sweep.json"
        code, out, _ = run_cli(capsys, "sweep", "--format", "json")
        assert code == 0
        assert out == golden.read_text()


class TestVerifyCommand:
    def test_normal_verify_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "normal", "--n", "1", "--test", "sine:1",
        )
        assert code == 0
        assert "pass=True" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--family", "normal", "--n", "1",
            "--test", "sine:1", "--format", "json", "--output", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload[0]["pass"] is True


CLI_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_output_is_byte_identical_to_golden(capsys, command):
    # coeffs, bound and verify in every format, and three catalog entries;
    # the mvn cases pin that the integer dim prints as 2.0 in a coeffs
    # document and as 2 in the catalog
    code, out, _ = run_cli(capsys, *command.split())
    assert (code, out) == (CLI_GOLDEN[command]["exit"], CLI_GOLDEN[command]["stdout"])
