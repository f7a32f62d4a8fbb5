"""Command-line interface: documented examples, formats, exit codes."""

import csv
import io
import json
import warnings
from pathlib import Path

import pytest

from steinbounds.catalog import DEFAULT_SPECS, make_spec
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

    def test_bound_is_the_coefficient_document_plus_its_value(self, capsys):
        case = ("--family", "vg", "--r", "3", "--theta", "0.5", "--sigma", "1", "--n", "3")
        norms = ("--norms", "h~=1.5,h1=0.25,h2=2")
        _, coeffs, _ = run_cli(capsys, "coeffs", *case, "--format", "json")
        _, bound, _ = run_cli(capsys, "bound", *case, *norms, "--format", "json")
        doc = json.loads(bound)
        assert doc.pop("bound") == pytest.approx(65.61944115)
        assert doc == json.loads(coeffs)
        _, coeffs, _ = run_cli(capsys, "coeffs", *case, "--format", "csv")
        _, bound, _ = run_cli(capsys, "bound", *case, *norms, "--format", "csv")
        coeff_rows, bound_rows = ([row for row in out.splitlines() if row] for out in (coeffs, bound))
        assert bound_rows[:-1] == coeff_rows
        assert bound_rows[-1] == 'vg,"r=3,theta=0.5,sigma=1",3,lemma25,bound,65.61944115'

    @pytest.mark.parametrize("norms,message", [
        ("h~=-1", "'h~=-1' must be finite and >= 0"),
        ("h~=nan", "'h~=nan' must be finite and >= 0"),
        ("h~=inf", "'h~=inf' must be finite and >= 0"),
        ("h~=1,h~=2", "slot 'h~' is given twice"),
    ])
    def test_bad_norm_value_is_validity_error(self, capsys, norms, message):
        # each printed a bound and exited 0 (h~=1,h~=2 kept the last value)
        code, out, err = run_cli(capsys, "bound", "--family", "normal", "--n", "1", "--norms", norms)
        assert (code, out) == (2, "")
        assert message in err


class TestExitCodes:
    @pytest.mark.parametrize("command", ["", "coeffs", "bound", "verify", "sweep", "catalog", "selftest"])
    def test_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: steinbounds {command}".rstrip())

    def test_parse_error_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--family", "cauchy", "--n", "1"])
        assert exc.value.code == 1

    def test_parse_error_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--family", "gamma", "--r", "2", "--n", "1")
        assert code == 1  # lam missing

    @pytest.mark.parametrize("norms", ["1,nan", "nan,1"])
    def test_non_finite_row_norm_is_parse_error(self, capsys, norms):
        # max() skipped a NaN after the first entry, and the call printed a bound
        code, out, err = run_cli(
            capsys, "coeffs", "--family", "mvn", "--dim", "2", "--row-norms", norms, "--n", "1", "--mode", "first"
        )
        assert (code, out) == (1, "")
        assert "row_norms must be finite" in err

    @pytest.mark.parametrize("args,message", [
        (("bound", "--family", "normal", "--n", "1", "--norms", "h~=abc"),
         "norm entry 'h~=abc': value 'abc' is not a number"),
        (("coeffs", "--family", "mvn", "--dim", "2", "--row-norms", "1,abc", "--n", "1", "--mode", "first"),
         "--row-norms entry 'abc' is not a number"),
    ])
    def test_non_numeric_entry_is_parse_error(self, capsys, args, message):
        # each printed float()'s bare "could not convert string to float: 'abc'"
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert message in err

    def test_non_integral_dim_is_parse_error(self, capsys):
        # dim 2.5 built a dim-2 spec, and the call printed a bound
        code, out, err = run_cli(capsys, "coeffs", "--family", "mvn", "--dim", "2.5", "--n", "1", "--mode", "first")
        assert (code, out) == (1, "")
        assert "integral dim" in err
        code, out, _ = run_cli(capsys, "coeffs", "--family", "mvn", "--dim", "2", "--n", "1", "--mode", "first")
        assert code == 0 and out

    @pytest.mark.parametrize("family,args,name", [
        ("gamma", ["--r", "nan", "--lam", "1"], "r"),
        ("student_t", ["--d", "nan", "--delta", "1"], "d"),
        ("vg", ["--r", "3", "--theta", "inf", "--sigma", "1"], "theta"),
    ])
    def test_non_finite_parameter_is_parse_error(self, capsys, family, args, name):
        code, out, err = run_cli(capsys, "coeffs", "--family", family, *args, "--n", "1")
        assert (code, out) == (1, "")
        assert f"{family} parameter {name} must be finite" in err

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

    def test_quantile_beyond_the_grid_limit_is_numeric_error(self, capsys):
        # student_t with d = 0.5 has tails so heavy that its 1 - 1e-8
        # quantile lies beyond 1e12, so no grid can cover the law
        code, _, err = run_cli(
            capsys, "verify", "--family", "student_t", "--d", "0.5", "--delta", "1", "--n", "0",
        )
        assert code == 4
        assert "lies beyond +-1e+12" in err

    def test_overflowing_vg_kernel_is_numeric_error(self, capsys):
        # the I-kernel exponential of this skewed vg overflows on the left
        # tail: the solve stops with a typed error naming the overflow
        # before any integral runs, and without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "verify", "--family", "vg", "--r", "3.33489", "--theta", "-1.41193",
                "--sigma", "0.516807", "--n", "0", "--test", "sine:1",
            )
        assert code == 4
        assert "vg I-kernel factor overflows" in err
        assert out == ""

    def test_unresolved_test_function_is_numeric_error(self, capsys):
        # sin(1e4 x) turns about once per panel of the normal grid, so the
        # panels' error estimate reads 14.6 relative; the cell printed
        # pass=True and exited 0
        code, out, err = run_cli(capsys, "verify", "--family", "normal", "--n", "1", "--test", "sine:1e4")
        assert code == 4
        assert "panel quadrature error estimate 1.46e+01" in err
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
        assert "unknown test function" in err


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

    def test_listing_is_the_default_specs_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        assert [(d["family"], d["params"]) for d in json.loads(out)] == list(DEFAULT_SPECS)

    def test_full_catalog_golden(self, capsys):
        # byte-for-byte the listing of the twelve default catalog specs
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


    def test_negative_max_order_is_validity_error(self, capsys):
        # printed nothing and exited 0, where verify --n -1 exits 2
        code, out, err = run_cli(capsys, "sweep", "--families", "normal", "--max-order", "-1")
        assert (code, out) == (2, "")
        assert "derivative order must be >= 0" in err
        assert run_cli(capsys, "verify", "--family", "normal", "--n", "-1")[:2] == (2, "")

    def test_family_without_solver_is_not_swept(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--families", "mvn")
        assert code == 2
        assert "not in the default sweep" in err

    def test_a_repeated_test_function_gives_its_rows_once(self, capsys):
        # sine:1 and sine:1.0 are one test function, whose row printed twice
        code, out, _ = run_cli(capsys, "sweep", "--families", "normal", "--tests", "sine:1,sine:1.0", "--max-order", "0")
        assert code == 0
        assert len(out.splitlines()) == 1 and "sine:1" in out


class TestVerifyCommand:
    def test_normal_verify_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "normal", "--n", "1", "--test", "sine:1",
        )
        assert code == 0
        assert "pass=True" in out

    def test_negative_frequency_has_the_norms_of_the_positive_one(self, capsys):
        # sin(-x) has the derivative norms of sin(x); a norm of (-1)^j made
        # the bound 2.04912397
        case = ("verify", "--family", "normal", "--n", "2", "--mode", "lemma23i", "--test")
        lines = [run_cli(capsys, *case, test)[1] for test in ("sine:-1", "sine:1")]
        assert [line.split()[3] for line in lines] == ["bound=8.332309277"] * 2

    @pytest.mark.parametrize("test", ["sine:nan", "sine:inf", "cosine:-inf"])
    def test_non_finite_frequency_is_parse_error(self, capsys, test):
        # exited 4 from the propagation step, with a RuntimeWarning for inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "--family", "normal", "--n", "1", "--test", test)
        assert (code, out) == (1, "")
        assert "frequency must be finite" in err

    @pytest.mark.parametrize("test", ["sine:abc", "cosine:1,5"])
    def test_non_numeric_frequency_is_parse_error(self, capsys, test):
        # printed float()'s bare "could not convert string to float"
        code, out, err = run_cli(capsys, "verify", "--family", "normal", "--n", "1", "--test", test)
        assert (code, out) == (1, "")
        assert f"test function {test!r}: frequency {test.partition(':')[2]!r} is not a number" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--family", "normal", "--n", "1",
            "--test", "sine:1", "--format", "json", "--output", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload[0]["pass"] is True


@pytest.mark.parametrize("command", ["coeffs", "verify"])
def test_stdout_is_the_output_file(capsys, tmp_path, command):
    # CSV text ends in a newline, and stdout added a second one
    args = [command, "--family", "normal", "--n", "1", "--format", "csv"]
    path = tmp_path / "out.csv"
    _, out, _ = run_cli(capsys, *args)
    run_cli(capsys, *args, "--output", str(path))
    assert out == path.read_text()
    assert out.endswith("\n") and not out.endswith("\n\n")


@pytest.mark.parametrize("args", [
    ("coeffs", "--family", "normal", "--n", "2"),
    ("sweep", "--families", "normal", "--max-order", "0", "--tests", "sine:1"),
], ids=lambda args: args[0])
def test_unwritable_output_is_parse_error(capsys, tmp_path, args):
    # each ended in a FileNotFoundError traceback, sweep after computing its table
    path = tmp_path / "no" / "such" / "out"
    code, out, err = run_cli(capsys, *args, "--output", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write --output {path}: No such file or directory\n"


CLI_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_output_is_byte_identical_to_golden(capsys, command):
    # coeffs, bound and verify in every format, and three catalog entries;
    # the mvn cases pin that the integer dim prints as 2.0 in a coeffs
    # document and as 2 in the catalog
    code, out, _ = run_cli(capsys, *command.split())
    assert (code, out) == (CLI_GOLDEN[command]["exit"], CLI_GOLDEN[command]["stdout"])


def test_csv_rows_are_as_wide_as_their_header():
    for command, entry in CLI_GOLDEN.items():
        if "--format csv" in command:
            rows = [row for row in csv.reader(io.StringIO(entry["stdout"])) if row]
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), command
