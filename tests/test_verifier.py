"""Verifier: bound-vs-empirical reports, sweeps, analytic inequality grids."""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steinbounds import catalog as cat
from steinbounds import solver as sv
from steinbounds import verifier as vf
from steinbounds.closedform import bound_for
from steinbounds.engine import coefficients
from steinbounds.errors import ValidityError
from steinbounds.solver import CosineTest, PolyProbe, SineTest


def count_calls(monkeypatch, fn) -> list:
    """Record every call of fn made through any module-level reference in
    the catalog, solver and verifier modules."""
    calls = []

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (cat, sv, vf):
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, counted)
    return calls


class TestVerify:
    def test_normal_second_derivative_literature_bound(self):
        spec = cat.make_spec("normal")
        rep = vf.verify(spec, 2, SineTest(1.0), mode="two-prev")
        assert rep.bound_value == pytest.approx(2.0, rel=1e-12)
        assert rep.empirical_sup <= 2.0
        assert rep.passed

    def test_gamma_onestep_bound_value(self):
        spec = cat.make_spec("gamma", r=2.0, lam=1.0)
        rep = vf.verify(spec, 1, SineTest(1.0), mode="onestep")
        assert rep.bound_value == pytest.approx(2.9756350997315063, rel=1e-10)
        assert rep.passed

    def test_quartic_first_derivative(self):
        spec = cat.make_spec("quartic")
        rep = vf.verify(spec, 1, SineTest(1.0), mode="iterated")
        # symmetric density kills the mean: bound = 2 (1 + |E sin Z|) = 2
        assert rep.bound_value == pytest.approx(2.0, abs=1e-9)
        assert rep.passed

    def test_tightness_telemetry(self):
        spec = cat.make_spec("normal")
        rep = vf.verify(spec, 1, SineTest(1.0))
        assert 0.0 < rep.empirical_sup < rep.bound_value
        assert rep.margin == pytest.approx(rep.bound_value - rep.empirical_sup)

    def test_symbolic_norm_terms_are_rejected(self):
        h = SineTest(1.0)
        leftover = coefficients(**{"f'": 1.0})
        with pytest.raises(ValidityError):
            vf.norms_for(h, leftover, 0.0)

    def test_family_without_solver_is_validity_error(self, monkeypatch):
        spec = cat.make_spec("mvn", dim=2)
        expectations = count_calls(monkeypatch, sv.expectation)
        grids = count_calls(monkeypatch, sv.build_grid)
        for call in (lambda: vf.verify(spec, 1, SineTest(1.0)), lambda: sv.solve(spec, SineTest(1.0))):
            with pytest.raises(ValidityError, match="no 1-D solver support"):
                call()
        assert expectations == [] and grids == []

    def test_unpriceable_bound_raises_before_solving(self, monkeypatch):
        solves = count_calls(monkeypatch, sv.solve)
        # symbolic ||f'|| leftover: prr below s = 1 has no base substitution
        with pytest.raises(ValidityError, match="symbolic"):
            vf.verify(cat.make_spec("prr", s=0.5), 1, SineTest(1.0))
        # polynomial probes have no analytic norms
        with pytest.raises(ValueError, match="unbounded") as exc:
            vf.verify(cat.make_spec("normal"), 1, PolyProbe((0.0, 1.0), "x"))
        assert not isinstance(exc.value, ValidityError)
        assert solves == []

    def test_single_verify_computes_the_mean_once(self, monkeypatch):
        expectations = count_calls(monkeypatch, sv.expectation)
        rep = vf.verify(cat.make_spec("gamma", r=2.0, lam=1.0), 1, SineTest(1.0))
        assert rep.passed
        assert len(expectations) == 1

    def test_verify_reads_the_propagation_residual(self, monkeypatch):
        residuals = count_calls(monkeypatch, sv.residual_norm)
        rep = vf.verify(cat.make_spec("gamma", r=2.0, lam=1.0), 1, SineTest(1.0))
        assert len(residuals) == 1
        assert rep.residual < 1e-5


class TestSweep:
    def test_empty_family_list(self):
        assert vf.sweep(specs=[], orders=range(3)) == []

    def test_window_violation_becomes_report_row(self):
        spec = cat.make_spec("student_t", d=5.0, delta=1.0)
        reports = vf.sweep(specs=[spec], orders=[3], test_fns=[SineTest(1.0)])
        assert len(reports) == 1
        assert reports[0].error is not None
        assert reports[0].passed is None

    def test_small_sweep_passes_and_sorts(self):
        specs = [cat.make_spec("normal"), cat.make_spec("quartic")]
        reports = vf.sweep(specs=specs, orders=range(2), test_fns=[SineTest(1.0)])
        assert all(r.passed for r in reports)
        keys = [(r.family, r.param_string, r.test_fn, r.n) for r in reports]
        assert keys == sorted(keys)


# Fresh-spec cells of perfbench's verify_draws stream (two skewed vg, one
# theta = 0 vg, one prr), whose empirical sups are pinned bit for bit: the
# default sweep golden covers only the default specs.
VERIFY_CELLS = json.loads((Path(__file__).parent / "golden" / "verify_cells.json").read_text())
TEST_FUNCTIONS = {"SineTest": SineTest, "CosineTest": CosineTest}


@pytest.mark.parametrize(
    "cell", VERIFY_CELLS, ids=[f"{i}-{c['family']}-n{c['n']}" for i, c in enumerate(VERIFY_CELLS)]
)
def test_fresh_spec_cells_are_bit_identical_to_golden(cell):
    spec = cat.make_spec(cell["family"], **cell["params"])
    h = TEST_FUNCTIONS[cell["test_fn"]["kind"]](cell["test_fn"]["freq"])
    rep = vf.verify(spec, cell["n"], h)
    assert (rep.empirical_sup.hex(), rep.passed) == (cell["empirical"], cell["pass"])


class TestMeshReuse:
    """A sweep solves every test function of a spec on one mesh; the rows
    must be exactly those of independent verify calls."""

    def test_sweep_rows_equal_fresh_verify(self):
        specs = [
            cat.make_spec("gamma", r=2.0, lam=1.0),
            cat.make_spec("prr", s=1.0),
            cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0),
            cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0),
        ]
        test_fns = [SineTest(2.0), CosineTest(1.0)]
        reports = vf.sweep(specs=specs, orders=range(3), test_fns=test_fns)
        assert len(reports) == 4 * 2 * 3
        by_key = {(s.family, s.param_string()): s for s in specs}
        by_name = {h.name: h for h in test_fns}
        checked = 0
        for rep in reports:
            spec, h = by_key[(rep.family, rep.param_string)], by_name[rep.test_fn]
            if rep.error is not None:
                with pytest.raises(ValidityError) as exc:
                    vf.verify(spec, rep.n, h)
                assert str(exc.value) == rep.error
                continue
            assert rep.as_dict() == vf.verify(spec, rep.n, h).as_dict()
            checked += 1
        assert checked == 22  # prr has no order-0 bound

    def test_mesh_of_another_spec_is_rejected(self):
        spec = cat.make_spec("normal")
        mesh = sv.build_mesh(cat.make_spec("normal"))
        with pytest.raises(ValueError, match="different spec"):
            sv.solve(spec, SineTest(1.0), mesh=mesh)

    def test_one_mesh_per_spec(self, monkeypatch):
        grids = count_calls(monkeypatch, sv.build_grid)
        quantiles = count_calls(monkeypatch, cat.quantile)
        expectations = count_calls(monkeypatch, sv.expectation)
        solves = count_calls(monkeypatch, sv.solve)
        spec = cat.make_spec("gamma", r=2.0, lam=1.0)
        test_fns = [SineTest(1.0), SineTest(2.0), CosineTest(1.0)]
        reports = vf.sweep(specs=[spec], orders=range(3), test_fns=test_fns)
        assert all(r.passed for r in reports)
        # two coverage quantiles for the grid and the median form split
        assert (len(grids), len(quantiles)) == (1, 3)
        assert len(expectations) == len(solves) == 3


class TestOffCatalogParameters:
    """Bound-vs-empirical checks away from the default sweep's parameters
    (singular-density gammas and betas, negative-drift variance-gamma,
    the top of the validated second-order shape range)."""

    @pytest.mark.parametrize(
        "family,params,orders",
        [
            ("gamma", {"r": 0.7, "lam": 2.5}, range(4)),
            ("beta", {"alpha": 0.6, "beta": 1.4}, range(4)),
            ("vg", {"r": 1.5, "theta": -0.4, "sigma": 0.8}, range(4)),
            ("prr", {"s": 20.0}, range(1, 4)),
        ],
    )
    def test_bounds_hold(self, family, params, orders):
        spec = cat.make_spec(family, **params)
        h = SineTest(2.0)
        from steinbounds.solver import propagate_derivatives, solve

        sol = solve(spec, h)
        sol = propagate_derivatives(sol, spec, h, max(max(orders), spec.operator_order))
        for n in orders:
            rep = vf.verify(spec, n, h, solution=sol)
            assert rep.passed, (family, n, rep.margin)


class TestRefinedConstantsAgainstSolves:
    """Every entry of refined_small_case_constants bounds the grid sup of
    its derivative of a solve.  The keys name the bounded derivative: "f",
    "f'" and "f''", and "f_lipschitz", which bounds ||f||.  As a bound on
    ||f'||, f_lipschitz reaches 1.16 on beta(2, 3) at sine:3.  The
    tightest cells are exponential f at lam = 2.5, sine:0.3 (0.986, the
    endpoint value |f(0)| = |E h|) and beta f_lipschitz at sine:0.3
    (0.996)."""

    ORDERS = {"f": 0, "f_lipschitz": 0, "f'": 1, "f''": 2}

    @pytest.mark.parametrize(
        "family,params",
        [
            ("exponential", {"lam": 1.0}),
            ("exponential", {"lam": 2.5}),
            ("beta", {"alpha": 2.0, "beta": 3.0}),
            ("arcsine", {}),
        ],
    )
    def test_every_entry_holds(self, family, params):
        spec = cat.make_spec(family, **params)
        table = cat.refined_small_case_constants(family, **params)
        mesh = sv.build_mesh(spec)
        for h in (SineTest(0.3), SineTest(1.0), SineTest(3.0), CosineTest(1.0)):
            sol = sv.propagate_derivatives(sv.solve(spec, h, mesh=mesh), spec, h, 2)
            for key, coeffs in table.items():
                bound = coeffs.evaluate(vf.norms_for(h, coeffs, sol.diagnostics["mean_value"]))
                sup, _ = sv.empirical_sup(sol, self.ORDERS[key])
                assert sup <= bound, (key, h.name, sup, bound)


class TestSingularPoints:
    """Cells whose integrands are singular or kinked next to the grid:
    QUADPACK meets those points at an interval end, so each verdict rests
    on correctly computed values."""

    def test_gamma_draw_with_singular_lower_edge_passes(self):
        # a cell of perfbench's verify_draws stream (seed 18): integrated
        # from the first grid point, 2.9e-11 short of the x^(r-1)
        # singularity, the first panel came out 4.9e-3 off and the sup
        # read 875.2 against a bound of 655.9
        spec = cat.make_spec("gamma", r=0.457177, lam=0.819184)
        rep = vf.verify(spec, 4, SineTest(1.85027))
        assert rep.passed, (rep.empirical_sup, rep.bound_value)

    @pytest.mark.parametrize(
        "params,n,sup",
        [
            # f''(0), by the endpoint recursion of the level equations
            ({"r": 0.320687, "lam": 1.83895}, 2, 0.150103888521043),
            # the fourth derivative at x = 2.68891519, the root of the
            # fifth: f from its integral representation at 30 digits, its
            # derivatives by the level equations
            ({"r": 0.457, "lam": 0.819}, 4, 0.148276267153168),
        ],
    )
    def test_gamma_sups_match_the_mpmath_values(self, params, n, sup):
        spec = cat.make_spec("gamma", **params)
        rep = vf.verify(spec, n, SineTest(1.0))
        assert rep.passed
        assert rep.empirical_sup == pytest.approx(sup, rel=1e-6)

    def test_skewed_vg_draw_verifies(self):
        # a cell of the verify_draws stream (seed 22).  Its numeric CDF
        # missed the mass right of the origin, the grid ran out to 6.4e8
        # and QUADPACK crashed the interpreter there, so it runs in a
        # process of its own
        src = Path(cat.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "steinbounds.cli", "verify", "--family", "vg",
             "--r", "3.12572", "--theta", "0.522933", "--sigma", "0.733409",
             "--n", "4", "--test", "sine:2.38435"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-500:])
        assert "pass=True" in proc.stdout


class TestMonotoneOrders:
    def test_normal_bound_values_nondecreasing(self):
        spec = cat.make_spec("normal")
        h = SineTest(1.0)
        values = []
        for n in range(5):
            coeffs = bound_for(spec, n, "lemma23i")
            values.append(coeffs.evaluate(vf.norms_for(h, coeffs, 0.0)))
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestMillsGrid:
    def test_sandwich_holds(self):
        out = vf.check_mills_ratio()
        assert out["pass"]
        assert out["min_lower_margin"] >= 0.0
        assert out["min_upper_margin"] >= 0.0


class TestBesselInequalities:
    def test_reference_triple(self):
        out = vf.check_bessel_inequalities(1.0, 1.0, 0.5)
        assert out["pass"]
        assert out["violations"] == [0, 0, 0, 0]

    def test_low_order_branch(self):
        out = vf.check_bessel_inequalities(0.25, 2.0, 1.0)
        assert out["pass"]

    def test_gamma_zero_limit_constant(self):
        # as beta -> 0 the second right-hand side approaches K(nu, 0)/alpha
        out = vf.check_bessel_inequalities(1.0, 1.0, 1e-9)
        want = math.sqrt(math.pi) * math.exp(
            math.lgamma(1.5) - math.lgamma(2.0)
        )
        assert out["rhs"][1] == pytest.approx(want, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            vf.check_bessel_inequalities(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            vf.check_bessel_inequalities(-0.75, 1.0, 0.5)


class TestQuarticIdentities:
    def test_all_identities(self):
        out = vf.check_quartic_identities()
        assert out["pass"]
        assert out["density_identity_error"] < 1e-12
        assert out["partial_mass_error"] < 1e-10
        assert out["min_inequality_margin"] >= 0.0

    def test_half_mass_value_at_origin(self):
        # int_0^inf t p(t) dt = c1 sqrt(3 pi) / 2
        from scipy import integrate

        c1 = cat.quartic_normalizer()
        val, _ = integrate.quad(lambda t: t * c1 * math.exp(-t ** 4 / 12.0), 0.0, np.inf)
        assert val == pytest.approx(c1 * math.sqrt(3.0 * math.pi) / 2.0, rel=1e-10)

    def test_first_min_inequality_at_maximizer(self):
        # optimize |x| min(1/(2 c1), 3/|x|^3) numerically; stays below
        # 3/(6 c1)^(2/3)
        c1 = cat.quartic_normalizer()
        xs = np.linspace(0.0, 10.0, 200001)
        with np.errstate(divide="ignore"):
            vals = xs * np.minimum(1.0 / (2.0 * c1), 3.0 / np.maximum(xs, 1e-300) ** 3)
        assert np.max(vals) <= 3.0 / (6.0 * c1) ** (2.0 / 3.0) + 1e-12


class TestOperatorIdentity:
    def test_quartic_level_one(self):
        spec = cat.make_spec("quartic")
        grid = vf.identity_grid(spec)
        for probe in vf.default_identity_probes():
            assert vf.check_operator_identity(spec, 1, probe, grid) < 1e-6

    def test_law_without_a_density_is_rejected(self):
        with pytest.raises(ValueError, match="1-D families"):
            vf.identity_grid(cat.make_spec("mvn", dim=2))

    def test_prr_derivative_coupling(self):
        spec = cat.make_spec("prr", s=2.5)
        grid = vf.identity_grid(spec)
        assert vf.check_operator_identity(spec, 0, vf.default_identity_probes()[0], grid) < 1e-6


class TestSerialization:
    def _reports(self):
        spec = cat.make_spec("normal")
        return vf.sweep(specs=[spec], orders=range(2), test_fns=[SineTest(1.0)])

    def test_json_deterministic(self):
        reports = self._reports()
        a = vf.reports_to_json(reports)
        b = vf.reports_to_json(reports)
        assert a == b
        payload = json.loads(a)
        assert payload[0]["family"] == "normal"
        assert set(payload[0]) >= {"family", "n", "mode", "bound", "empirical", "margin", "pass"}

    def test_csv_header_fixed(self):
        text = vf.reports_to_csv(self._reports())
        assert text.splitlines()[0] == (
            "family,param_string,n,mode,test_fn,bound,empirical,margin,pass,error"
        )
