"""Solver: expectations, probe regressions, propagation, representations."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate

from steinbounds import catalog as cat
from steinbounds import solver as sv
from steinbounds import verifier as vf
from steinbounds.solver import (
    CosineTest,
    PolyProbe,
    SineTest,
    _fd6,
    empirical_sup,
    expectation,
    parse_test_function,
    propagate_derivatives,
    residual_norm,
    solve,
)


class TestTestFunctions:
    def test_sine_derivatives_and_norms(self):
        h = SineTest(2.0)
        x = np.linspace(-1.0, 1.0, 11)
        assert np.allclose(h.deriv(x, 1), 2.0 * np.cos(2.0 * x))
        assert np.allclose(h.deriv(x, 2), -4.0 * np.sin(2.0 * x))
        assert h.norm(0) == 1.0
        assert h.norm(3) == 8.0
        assert h.centered_norm(-0.25) == 1.25

    def test_cosine(self):
        h = CosineTest(1.0)
        x = np.linspace(-1.0, 1.0, 11)
        assert np.allclose(h.deriv(x, 1), -np.sin(x))

    def test_probe_norms_unavailable(self):
        with pytest.raises(ValueError):
            PolyProbe((0.0, 1.0)).norm(1)

    def test_parser(self):
        assert parse_test_function("sine:2").freq == 2.0
        assert parse_test_function("probe:x2-1").coeffs == (-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            parse_test_function("tanh:1")


class TestExpectation:
    def test_odd_integrand_vanishes(self):
        spec = cat.make_spec("normal")
        assert expectation(spec, SineTest(1.0)) == pytest.approx(0.0, abs=1e-10)

    def test_characteristic_function_value(self):
        spec = cat.make_spec("normal")
        assert expectation(spec, CosineTest(1.0)) == pytest.approx(
            0.6065306597126334, abs=1e-10
        )

    def test_exponential_sine(self):
        spec = cat.make_spec("exponential", lam=1.0)
        # int_0^inf sin(x) e^-x dx = 1/2
        assert expectation(spec, SineTest(1.0)) == pytest.approx(0.5, abs=1e-10)

    def test_prr_mean_against_quad(self):
        spec = cat.make_spec("prr", s=2.5)
        h = CosineTest(1.0)
        oracle, _ = integrate.quad(lambda t: float(spec.density(t)) * math.cos(t), 0.0, np.inf)
        assert expectation(spec, h) == pytest.approx(oracle, abs=1e-9)


class TestProbes:
    def test_normal_linear_probe(self):
        sol = solve(cat.make_spec("normal"), PolyProbe((0.0, 1.0), "x"))
        assert np.max(np.abs(sol.derivs[0] + 1.0)) < 1e-8
        sup, flag = empirical_sup(sol, 0)
        assert sup == pytest.approx(1.0, abs=1e-8)
        assert not flag

    def test_normal_quadratic_probe_and_boundary_flag(self):
        spec = cat.make_spec("normal")
        h = PolyProbe((-1.0, 0.0, 1.0), "x2-1")
        sol = solve(spec, h)
        assert np.max(np.abs(sol.derivs[0] + sol.grid)) < 1e-8
        sup, flag = empirical_sup(sol, 0)
        assert flag, "unbounded probe solution must flag the grid boundary"
        assert sup == pytest.approx(np.max(np.abs(sol.grid)), rel=1e-10)

    def test_normal_quadratic_probe_propagates_exactly(self):
        spec = cat.make_spec("normal")
        h = PolyProbe((-1.0, 0.0, 1.0), "x2-1")
        sol = propagate_derivatives(solve(spec, h), spec, h, 2)
        assert np.max(np.abs(sol.derivs[1] + 1.0)) < 1e-8
        assert np.max(np.abs(sol.derivs[2])) < 1e-8

    def test_gamma_centered_linear_probe(self):
        spec = cat.make_spec("gamma", r=2.0, lam=2.0)
        sol = solve(spec, PolyProbe((-1.0, 1.0), "x-r/lam"))
        assert np.max(np.abs(sol.derivs[0] + 0.5)) < 1e-8
        sup, flag = empirical_sup(sol, 0)
        assert sup == pytest.approx(0.5, abs=1e-8)
        assert not flag


class TestGrids:
    def test_coverage_and_size(self):
        spec = cat.make_spec("normal")
        grid = sv.build_grid(spec)
        assert len(grid) == sv.DEFAULT_POINTS
        assert grid[0] < cat.quantile(spec, 1e-8)
        assert grid[-1] > cat.quantile(spec, 1.0 - 1e-8)

    def test_margin_clipped_to_support(self):
        spec = cat.make_spec("gamma", r=2.0, lam=1.0)
        grid = sv.build_grid(spec)
        assert grid[0] > 0.0

    def test_vg_grid_contains_origin(self):
        spec = cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0)
        grid = sv.build_grid(spec)
        assert np.min(np.abs(grid)) == 0.0

    def test_interior_delicate_point_is_on_a_uniform_grid(self):
        # the grid rule keys on the spec's delicate points, not on its family
        spec = replace(cat.make_spec("normal"), delicate_points=(0.25,))
        grid = sv.build_grid(spec)
        assert 0.25 in grid
        assert np.ptp(np.diff(grid)) < 1e-12


RESIDUAL_FAMILIES = [
    ("normal", {}),
    ("gamma", {"r": 2.0, "lam": 1.0}),
    ("exponential", {"lam": 1.0}),
    ("beta", {"alpha": 2.0, "beta": 3.0}),
    ("arcsine", {}),
    ("student_t", {"d": 9.0, "delta": 3.0}),
    ("inverse_gamma", {"alpha": 9.0, "beta": 2.0}),
    ("prr", {"s": 1.0}),
    ("prr", {"s": 0.5}),
    ("prr", {"s": 2.5}),
    ("vg", {"r": 3.0, "theta": 0.0, "sigma": 1.0}),
    ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0}),
    ("quartic", {}),
]


class TestResiduals:
    @pytest.mark.parametrize("family,params", RESIDUAL_FAMILIES)
    def test_order_zero_equation_residual(self, family, params):
        spec = cat.make_spec(family, **params)
        h = SineTest(1.0)
        sol = propagate_derivatives(solve(spec, h), spec, h, max(2, spec.operator_order))
        htilde_norm = 1.0 + abs(sol.diagnostics["mean_value"])
        assert residual_norm(sol, spec, h) <= 1e-6 * (1.0 + htilde_norm)


class TestPropagationAgainstFiniteDifferences:
    @pytest.mark.parametrize(
        "family,params",
        [("normal", {}), ("gamma", {"r": 2.0, "lam": 1.0}), ("quartic", {}),
         ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0})],
    )
    def test_second_derivative(self, family, params):
        spec = cat.make_spec(family, **params)
        h = SineTest(1.0)
        sol = propagate_derivatives(solve(spec, h), spec, h, 2)
        g = sol.grid
        fd = _fd6(sol.derivs[1], g[1] - g[0])
        n = len(g)
        mask = np.zeros(n, dtype=bool)
        mask[int(0.1 * n):int(0.9 * n)] = True  # central 80% of the grid
        if family == "vg":
            mask &= np.abs(g) > 0.1  # the comparison stencil degrades at the origin
        assert np.max(np.abs(sol.derivs[2] - fd)[mask]) < 1e-5

    def test_vg_analytic_first_derivative(self):
        spec = cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0)
        h = SineTest(1.0)
        sol = solve(spec, h)
        g = sol.grid
        fd = _fd6(sol.derivs[0], g[1] - g[0])
        mask = (np.abs(g) > 0.1) & (np.abs(g) < 0.8 * g[-1])
        assert np.max(np.abs(sol.derivs[1] - fd)[mask]) < 1e-7


class TestVgRepresentationSymmetry:
    def test_two_sided_forms_agree(self):
        # solver uses the right-tail form for x >= 0; recompute a few of
        # those points with the left-tail form by direct quadrature
        spec = cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0)
        h = SineTest(1.0)
        sol = solve(spec, h)
        eh = sol.diagnostics["mean_value"]
        r, theta, sigma = 3.0, 0.5, 1.0
        nu = 1.0
        alpha = math.sqrt(theta ** 2 + sigma ** 2) / sigma ** 2
        beta = theta / sigma ** 2

        def kernel_i(y):
            return math.exp(beta * y) * abs(y) ** nu * float(sv._sp.iv(nu, alpha * abs(y))) * (math.sin(y) - eh)

        def kernel_k(y):
            return math.exp(beta * y) * abs(y) ** nu * float(sv._sp.kv(nu, alpha * abs(y))) * (math.sin(y) - eh)

        for x in (0.5, 1.0, 2.0):
            i = int(np.argmin(np.abs(sol.grid - x)))
            xg = float(sol.grid[i])
            a_val, _ = integrate.quad(kernel_i, 0.0, xg, limit=200)
            b_left, _ = integrate.quad(kernel_k, -np.inf, xg, limit=200)
            k_part = math.exp(-beta * xg) * float(sv._sp.kv(nu, alpha * xg)) / (sigma ** 2 * xg ** nu)
            i_part = math.exp(-beta * xg) * float(sv._sp.iv(nu, alpha * xg)) / (sigma ** 2 * xg ** nu)
            left_form = -k_part * a_val + i_part * b_left
            assert sol.derivs[0][i] == pytest.approx(left_form, abs=1e-7)


class TestPropagationContract:
    def test_window_violation_raises(self):
        spec = cat.make_spec("student_t", d=5.0, delta=1.0)
        h = SineTest(1.0)
        sol = solve(spec, h)
        from steinbounds.errors import ValidityError

        with pytest.raises(ValidityError):
            propagate_derivatives(sol, spec, h, 4)
        sol = propagate_derivatives(sol, spec, h, 3)
        assert sol.diagnostics["residual"] < 1e-6

    def test_unusable_solution_detected(self):
        spec = cat.make_spec("normal")
        h = SineTest(1.0)
        sol = solve(spec, h)
        sol.derivs[0] = np.full_like(sol.derivs[0], np.nan)
        from steinbounds.errors import NumericError

        with pytest.raises(NumericError):
            propagate_derivatives(sol, spec, h, 2)


class TestBoundedByBaseConstant:
    def test_normal_solution_obeys_order_zero_bound(self):
        spec = cat.make_spec("normal")
        h = SineTest(1.0)
        sol = solve(spec, h)
        cap = math.sqrt(math.pi / 2.0) * (1.0 + abs(sol.diagnostics["mean_value"]))
        assert np.max(np.abs(sol.derivs[0])) <= cap + 1e-9


class TestCsvExport:
    def test_roundtrip(self, tmp_path):
        spec = cat.make_spec("normal")
        h = SineTest(1.0)
        sol = propagate_derivatives(solve(spec, h), spec, h, 2)
        path = tmp_path / "solution.csv"
        sol.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x,f,f1,f2"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(sol.grid), 4)
        assert np.allclose(data[:, 1], sol.derivs[0])


def _gamma_density(r, lam):
    r, lam = mpmath.mpf(r), mpmath.mpf(lam)
    return lambda t: lam ** r * t ** (r - 1) * mpmath.exp(-lam * t) / mpmath.gamma(r)


def _arcsine_density(t):
    return 1 / (mpmath.pi * mpmath.sqrt(t * (1 - t)))


class TestSplitIntegralAtSingularEdges:
    """f next to a singular lower support end against 30-digit mpmath:
    f(x) = (s(x) p(x))^-1 times the integral of p * (sin - E sin) from the
    support end to x, at the first 8 grid points (all left of the median).
    The tolerance is set once and is never widened."""

    TOL = 1e-9

    @pytest.mark.parametrize(
        "family,params,density,upper",
        [
            ("gamma", {"r": 0.320687, "lam": 1.83895}, _gamma_density(0.320687, 1.83895), mpmath.inf),
            ("gamma", {"r": 0.457177, "lam": 0.819184}, _gamma_density(0.457177, 0.819184), mpmath.inf),
            ("gamma", {"r": 2.0, "lam": 1.0}, _gamma_density(2, 1), mpmath.inf),
            ("arcsine", {}, _arcsine_density, 1),
        ],
    )
    def test_first_grid_points(self, family, params, density, upper):
        spec = cat.make_spec(family, **params)
        sol = solve(spec, SineTest(1.0))
        with mpmath.workdps(30):
            mean = mpmath.quad(lambda t: density(t) * mpmath.sin(t), [0, 1, upper])
            worst = 0.0
            for x, got in zip(sol.grid[:8], sol.derivs[0][:8]):
                x = float(x)
                numer = mpmath.quad(lambda t: density(t) * (mpmath.sin(t) - mean), [0, x])
                want = numer / (float(spec.weight_s(x)) * density(mpmath.mpf(x)))
                worst = max(worst, float(abs((got - want) / want)))
        assert worst <= self.TOL


class TestQuadratureErrorBudget:
    def test_every_adaptive_error_is_kept(self):
        for family, params in vf.DEFAULT_SWEEP_FAMILIES:
            sol = solve(cat.make_spec(family, **params), SineTest(1.0))
            err = sol.diagnostics["quad_error"]
            assert math.isfinite(err) and err < 1e-8, (family, params, err)

    def test_singular_edge_tail_is_the_first_delicate_value(self, monkeypatch):
        # the integral from the singular end 0 to the first grid point is
        # both the lower tail and F(grid[0]) of the first panel: one call
        spec = cat.make_spec("gamma", r=0.320687, lam=1.83895)
        mesh = sv.build_mesh(spec)
        ranges = []
        integrate = sv.sf.integrate

        def recorded(fn, a, b, *args, **kwargs):
            ranges.append((a, b))
            return integrate(fn, a, b, *args, **kwargs)

        monkeypatch.setattr(sv.sf, "integrate", recorded)
        sol = solve(spec, SineTest(1.0), mesh=mesh)
        assert ranges.count((0.0, float(sol.grid[0]))) == 1
        assert len(ranges) == len(set(ranges))


class TestMeshFactorsAreEvaluatedOnce:
    """Every h-independent array of a solve is a mesh factor: evaluated
    once per mesh, and an even one once per distinct |x|."""

    @staticmethod
    def record_points(monkeypatch, module, name):
        """Record the size of every array argument (ndim >= 1) that the
        solver passes to module.name as its second argument."""
        sizes = []
        fn = getattr(module, name)

        def recorded(nu, x):
            if np.ndim(x):
                sizes.append(np.size(x))
            return fn(nu, x)

        monkeypatch.setattr(module, name, recorded)
        return sizes

    def test_vg_node_bessels_once_per_distinct_abs(self, monkeypatch):
        spec = cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0)
        mesh = sv.build_mesh(spec)
        distinct = np.unique(np.abs(mesh.xs)).size
        assert distinct < 0.6 * mesh.xs.size
        ive = self.record_points(monkeypatch, sv._sp, "ive")
        kve = self.record_points(monkeypatch, sv._sp, "kve")
        solve(spec, SineTest(1.0), mesh=mesh)
        assert 0 < sum(ive) <= distinct
        assert 0 < sum(kve) <= distinct

    def test_vg_grid_bessels_once_per_mesh(self, monkeypatch):
        spec = cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0)
        mesh = sv.build_mesh(spec)
        bessel_i = self.record_points(monkeypatch, sv.sf, "bessel_i")
        bessel_k = self.record_points(monkeypatch, sv.sf, "bessel_k")
        for h in (SineTest(1.0), SineTest(2.0), CosineTest(1.0)):
            solve(spec, h, mesh=mesh)
        # once for nu and once for nu + 1, at the distinct |x| of the grid
        distinct = np.unique(np.abs(mesh.grid)).size
        assert bessel_i == bessel_k == [distinct, distinct]

    def test_prr_density_once_at_the_nodes(self):
        calls = []
        base = cat.make_spec("prr", s=5.0)

        def density(x):
            calls.append(x)
            return base.density(x)

        spec = replace(base, pdf=density)
        mesh = sv.build_mesh(spec)
        solve(spec, SineTest(1.0), mesh=mesh)
        assert sum(np.shape(x) == mesh.xs.shape for x in calls) == 1
