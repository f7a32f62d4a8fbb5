"""Solver: expectations, probe regressions, propagation, representations."""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as _sp

from steinbounds import catalog as cat
from steinbounds import solver as sv
from steinbounds import verifier as vf
from steinbounds.solver import (
    CosineTest,
    PolyProbe,
    SineTest,
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
        with pytest.raises(ValueError, match="unknown test function"):
            parse_test_function("probe:x")
        with pytest.raises(ValueError):
            parse_test_function("tanh:1")
        with pytest.raises(ValueError, match="'sine:abc': frequency 'abc' is not a number"):
            parse_test_function("sine:abc")
        assert parse_test_function("cosine").freq == 1.0

    @pytest.mark.parametrize("h", [SineTest(1.7), CosineTest(-0.6), PolyProbe((0.5, -1.0, 0.25, 2.0))], ids=str)
    def test_a_float_gives_the_array_value(self, h):
        x = np.linspace(-3.0, 3.0, 13)
        for k in range(5):
            want = h.value(x) if k == 0 else h.deriv(x, k)
            got = [h.value(float(t)) if k == 0 else h.deriv(float(t), k) for t in x]
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want], k

    @pytest.mark.parametrize("cls", [SineTest, CosineTest])
    def test_norms_of_a_negative_frequency(self, cls):
        # sin(-a x) and cos(-a x) have the derivative norms of a > 0
        assert [cls(-1.5).norm(j) for j in range(4)] == [cls(1.5).norm(j) for j in range(4)] == [1.0, 1.5, 2.25, 3.375]

    @pytest.mark.parametrize("cls", [SineTest, CosineTest])
    @pytest.mark.parametrize("freq", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_is_rejected(self, cls, freq):
        with pytest.raises(ValueError, match=f"frequency must be finite, got {freq}"):
            cls(freq)


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

    def test_error_estimate_above_its_bound_raises(self, monkeypatch):
        # the docstring's 1e-10 is enforced: the largest estimate measured
        # over the default specs and the window draws is 9.4e-12
        from steinbounds.errors import NumericError

        integrate_ = sv.sf.integrate
        monkeypatch.setattr(sv.sf, "integrate", lambda *args, **kwargs: (integrate_(*args, **kwargs)[0], 5e-10))
        with pytest.raises(NumericError, match="5.00e-10"):
            expectation(cat.make_spec("normal"), CosineTest(1.0))

    def test_prr_mean_against_quad(self):
        spec = cat.make_spec("prr", s=2.5)
        h = CosineTest(1.0)
        oracle, _ = integrate.quad(lambda t: float(spec.density(t)) * math.cos(t), 0.0, np.inf)
        assert expectation(spec, h) == pytest.approx(oracle, abs=1e-9)

    @staticmethod
    def characteristic_function(spec, w: float) -> complex:
        """E e^(i w Z) in closed form for the families that have one."""
        p = spec.params
        if spec.family == "normal":
            return complex(math.exp(-0.5 * w * w))
        if spec.family in ("gamma", "exponential"):
            return (1.0 - 1j * w / p["lam"]) ** -p.get("r", 1.0)
        if spec.family == "arcsine":
            return cmath.exp(0.5j * w) * float(_sp.j0(0.5 * w))
        assert spec.family == "vg"
        return (1.0 - 2j * p["theta"] * w + p["sigma"] ** 2 * w * w) ** (-0.5 * p["r"])

    @pytest.mark.parametrize("h", [SineTest(1.0), SineTest(2.0), CosineTest(1.0)], ids=lambda h: h.name)
    def test_default_sweep_values_against_closed_forms(self, h):
        # within 5e-13 relative: at expectation's epsrel 1e-11 QUADPACK
        # stops 3.5e-13 off for gamma(2, 1) sine:2 and 1.0e-13 off for
        # arcsine sine:1, the others within 1.5e-14
        for spec in vf.default_sweep_specs():
            if spec.family not in ("normal", "gamma", "exponential", "arcsine", "vg"):
                continue
            cf = self.characteristic_function(spec, h.freq)
            exact = cf.real if isinstance(h, CosineTest) else cf.imag
            assert expectation(spec, h) == pytest.approx(exact, rel=5e-13, abs=1e-16), spec.family

    # 15 vg laws over selftest criterion 2's window (r in [0.5, 6], theta in
    # [-1.5, 1.5], sigma in [0.5, 2]), drawn once and rounded to 3 digits
    VG_LAWS = (
        (4.93, 0.924, 1.27), (1.48, 0.42, 1.2), (2.54, -0.435, 1.69), (5.48, -0.968, 1.48), (2.14, 1.4, 1.88),
        (4.0, 0.758, 1.27), (5.04, -0.155, 1.01), (2.03, -0.821, 1.29), (2.87, 0.49, 0.519), (2.96, -0.404, 0.793),
        (3.77, -0.194, 0.95), (1.65, 1.12, 1.7), (3.84, -0.465, 1.92), (3.6, -0.202, 1.85), (2.26, 0.588, 0.971),
    )
    # of max(|exact|, 1e-3): the worst cell read 1.61e-10, vg(3.6, -0.202,
    # 1.85) sine:2.5, whose E h is -3.0e-4 and 1.6e-13 off (within
    # expectation's epsabs 1e-12); set once, never widened
    VG_TOLERANCE = 2e-10

    @pytest.mark.parametrize("h", [cls(w) for w in (0.5, 1.0, 2.0, 2.5) for cls in (SineTest, CosineTest)], ids=lambda h: h.name)
    def test_vg_window_values_against_closed_form(self, h):
        for r, theta, sigma in self.VG_LAWS:
            spec = cat.make_spec("vg", r=r, theta=theta, sigma=sigma)
            cf = self.characteristic_function(spec, h.freq)
            exact = cf.real if isinstance(h, CosineTest) else cf.imag
            assert abs(expectation(spec, h) - exact) <= self.VG_TOLERANCE * max(abs(exact), 1e-3), spec.params

    def test_default_sweep_values_hold_to_golden(self):
        # the 33 E h of the default sweep, pinned before the integrator
        # moved to numpy; the smallest shift that flips a sweep bound at 10
        # digits is 1.26e-11 (quartic cosine:1, n = 0)
        golden = json.loads((Path(__file__).parent / "golden" / "expectations.json").read_text())
        specs = {(s.family, json.dumps(s.params)): s for s in vf.default_sweep_specs()}
        assert len(golden) == 3 * len(specs) == 33
        for row in golden:
            spec = specs[row["family"], json.dumps(row["params"])]
            got = expectation(spec, parse_test_function(row["test_fn"]))
            assert abs(got - row["value"]) <= 1e-12 * max(abs(row["value"]), 1e-3), row


class TestProbes:
    def test_normal_linear_probe(self):
        sol = solve(cat.make_spec("normal"), PolyProbe((0.0, 1.0), "x"))
        assert np.max(np.abs(sol.derivs[0] + 1.0)) < 1e-8
        sup, _, filled, flag = empirical_sup(sol, 0)
        assert sup == pytest.approx(1.0, abs=1e-8)
        assert not flag
        assert not filled  # the solve computes every point of its own orders

    def test_normal_quadratic_probe_and_boundary_flag(self):
        spec = cat.make_spec("normal")
        h = PolyProbe((-1.0, 0.0, 1.0), "x2-1")
        sol = solve(spec, h)
        assert np.max(np.abs(sol.derivs[0] + sol.grid)) < 1e-8
        sup, x, filled, flag = empirical_sup(sol, 0)
        assert flag, "unbounded probe solution must flag the grid boundary"
        assert sup == pytest.approx(np.max(np.abs(sol.grid)), rel=1e-10)
        assert x in (sol.grid[0], sol.grid[-1]) and not filled

    def test_normal_quadratic_probe_propagates_exactly(self):
        spec = cat.make_spec("normal")
        h = PolyProbe((-1.0, 0.0, 1.0), "x2-1")
        sol = propagate_derivatives(solve(spec, h), 2)
        assert np.max(np.abs(sol.derivs[1] + 1.0)) < 1e-8
        assert np.max(np.abs(sol.derivs[2])) < 1e-8

    def test_gamma_centered_linear_probe(self):
        spec = cat.make_spec("gamma", r=2.0, lam=2.0)
        sol = solve(spec, PolyProbe((-1.0, 1.0), "x-r/lam"))
        assert np.max(np.abs(sol.derivs[0] + 0.5)) < 1e-8
        sup, _, _, flag = empirical_sup(sol, 0)
        assert sup == pytest.approx(0.5, abs=1e-8)
        assert not flag


class TestGrids:
    def test_coverage_and_size(self):
        spec = cat.make_spec("normal")
        grid = sv.build_mesh(spec).grid
        assert len(grid) == sv.DEFAULT_POINTS
        assert grid[0] < cat.quantile(spec, 1e-8)
        assert grid[-1] > cat.quantile(spec, 1.0 - 1e-8)
        # a vg grid steps out from its origin past both ends: one point more
        sizes = {(s.family, s.param_string()): len(sv.build_mesh(s).grid) for s in vf.default_sweep_specs()}
        assert len(sizes) == 11
        assert sizes == {key: 20002 if key[0] == "vg" else 20001 for key in sizes}
        assert list(sizes.values()).count(20002) == 2

    def test_margin_clipped_to_support(self):
        spec = cat.make_spec("gamma", r=2.0, lam=1.0)
        grid = sv.build_mesh(spec).grid
        assert grid[0] > 0.0

    def test_vg_grid_contains_origin(self):
        spec = cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0)
        grid = sv.build_mesh(spec).grid
        assert np.min(np.abs(grid)) == 0.0

    def test_interior_delicate_point_is_on_a_uniform_grid(self):
        # the grid rule keys on the spec's delicate points, not on its family
        spec = replace(cat.make_spec("normal"), delicate_points=(0.25,))
        grid = sv.build_mesh(spec).grid
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
        sol = propagate_derivatives(solve(spec, h), max(2, spec.operator_order))
        htilde_norm = 1.0 + abs(sol.diagnostics["mean_value"])
        assert residual_norm(sol) <= 1e-6 * (1.0 + htilde_norm)


def _fd6(y, dx):
    """The sixth-order central first derivative on a uniform grid (the
    verifier's stencil), NaN at the three points next to either end."""
    out = np.full(len(y), np.nan)
    out[3:-3] = sum(w * y[3 + off: len(y) - 3 + off] for w, off in zip(vf._FD6_CENTRAL, range(-3, 4)) if w) / dx
    return out


class TestPropagationAgainstFiniteDifferences:
    @pytest.mark.parametrize(
        "family,params",
        [("normal", {}), ("gamma", {"r": 2.0, "lam": 1.0}), ("quartic", {}),
         ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0})],
    )
    def test_second_derivative(self, family, params):
        spec = cat.make_spec(family, **params)
        h = SineTest(1.0)
        sol = propagate_derivatives(solve(spec, h), 2)
        g = sol.grid
        fd = _fd6(sol.derivs[1], g[1] - g[0])
        n = len(g)
        mask = np.zeros(n, dtype=bool)
        mask[int(0.1 * n):int(0.9 * n)] = True  # central 80% of the grid
        if family == "vg":
            mask &= np.abs(g) > 0.1  # the comparison stencil degrades at the origin
        assert np.max(np.abs(sol.derivs[2] - fd)[mask]) < 1e-5

    @pytest.mark.parametrize(
        "family,params", [("vg", {"r": 3.0, "theta": 0.0, "sigma": 1.0}), ("prr", {"s": 1.0}), ("prr", {"s": 4.90839})]
    )
    def test_analytic_first_derivative(self, family, params):
        # vg's f' comes from its Bessel prefactors, PRR's from the slope of
        # its U series: both against differences of the solved f
        spec = cat.make_spec(family, **params)
        h = SineTest(1.0)
        sol = solve(spec, h)
        g = sol.grid
        fd = _fd6(sol.derivs[0], g[1] - g[0])
        mask = (np.abs(g) > 0.1) & (np.abs(g) < 0.8 * g[-1])
        assert np.max(np.abs(sol.derivs[1] - fd)[mask]) < 1e-7


class TestVgLaplaceOracle:
    """vg(2, 0, sigma) is the Laplace law of scale sigma.  Its operator
    sigma^2 x f'' + 2 sigma^2 f' - x f is sigma^2 (x f)'' - x f, so g = x f
    solves sigma^2 g'' - g = h - E h:
      sin(w x):  f = -sin(w x) / ((1 + sigma^2 w^2) x),
      cos(w x):  f = (1 - cos(w x)) / ((1 + sigma^2 w^2) x).
    Every f^(n) is compared at every grid point, the filled band around
    the origin included, relative to sup |f^(n)|.  Tolerances per order,
    set from the worst measured case (1e-10 for n <= 2 from 6.8e-11 at
    sine:2, sigma=1; 5e-9 for n=3 from 2.5e-9 and 5e-8 for n=4 from 2.7e-8,
    both at cosine:1)."""

    TOL = (1e-10, 1e-10, 1e-10, 5e-9, 5e-8)
    T, W = np.polynomial.legendre.leggauss(80)

    @classmethod
    def exact(cls, h, sigma, x, n):
        """f^(n)(x) from sin(w x)/x = w int_0^1 cos(w x t) dt and (1 -
        cos(w x))/x = w int_0^1 sin(w x t) dt, differentiated under the
        integral (Gauss-Legendre in t: no cancellation at the origin)."""
        t, wt = 0.5 * (cls.T + 1.0), 0.5 * cls.W
        w = h.freq
        cosine = isinstance(h, CosineTest)
        kernel = (np.sin if cosine else np.cos)(w * np.multiply.outer(x, t) + n * math.pi / 2.0)
        value = w ** (n + 1) * (kernel * t ** n) @ wt / (1.0 + sigma * sigma * w * w)
        return value if cosine else -value

    def test_exact_solution_against_mpmath(self):
        for h in (SineTest(2.0), CosineTest(1.0)):
            c = 1.0 + 0.36 * h.freq ** 2
            if isinstance(h, CosineTest):
                f = lambda t: (1 - mpmath.cos(h.freq * t)) / (c * t)
            else:
                f = lambda t: -mpmath.sin(h.freq * t) / (c * t)
            for x in (-7.3, 0.05, 1.9):
                for n in range(5):
                    with mpmath.workdps(40):
                        want = float(mpmath.diff(f, mpmath.mpf(x), n))
                    assert self.exact(h, 0.6, np.array([x]), n)[0] == pytest.approx(want, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("sigma", [1.0, 0.6])
    def test_every_order_matches_the_closed_form(self, sigma):
        spec = cat.make_spec("vg", r=2.0, theta=0.0, sigma=sigma)
        mesh = sv.build_mesh(spec)
        for h in (SineTest(1.0), CosineTest(1.0), SineTest(2.0)):
            sol = propagate_derivatives(solve(spec, h, mesh=mesh), 4)
            for n, tol in enumerate(self.TOL):
                want = self.exact(h, sigma, sol.grid, n)
                assert np.max(np.abs(sol.derivs[n] - want)) <= tol * np.max(np.abs(want)), (h.name, n)


class TestVgSkewedLaplaceOracle:
    """vg(2, theta, sigma), theta != 0, is an asymmetric Laplace law.  As
    at theta = 0, g = x f turns its operator sigma^2 x f'' + (2 sigma^2 +
    2 theta x) f' + (2 theta - x) f into sigma^2 g'' + 2 theta g' - g, whose
    characteristic roots are -beta +- alpha.  For h = e^(i w x) the bounded
    solution is g = c (e^(i w x) - 1) with c = -1 / (1 + sigma^2 w^2 - 2 i
    theta w): g(0) = 0 is the solvability condition E h = -c, so no
    homogeneous term e^((-beta +- alpha) x) enters, and f = g / x holds no
    exponential that could overflow.  sin and cos take the imaginary and
    real parts.  Every f^(n) is compared at every grid point, relative to
    sup |f^(n)|.

    Tolerances per order, twice the worst measured case, set once and
    never widened: 8.1e-14 (n = 0) and 6.3e-14 (n = 1) for vg(2, 1.2,
    0.6), cosine:1; 4.1e-11 (n = 2) for vg(2, 1.2, 1), sine:2; 2.1e-9 (n =
    3) for vg(2, -0.5, 0.6), cosine:1; 1.9e-6 (n = 4) for vg(2, 1.2, 0.6),
    sine:2.  The K-kernel tails to +-inf take no absolute tolerance: at
    1e-14 the tail beyond the left grid end of vg(2, 1.2, 1), about 1e-14
    itself and multiplied by an I prefactor of 6e13, put 1.0e-7 (n = 0) to
    2.4e-5 (n = 4) there."""

    TOL = (1.7e-13, 1.3e-13, 8.2e-11, 4.2e-9, 3.9e-6)
    T, W = np.polynomial.legendre.leggauss(80)

    @classmethod
    def exact(cls, h, theta, sigma, x, orders=5):
        """f, ..., f^(orders - 1) at x, one row each, from (e^(i w x) - 1)
        / x = i w int_0^1 e^(i w x t) dt, differentiated under the integral
        (Gauss-Legendre in t)."""
        t, wt = 0.5 * (cls.T + 1.0), 0.5 * cls.W
        w = h.freq
        c = -1.0 / (1.0 + sigma * sigma * w * w - 2j * theta * w)
        n = np.arange(orders)
        moments = np.exp(1j * w * np.multiply.outer(x, t)) @ (wt * t ** n[:, None]).T
        value = (c * (1j * w) ** (n + 1) * moments).T
        return value.real if isinstance(h, CosineTest) else value.imag

    def test_closed_form_solves_the_equation(self):
        theta, sigma, w = 1.2, 0.6, 1.0
        c = -1 / mpmath.mpc(1 + sigma * sigma * w * w, -2 * theta * w)
        mean = (-c).imag  # E sin(w Z) of vg(2, theta, sigma)
        assert float(mean) == pytest.approx((1.0 / (1.0 - 2j * theta * w + sigma * sigma * w * w)).imag, rel=1e-15)
        f = lambda x: (c * (mpmath.expj(w * x) - 1) / x).imag
        with mpmath.workdps(40):
            for x in (-7.3, 0.05, 1.9):
                f0, f1, f2 = (mpmath.diff(f, mpmath.mpf(x), k) for k in range(3))
                lhs = sigma ** 2 * x * f2 + (2 * sigma ** 2 + 2 * theta * x) * f1 + (2 * theta - x) * f0
                assert float(lhs) == pytest.approx(math.sin(w * x) - float(mean), rel=1e-13, abs=1e-15)
                assert self.exact(SineTest(w), theta, sigma, np.array([x]))[1, 0] == pytest.approx(float(f1), rel=1e-13)

    @pytest.mark.parametrize("theta", [0.5, -0.5, 1.2])
    @pytest.mark.parametrize("sigma", [0.6, 1.0])
    def test_every_order_matches_the_closed_form(self, theta, sigma):
        spec = cat.make_spec("vg", r=2.0, theta=theta, sigma=sigma)
        mesh = sv.build_mesh(spec)
        for h in (SineTest(1.0), CosineTest(1.0), SineTest(2.0)):
            sol = propagate_derivatives(solve(spec, h, mesh=mesh), 4)
            for n, (tol, want) in enumerate(zip(self.TOL, self.exact(h, theta, sigma, sol.grid))):
                assert np.max(np.abs(sol.derivs[n] - want)) <= tol * np.max(np.abs(want)), (h.name, n)


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
            return math.exp(beta * y) * abs(y) ** nu * float(_sp.iv(nu, alpha * abs(y))) * (math.sin(y) - eh)

        def kernel_k(y):
            return math.exp(beta * y) * abs(y) ** nu * float(_sp.kv(nu, alpha * abs(y))) * (math.sin(y) - eh)

        for x in (0.5, 1.0, 2.0):
            i = int(np.argmin(np.abs(sol.grid - x)))
            xg = float(sol.grid[i])
            a_val, _ = integrate.quad(kernel_i, 0.0, xg, limit=200)
            b_left, _ = integrate.quad(kernel_k, -np.inf, xg, limit=200)
            k_part = math.exp(-beta * xg) * float(_sp.kv(nu, alpha * xg)) / (sigma ** 2 * xg ** nu)
            i_part = math.exp(-beta * xg) * float(_sp.iv(nu, alpha * xg)) / (sigma ** 2 * xg ** nu)
            left_form = -k_part * a_val + i_part * b_left
            assert sol.derivs[0][i] == pytest.approx(left_form, abs=1e-7)


class TestPropagationContract:
    def test_window_violation_raises(self):
        spec = cat.make_spec("student_t", d=5.0, delta=1.0)
        h = SineTest(1.0)
        sol = solve(spec, h)
        from steinbounds.errors import ValidityError

        with pytest.raises(ValidityError):
            propagate_derivatives(sol, 4)
        sol = propagate_derivatives(sol, 3)
        assert sol.diagnostics["residual"] < 1e-6

    def test_unusable_solution_detected(self):
        spec = cat.make_spec("normal")
        h = SineTest(1.0)
        sol = solve(spec, h)
        sol.derivs[0] = np.full_like(sol.derivs[0], np.nan)
        from steinbounds.errors import NumericError

        with pytest.raises(NumericError):
            propagate_derivatives(sol, 2)


class TestBoundedByBaseConstant:
    def test_normal_solution_obeys_order_zero_bound(self):
        spec = cat.make_spec("normal")
        h = SineTest(1.0)
        sol = solve(spec, h)
        cap = math.sqrt(math.pi / 2.0) * (1.0 + abs(sol.diagnostics["mean_value"]))
        assert np.max(np.abs(sol.derivs[0])) <= cap + 1e-9


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
                want = numer / (float(npoly.polyval(x, spec.operator.a1)) * density(mpmath.mpf(x)))
                worst = max(worst, float(abs((got - want) / want)))
        assert worst <= self.TOL


def _beta_at_end(alpha, beta):
    """The beta(alpha, beta) density at a +- v as a function of the end a
    and of v = |x - a|, so that 1 - x near 1 is exact."""
    alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)

    def density(a, v):
        x, y = (v, 1 - v) if a == 0 else (1 - v, v)
        return x ** (alpha - 1) * y ** (beta - 1) / mpmath.beta(alpha, beta)

    return density


def _gamma_at_zero(r, lam):
    density = _gamma_density(r, lam)
    return lambda a, v: density(v)


# the laws whose finite support ends take a Gauss-Jacobi rule, with their
# densities at a +- v in 40-digit mpmath
_END_RULE_LAWS = [
    ("arcsine", {}, _beta_at_end(0.5, 0.5)),
    ("beta", {"alpha": 2.0, "beta": 3.0}, _beta_at_end(2, 3)),
    ("beta", {"alpha": 0.3, "beta": 0.3}, _beta_at_end(0.3, 0.3)),
    ("beta", {"alpha": 0.01, "beta": 0.01}, _beta_at_end(0.01, 0.01)),
    ("gamma", {"r": 0.320687, "lam": 1.83895}, _gamma_at_zero(0.320687, 1.83895)),
]


class TestEndRules:
    """The Gauss-Jacobi rules at the finite Pearson support ends, and E h
    from the mesh.  Tolerances are set once and never widened; the worst
    measured values are in brackets."""

    END_TOL = 1e-12  # f at the grid end against the series at the end (1.3e-15)
    RANGE_TOL = 1e-14  # a rule's range integral against mpmath (3.8e-15)
    # the mesh's E h against expectation(), times max(|E h|, 1e-3) (3.8e-13,
    # gamma(2, 1) sine:2, where expectation() is 3.5e-13 off the closed form)
    MEAN_TOL = 1e-12
    CLOSED_FORM_TOL = 1e-14  # the mesh's E h against closed forms, relative (2.0e-15)

    @staticmethod
    def series_at_end(spec, h, eh, a, x, terms=12):
        """f(x) from its Taylor series at the end a, where tau(a) = 0: the
        level-k equation there reads (k tau' + b) f^(k) + (C(k, 2) tau'' +
        k b') f^(k-1) = h^(k), so f(a) = (h(a) - E h) / b(a) and each
        higher derivative follows."""
        tau, b = spec.operator.a1, spec.operator.a0
        t1, t2 = (float(npoly.polyval(a, npoly.polyder(tau, k))) for k in (1, 2))
        b0, b1 = float(npoly.polyval(a, b)), float(npoly.polyval(a, npoly.polyder(b)))
        derivs = [(h.value(a) - eh) / b0]
        for k in range(1, terms):
            derivs.append((h.deriv(a, k) - (0.5 * k * (k - 1) * t2 + k * b1) * derivs[-1]) / (k * t1 + b0))
        return sum(d * (x - a) ** k / math.factorial(k) for k, d in enumerate(derivs))

    @pytest.mark.parametrize("family,params,density", _END_RULE_LAWS, ids=lambda c: c if isinstance(c, str) else None)
    def test_grid_end_values_are_the_series_at_the_end(self, family, params, density):
        spec = cat.make_spec(family, **params)
        mesh = sv.build_mesh(spec)
        for h in (SineTest(1.0), CosineTest(1.0)):
            sol = solve(spec, h, mesh=mesh)
            for a, i in zip(spec.support, (0, -1)):
                if math.isfinite(a):
                    want = self.series_at_end(spec, h, sol.diagnostics["mean_value"], a, float(sol.grid[i]))
                    assert sol.derivs[0][i] == pytest.approx(want, rel=self.END_TOL, abs=0.0), (h.name, a)

    @pytest.mark.parametrize("family,params,density", _END_RULE_LAWS, ids=lambda c: c if isinstance(c, str) else None)
    def test_range_integrals_against_mpmath(self, family, params, density):
        # the range to the grid end and the shortest and longest delicate
        # ranges of each end, in w = v^(gamma + 1), where the weight is gone
        spec = cat.make_spec(family, **params)
        mesh = sv.build_mesh(spec)
        ends = sv._Ends(mesh, mesh.cached("density", lambda: spec.density(mesh.xs)))
        got, _ = ends.integrals(SineTest(1.0))
        ruled = [(key, value) for key, value in zip(ends.keys, got) if key not in ends.adaptive]
        checked = set()
        for a in {key[0] for key, _ in ruled}:
            spans = sorted((abs(x - a), (d, x)) for (d, x), _ in ruled if d == a)
            grid_end = float(mesh.grid[0 if a == spec.support[0] else -1])
            checked |= {spans[0][1], spans[-1][1], (a, grid_end)}
        gamma_of = {a: sv._end_exponent(spec, a) for a, _ in checked}
        with mpmath.workdps(40):
            for (a, x), value in ruled:
                if (a, x) not in checked:
                    continue
                power = 1 / (mpmath.mpf(gamma_of[a]) + 1)
                sign = 1 if x > a else -1

                def smooth(w):
                    v = w ** power
                    return density(a, v) * mpmath.sin(a + sign * v) * v ** (1 - 1 / power)

                # mpmath's tolerance is absolute: integrate smooth over [0, w(x)]
                # scaled to O(1), or a range whose integral is below the
                # normal doubles (beta(0.01, 0.01) at 0) stops at 1.8e-4
                top = abs(mpmath.mpf(x) - a) ** (1 / power)
                scale = abs(smooth(top)) or 1
                want = sign * power * top * scale * mpmath.quad(lambda t: smooth(top * t) / scale, [0, 1])
                assert value == pytest.approx(float(want), rel=self.RANGE_TOL, abs=0.0), (a, x)

    @pytest.mark.parametrize("family,params", [("arcsine", {}), ("beta", {"alpha": 0.3, "beta": 0.3})])
    def test_mass_is_one(self, family, params):
        # beta(0.3, 0.3) keeps 9.1e-6 of its mass above its grid, in the
        # one-double range that takes the rule's leading term
        sol = solve(cat.make_spec(family, **params), SineTest(1.0))
        assert abs(sol.diagnostics["mass"] - 1.0) <= 1e-12

    def test_mean_against_expectation(self):
        # every first-order and PRR cell of the default sweep
        cells = 0
        for spec in vf.default_sweep_specs():
            if spec.family == "vg":
                continue
            mesh = sv.build_mesh(spec)
            for h in (SineTest(1.0), SineTest(2.0), CosineTest(1.0)):
                want = expectation(spec, h)
                got = solve(spec, h, mesh=mesh).diagnostics["mean_value"]
                assert abs(got - want) <= self.MEAN_TOL * max(abs(want), 1e-3), (spec.family, h.name)
                cells += 1
        assert cells == 27

    @pytest.mark.parametrize("h", [SineTest(1.0), SineTest(2.0), CosineTest(1.0)], ids=lambda h: h.name)
    def test_mean_against_closed_forms(self, h):
        for spec in vf.default_sweep_specs():
            if spec.family not in ("normal", "gamma", "exponential", "arcsine"):
                continue
            cf = TestExpectation.characteristic_function(spec, h.freq)
            exact = cf.real if isinstance(h, CosineTest) else cf.imag
            got = solve(spec, h).diagnostics["mean_value"]
            assert got == pytest.approx(exact, rel=self.CLOSED_FORM_TOL, abs=1e-15), spec.family

    @pytest.mark.parametrize(
        "family,params", [("gamma", {"r": 0.05, "lam": 1.0}), ("beta", {"alpha": 40.0, "beta": 0.2}), ("beta", {"alpha": 0.05, "beta": 0.05})]
    )
    def test_mean_at_strongly_singular_ends(self, family, params):
        # expectation() is 4.2e-10 (gamma) and up to 5.3e-11 (beta) off
        # here; the mesh is within 3.3e-16.  E e^(i w Z) is (1 - i w /
        # lam)^-r for gamma and 1F1(alpha; alpha + beta; i w) for beta.
        spec = cat.make_spec(family, **params)
        for h in (SineTest(1.3), CosineTest(0.7)):
            with mpmath.workdps(30):
                if family == "gamma":
                    cf = (1 - 1j * mpmath.mpf(h.freq) / params["lam"]) ** -mpmath.mpf(params["r"])
                else:
                    cf = mpmath.hyp1f1(params["alpha"], params["alpha"] + params["beta"], 1j * mpmath.mpf(h.freq))
            exact = float(cf.real if isinstance(h, CosineTest) else cf.imag)
            got = solve(spec, h).diagnostics["mean_value"]
            assert got == pytest.approx(exact, rel=self.CLOSED_FORM_TOL, abs=1e-15), h.name

    def test_mean_does_not_depend_on_the_blas_thread_count(self):
        # the panel part of E h is a 140k-term sum: a threaded BLAS dot
        # would add it in an order set by the thread count
        laws = [("arcsine", {}), ("normal", {}), ("prr", {"s": 1.0})]
        script = (
            "from steinbounds import catalog as cat, solver as sv\n"
            f"for family, params in {laws!r}:\n"
            "    print(sv.solve(cat.make_spec(family, **params), sv.CosineTest(1.0)).diagnostics['mean_value'].hex())\n"
        )
        src = Path(sv.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        here = [solve(cat.make_spec(family, **params), CosineTest(1.0)).diagnostics["mean_value"].hex()
                for family, params in laws]
        assert out.stdout.split() == here

    @pytest.mark.parametrize("family,params", [("arcsine", {}), ("gamma", {"r": 2.0, "lam": 1.0}), ("prr", {"s": 1.0})])
    def test_split_sides_agree(self, family, params):
        # E h from the same pieces makes the integral of p (h - E h) over
        # the support vanish, so the two forms of the split agree to rounding
        spec = cat.make_spec(family, **params)
        mesh = sv.build_mesh(spec)
        density = mesh.cached("density", lambda: spec.density(mesh.xs))
        _, _, integral, _ = sv._split_integral(mesh, CosineTest(1.0), density)
        lower, upper = (integral.from_anchor(end) for end in spec.support)
        assert np.max(np.abs(lower - upper)) <= 1e-14 * np.sum(np.abs(integral.panels))


def _recorded_ranges(monkeypatch):
    """The (a, b) of every special.integrate call the solver makes."""
    ranges = []
    integrate = sv.sf.integrate

    def recorded(fn, a, b, *args, **kwargs):
        ranges.append((a, b))
        return integrate(fn, a, b, *args, **kwargs)

    monkeypatch.setattr(sv.sf, "integrate", recorded)
    return ranges


class TestQuadratureErrorBudget:
    def test_every_adaptive_error_is_kept(self):
        for spec in vf.default_sweep_specs():
            sol = solve(spec, SineTest(1.0))
            err = sol.diagnostics["quad_error"]
            assert math.isfinite(err) and err < 1e-8, (spec.family, spec.params, err)

    @pytest.mark.parametrize(
        "family,params",
        [("gamma", {"r": 0.320687, "lam": 1.83895}), ("arcsine", {}), ("beta", {"alpha": 0.3, "beta": 0.3}),
         ("exponential", {"lam": 1.0}), ("inverse_gamma", {"alpha": 9.0, "beta": 2.0})],
    )
    def test_no_adaptive_integral_meets_a_pearson_end(self, monkeypatch, family, params):
        # the ranges from a support end with tau' != 0 take the Gauss-Jacobi
        # rule, in the mesh's parts and in each solve; inverse gamma's
        # smooth zero at 0 (tau' = 0) stays adaptive.  A second solve on
        # the mesh integrates each adaptive range once.
        spec = cat.make_spec(family, **params)
        ruled = {a for a in spec.support if math.isfinite(a)} - ({0.0} if family == "inverse_gamma" else set())
        assert {a for a in spec.support if sv._end_exponent(spec, a) is not None} == ruled
        ranges = _recorded_ranges(monkeypatch)
        mesh = sv.build_mesh(spec)
        solve(spec, SineTest(1.0), mesh=mesh)
        del ranges[:]
        solve(spec, CosineTest(1.0), mesh=mesh)
        assert not ruled & {end for pair in ranges for end in pair}
        assert len(ranges) == len(set(ranges))


class TestRangesNextToDelicatePoints:
    """Each grid panel next to vg's origin or PRR's end at 0 is its own
    range, so only the panel that ends at the point meets it; the panels
    next to a finite first-order end stay F(b) - F(a) from the end, where
    the Gauss-Jacobi weight is a power of |x - a|.  PRR's ranges at 0 take
    a 20-point Gauss-Legendre rule, and a Pearson law's ranges that are
    not ruled take their mass from its closed-form CDF or survival
    function.  Tolerances are set once and never widened; the worst
    measured values are in brackets."""

    PRR_RULE_TOL = 2e-15  # Gauss-Legendre against special.integrate at epsrel 1e-13 (6.3e-16)
    MASS_TOL = 1e-14  # closed-form tail masses against special.integrate at epsrel 1e-13 (5.3e-15)

    @pytest.mark.parametrize("params", [{"r": 0.7, "theta": 1.2, "sigma": 0.6}, {"r": 3.0, "theta": 0.0, "sigma": 1.0}])
    def test_one_adaptive_range_per_vg_panel(self, monkeypatch, params):
        spec = cat.make_spec("vg", **params)
        mesh = sv.build_mesh(spec)
        ranges = _recorded_ranges(monkeypatch)
        solve(spec, SineTest(1.0), mesh=mesh)
        near = [i for i, d, _ in mesh.ranges if d == 0.0]
        assert len(near) == 10
        panels = [(float(mesh.grid[i]), float(mesh.grid[i + 1])) for i in near]
        finite = [r for r in ranges if all(map(math.isfinite, r))]
        # the I and the K kernel, each panel once; the expectation's
        # integral over the line and the two K tails are the rest
        assert sorted(finite) == sorted(panels * 2)
        assert sum(0.0 in r for r in finite) == 4

    @pytest.mark.parametrize("spec", [s for s in vf.default_sweep_specs() if s.family == "vg"], ids=lambda s: s.param_string())
    def test_no_vg_range_is_empty(self, monkeypatch, spec):
        # the I-kernel integral is anchored at the origin, a grid point,
        # where from_anchor takes 0 without an integral
        mesh = sv.build_mesh(spec)
        ranges = _recorded_ranges(monkeypatch)
        solve(spec, SineTest(1.0), mesh=mesh)
        assert ranges and all(a != b for a, b in ranges)

    @pytest.mark.parametrize("family,params", [("arcsine", {}), ("beta", {"alpha": 2.0, "beta": 3.0}), ("gamma", {"r": 0.320687, "lam": 1.83895})])
    def test_pearson_end_panels_stay_integrals_from_the_end(self, family, params):
        spec = cat.make_spec(family, **params)
        mesh = sv.build_mesh(spec)
        ends = sv._Ends(mesh, mesh.cached("density", lambda: spec.density(mesh.xs)))
        grid_end = dict(zip(spec.support, (float(mesh.grid[0]), float(mesh.grid[-1]))))
        for d in spec.delicate_points:
            near = [i for i, e, _ in mesh.ranges if e == d]
            assert {key for key in ends.keys if key[0] == d} == {
                (d, float(mesh.grid[j])) for i in near for j in (i, i + 1)
            } | {(d, grid_end[d])}
        assert not ends.adaptive or all(math.isinf(a) for a, _ in ends.adaptive)

    @pytest.mark.parametrize("s", [1.0, 4.9, 20.0])
    def test_prr_ranges_at_zero_take_the_fixed_rule(self, monkeypatch, s):
        spec = cat.make_spec("prr", s=s)
        mesh = sv.build_mesh(spec)
        ranges = _recorded_ranges(monkeypatch)
        h = CosineTest(1.3)
        sol = solve(spec, h, mesh=mesh)
        # only the tail beyond the grid is adaptive: p once per mesh, p h once per solve
        assert ranges == [(math.inf, float(mesh.grid[-1]))] * 2
        monkeypatch.undo()
        eh = sol.diagnostics["mean_value"]
        g_vals, _, _, ends = sv._split_integral(mesh, h, mesh.cached("prr_density", None))
        ruled = ends.keys[:len(ends.unit)]
        assert set(ruled) == {(0.0, float(mesh.grid[0]))} | {
            (float(mesh.grid[i]), float(mesh.grid[i + 1])) for i, d, _ in mesh.ranges if d == 0.0
        }
        # the rule against the adaptive integrals it replaced: p, p h and
        # the outer integrand g / (v kappa)
        g = sv.sf.Hermite(mesh.grid, g_vals, spec.density(mesh.grid) * (h.value(mesh.grid) - eh))
        integrands = (
            spec.density,
            lambda y: spec.density(y) * h.value(y),
            lambda y: g.at(y, _searched(mesh.grid, y)) / (spec.kernel_v(y) * spec.density(y)),
        )
        values = (ends.p[:len(ruled)], ends.integrals(h)[0][:len(ruled)], np.sum(ends.unit * integrands[2](ends.nodes), axis=1))
        for fn, got in zip(integrands, values):
            want = [sv.sf.integrate(fn, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in ruled]
            assert got == pytest.approx(want, rel=self.PRR_RULE_TOL, abs=0.0)

    @pytest.mark.parametrize(
        "family,params",
        [("normal", {}), ("gamma", {"r": 2.0, "lam": 1.0}), ("exponential", {"lam": 2.7}), ("student_t", {"d": 5.0, "delta": 0.5}),
         ("inverse_gamma", {"alpha": 4.0, "beta": 0.3}), ("inverse_gamma", {"alpha": 9.0, "beta": 2.0})],
    )
    def test_pearson_masses_in_closed_form(self, monkeypatch, family, params):
        spec = cat.make_spec(family, **params)
        mesh = sv.build_mesh(spec)
        ranges = _recorded_ranges(monkeypatch)
        ends = sv._Ends(mesh, mesh.cached("density", lambda: spec.density(mesh.xs)))
        assert ranges == []  # no adaptive call for p
        monkeypatch.undo()
        assert ends.adaptive and ends.p_error == 0.0
        got = ends.p[len(ends.unit):]
        want = [sv.sf.integrate(spec.density, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in ends.adaptive]
        assert got == pytest.approx(want, rel=self.MASS_TOL, abs=0.0)
        # the panel sums set the mass, as before: 8.9e-16 off 1 for inverse gamma(4, 0.3)
        assert abs(ends.mass - 1.0) <= 1e-15

    def test_mass_of_the_default_specs(self):
        # 3.3e-16 off 1 at most (inverse gamma(9, 2))
        for spec in vf.default_sweep_specs():
            if spec.family != "vg":
                assert abs(solve(spec, SineTest(1.0)).diagnostics["mass"] - 1.0) <= 4.5e-16, spec.family


def _rule_cases():
    """(spec, h) of every default-sweep spec with sine:1 and of every cell
    of tests/golden/verify_cells.json with its own test function."""
    cells = json.loads((Path(__file__).parent / "golden" / "verify_cells.json").read_text())
    kinds = {"SineTest": SineTest, "CosineTest": CosineTest}
    cases = [(spec, SineTest(1.0)) for spec in vf.default_sweep_specs()]
    cases += [(cat.make_spec(c["family"], **c["params"]), kinds[c["test_fn"]["kind"]](c["test_fn"]["freq"])) for c in cells]
    return cases


class TestPanelRule:
    """The G3/K7 panel rule, checked without derivative propagation: the
    solve's own values (f, and vg's analytic f') against a 20-point
    Gauss-Legendre reference mesh, and the panels' embedded error
    estimate, small on every such solve and above the true error of the
    K7 sum on coarse panels.  Both tolerances are set once and are never
    widened: the worst f today is 2.6e-15 (skewed vg) and the worst
    estimate 1.2e-11 (arcsine)."""

    VALUE_TOL = 1e-14  # times sup|f^(k)| of the reference
    PANEL_TOL = 1e-10  # diagnostics["panel_error"]: estimate over sum |panel|

    @pytest.mark.parametrize("spec,h", _rule_cases(), ids=lambda c: getattr(c, "family", None) or c.name)
    def test_agrees_with_a_gauss_legendre_20_reference(self, monkeypatch, spec, h):
        sol = solve(spec, h)
        assert sol.diagnostics["panel_error"] <= self.PANEL_TOL
        nodes, weights = np.polynomial.legendre.leggauss(20)
        monkeypatch.setattr(sv, "_NODES", nodes)
        monkeypatch.setattr(sv, "_WEIGHTS", np.stack([weights, weights], axis=1))
        monkeypatch.setattr(sv, "PANEL_NODES", 20)
        ref = solve(spec, h)
        assert sorted(sol.derivs) == sorted(ref.derivs)
        for k, want in ref.derivs.items():
            assert np.max(np.abs(sol.derivs[k] - want)) <= self.VALUE_TOL * np.max(np.abs(want)), k

    @pytest.mark.parametrize(
        "fn,exact",
        [
            (lambda x: 1.0 / (x + 0.01), math.log(101.0)),
            (lambda x: np.exp(8.0 * x), math.expm1(8.0) / 8.0),
            (lambda x: np.sqrt(x + 1e-3), (1.001 ** 1.5 - 1e-3 ** 1.5) / 1.5),
            (lambda x: np.cos(40.0 * x), math.sin(40.0) / 40.0),
        ],
    )
    @pytest.mark.parametrize("points", [3, 6, 11])
    def test_the_estimate_bounds_the_panel_sum_error(self, fn, exact, points):
        # coarse panels on [0, 1], so the K7 sum's error stands above rounding
        grid = np.linspace(0.0, 1.0, points)
        half = 0.5 * np.diff(grid)
        xs = (grid[:-1] + half)[:, None] + half[:, None] * sv._NODES
        mesh = sv.Mesh(spec=None, grid=grid, xs=xs, half=half, median=0.5, ranges=())
        integral = sv._Integral(mesh, fn(xs), {}, 0.0)
        error = abs(np.sum(integral.panels) - exact)
        assert 0.0 < error <= integral.panel_error * np.sum(np.abs(integral.panels))


class TestVgNodeBessels:
    """scipy evaluates the vg Bessel kernels at the anchors only (every grid
    step near the origin, then every _ANCHOR_STEPS-th) and at the nodes
    next to the origin; every other grid value and every node takes its ive
    and kve from the Taylor series of the anchor that owns it, each far
    anchor the 16 steps of its block, as matrix products with one table of
    offset powers, one pass (_vg_bessels) for the grid and the nodes.  The
    values form one table by |k|, which the panels left of the origin read
    mirrored, and match across BLAS thread counts.  The result is as
    accurate as scipy's direct (AMOS) evaluation."""

    TOLERANCE = 5e-13  # vs direct scipy; the worst of 72 draws and 11 corners of the window read 2.0e-13
    SERIES_ERROR = 1e-14  # vs mpmath: what the series may add to the anchor values' error
    # the seams spec: AMOS switches methods near z = 2 and z = 17-21
    SEAMS = (2.75, 1.25, 0.5625)
    TARGETS = (0.02, 0.5, 1.0, 1.9, 1.97, 2.0, 2.03, 2.1, 5.0, 10.0, 13.2, 17.0, 18.0, 19.0, 20.0, 20.7, 21.0, 30.0, 100.0, 230.0)

    @staticmethod
    def mesh_of(r, theta, sigma):
        mesh = sv.build_mesh(cat.make_spec("vg", r=r, theta=theta, sigma=sigma))
        nu, s2 = (r - 1.0) / 2.0, sigma * sigma
        return mesh, nu, math.sqrt(theta * theta + s2) / s2

    @classmethod
    def node_bessels(cls, r, theta, sigma):
        mesh, nu, alpha = cls.mesh_of(r, theta, sigma)
        return mesh, nu, alpha, *sv._vg_bessels(mesh, nu, alpha)[1:]

    def test_two_series_per_mesh(self, monkeypatch):
        # the grid values and the nodes step from one set of anchor series,
        # evaluated once per mesh: every solve on it reads the mesh's factors
        calls = []
        taylor = sv._bessel_taylor
        monkeypatch.setattr(sv, "_bessel_taylor", lambda *args: calls.append(args) or taylor(*args))
        spec = cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0)
        mesh = sv.build_mesh(spec)
        for h in (SineTest(1.0), CosineTest(1.0)):
            solve(spec, h, mesh=mesh)
        assert len(calls) == 2

    @staticmethod
    def anchor_z(mesh, nu, alpha, steps, band):
        """z at the anchor that owns each value at the given step count:
        its own below band, else the far anchor whose block of
        _ANCHOR_STEPS steps, from 8 below it to 7 above, holds the step."""
        first = sv._DIRECT_BAND - sv._ANCHOR_STEPS // 2
        owner = np.where(steps < band, steps, sv._DIRECT_BAND + (steps - first) // sv._ANCHOR_STEPS * sv._ANCHOR_STEPS)
        dx, _ = sv._vg_steps(mesh.grid)
        return alpha * (dx * owner)

    @staticmethod
    def check_against_mpmath(values, z, z_anchor, orders, nu, targets, spacing):
        """At the value nearest each target z, values[name] is within
        SERIES_ERROR of mpmath beyond the larger of AMOS's errors at its z
        and at its anchor's."""
        mpmath.mp.dps = 30
        scale = {"ive": lambda x: mpmath.exp(-x), "kve": mpmath.exp}
        bessel = {"ive": mpmath.besseli, "kve": mpmath.besselk}
        for target in targets:
            i = np.unravel_index(np.argmin(np.abs(z - target)), z.shape)
            assert abs(z[i] - target) <= spacing
            for (name, order), taylor in zip(orders, values):

                def error(value, x):
                    x = mpmath.mpf(float(x))
                    return float(abs(value / (bessel[name](nu + order, x) * scale[name](x)) - 1))

                direct = getattr(_sp, name)
                amos = max(error(direct(nu + order, z[i]), z[i]), error(direct(nu + order, z_anchor[i]), z_anchor[i]))
                assert error(taylor[i], z[i]) <= amos + TestVgNodeBessels.SERIES_ERROR, (name, order, z[i])

    # criterion 2's vg window
    @settings(max_examples=10)
    @given(r=st.floats(0.5, 6.0), theta=st.floats(-1.5, 1.5), sigma=st.floats(0.5, 2.0))
    def test_every_node_agrees_with_scipy(self, r, theta, sigma):
        mesh, nu, alpha, ive, kve = self.node_bessels(r, theta, sigma)
        z = alpha * np.abs(mesh.xs)
        assert np.max(np.abs(ive / _sp.ive(nu, z) - 1.0)) <= self.TOLERANCE
        assert np.max(np.abs(kve / _sp.kve(nu, z) - 1.0)) <= self.TOLERANCE

    @settings(max_examples=10)
    @given(r=st.floats(0.5, 6.0), theta=st.floats(-1.5, 1.5), sigma=st.floats(0.5, 2.0))
    def test_every_grid_value_agrees_with_scipy(self, r, theta, sigma):
        mesh, nu, alpha = self.mesh_of(r, theta, sigma)
        values = sv._vg_bessels(mesh, nu, alpha)[0]
        z = alpha * np.abs(mesh.grid)
        direct = np.stack([_sp.ive(nu, z), _sp.ive(nu + 1.0, z), _sp.kve(nu, z), _sp.kve(nu + 1.0, z)])
        origin = z == 0.0  # an anchor: scipy's value, NaN or inf for some nu
        assert np.array_equal(values[:, origin], direct[:, origin], equal_nan=True)
        assert np.max(np.abs(values[:, ~origin] / direct[:, ~origin] - 1.0)) <= self.TOLERANCE

    @settings(max_examples=10)
    @given(r=st.floats(0.5, 6.0), theta=st.floats(-1.5, 1.5), sigma=st.floats(0.5, 2.0))
    def test_the_grid_is_integer_steps_from_the_origin(self, r, theta, sigma):
        # the anchors and the Taylor steps index the grid by its step |k|
        grid = sv.build_mesh(cat.make_spec("vg", r=r, theta=theta, sigma=sigma)).grid
        dx, steps = sv._vg_steps(grid)
        assert np.array_equal(np.abs(grid), dx * steps)

    def test_nodes_against_mpmath_at_the_amos_seams(self):
        mesh, nu, alpha, ive, kve = self.node_bessels(*self.SEAMS)
        z = alpha * np.abs(mesh.xs)
        _, steps = sv._vg_steps(mesh.grid)
        # a panel counts its steps from its end nearer the origin, and the
        # panels below the first far anchor's block have their own anchors
        inner = np.broadcast_to(np.minimum(steps[:-1], steps[1:])[:, None], mesh.xs.shape)
        dx = mesh.grid[1] - mesh.grid[0]
        z_anchor = self.anchor_z(mesh, nu, alpha, inner, sv._DIRECT_BAND - sv._ANCHOR_STEPS // 2)
        self.check_against_mpmath((ive, kve), z, z_anchor, (("ive", 0), ("kve", 0)), nu, self.TARGETS, alpha * dx)

    def test_grid_values_against_mpmath_at_the_amos_seams(self):
        mesh, nu, alpha = self.mesh_of(*self.SEAMS)
        z = alpha * np.abs(mesh.grid)
        _, steps = sv._vg_steps(mesh.grid)
        z_anchor = self.anchor_z(mesh, nu, alpha, steps, sv._DIRECT_BAND)
        orders = (("ive", 0), ("ive", 1), ("kve", 0), ("kve", 1))
        values = sv._vg_bessels(mesh, nu, alpha)[0]
        dx = mesh.grid[1] - mesh.grid[0]
        self.check_against_mpmath(values, z, z_anchor, orders, nu, self.TARGETS, alpha * dx)

    def test_mirrored_nodes_take_the_same_values(self):
        # node j of panel -k-1 lies where node 6-j of panel k does, so the
        # two read one table of values by |k|
        for r, theta, sigma in ((3.0, 0.0, 1.0), (1.2, -1.2, 0.7)):
            mesh, nu, alpha, ive, kve = self.node_bessels(r, theta, sigma)
            _, steps = sv._vg_steps(mesh.grid)
            i0 = int(np.argmin(steps))
            overlap = min(i0, steps.size - 1 - i0)
            assert overlap > 1000
            for values in (ive, kve):
                right = values[i0:i0 + overlap]
                left = values[i0 - overlap:i0][::-1, ::-1]
                assert np.array_equal(left, right)

    def test_block_values_do_not_depend_on_the_blas_thread_count(self):
        # a threaded BLAS must not change the order of the series' sums
        laws = [(3.0, 0.0, 1.0), (0.6, 1.4, 0.55), (1.2, -1.2, 0.7)]
        script = (
            "import hashlib, math\n"
            "from steinbounds import catalog as cat, solver as sv\n"
            f"for r, theta, sigma in {laws!r}:\n"
            "    mesh = sv.build_mesh(cat.make_spec('vg', r=r, theta=theta, sigma=sigma))\n"
            "    nu, alpha = (r - 1.0) / 2.0, math.sqrt(theta * theta + sigma ** 2) / sigma ** 2\n"
            "    grid, ive, kve = sv._vg_bessels(mesh, nu, alpha)\n"
            "    for values in (ive, kve, grid):\n"
            "        print(hashlib.sha256(values.tobytes()).hexdigest())\n"
        )
        src = Path(sv.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        here = []
        for law in laws:
            grid, ive, kve = sv._vg_bessels(*self.mesh_of(*law))
            for values in (ive, kve, grid):
                here.append(hashlib.sha256(values.tobytes()).hexdigest())
        assert out.stdout.split() == here


class TestMeshFactorsAreEvaluatedOnce:
    """Every h-independent array of a solve is a mesh factor: evaluated
    once per mesh, and the vg Bessel values by scipy at the anchors only,
    the grid and the nodes taking theirs from the anchors by Taylor
    steps."""

    @staticmethod
    def record_points(monkeypatch, module, name):
        """Record the size of every argument that the solver passes to
        module.name as its second argument (0 for the nodes of one
        application of the adaptive rule: two intervals of 21 at most)."""
        sizes = []
        fn = getattr(module, name)

        def recorded(nu, x):
            sizes.append(np.size(x) if np.size(x) > 2 * 21 else 0)
            return fn(nu, x)

        monkeypatch.setattr(module, name, recorded)
        return sizes

    @staticmethod
    def three_solves(spec, mesh):
        for h in (SineTest(1.0), SineTest(2.0), CosineTest(1.0)):
            solve(spec, h, mesh=mesh)

    @staticmethod
    def bessel_points(mesh):
        """The anchors (every step of the direct band, then every
        _ANCHOR_STEPS-th out to the first at or past the grid's last
        step) and the nodes of the panels near the origin, once per |k|
        (the panels left of the origin take the values of those right of
        it)."""
        dx, steps = sv._vg_steps(mesh.grid)
        anchors = sv._DIRECT_BAND + len(range(sv._DIRECT_BAND, steps.max() + sv._ANCHOR_STEPS, sv._ANCHOR_STEPS))
        near = np.count_nonzero((0.0 < mesh.xs) & (mesh.xs < sv._DIRECT_STEPS * dx))
        return anchors, near

    @pytest.mark.parametrize(
        "family,params",
        [("beta", {"alpha": 2.0, "beta": 3.0}), ("prr", {"s": 2.5}), ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0})],
    )
    def test_cached_arrays_are_read_only_and_the_range_table_immutable(self, family, params):
        spec = cat.make_spec(family, **params)
        mesh = sv.build_mesh(spec)
        solve(spec, SineTest(1.0), mesh=mesh)
        arrays = [value for value in mesh._memo.values() if isinstance(value, np.ndarray)]
        assert arrays or family == "vg"  # vg keeps one tuple of arrays, read-only by its own build
        assert not any(array.flags.writeable for array in arrays)
        built = []
        first = mesh.cached("probe", lambda: built.append(1) or np.zeros(3))
        assert mesh.cached("probe", lambda: built.append(2) or np.ones(3)) is first and built == [1]
        # one row per panel next to a delicate point, each a tuple of tuples
        assert isinstance(mesh.ranges, tuple) and mesh.ranges
        assert all(isinstance(row, tuple) and isinstance(row[2], tuple) for row in mesh.ranges)
        assert len({i for i, _, _ in mesh.ranges}) == len(mesh.ranges)

    def test_vg_scaled_bessels_at_the_anchors_and_the_near_origin_nodes(self, monkeypatch):
        spec = cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0)
        mesh = sv.build_mesh(spec)
        anchors, near = self.bessel_points(mesh)
        assert 0 < near < 0.01 * mesh.xs.size
        assert 4 * anchors + 2 * near <= 5000  # 40.7k when every distinct |x| of the grid called scipy
        ive = self.record_points(monkeypatch, sv.sf, "ive")
        kve = self.record_points(monkeypatch, sv.sf, "kve")
        self.three_solves(spec, mesh)
        # orders nu and nu + 1 at the anchors, then order nu at the nodes
        # that the series cannot reach; zeros are the adaptive quadratures'
        arrays = [n for n in ive if n], [n for n in kve if n]
        assert arrays == ([anchors, anchors, near], [anchors, anchors, near])

    def test_vg_solver_calls_no_unscaled_bessel(self, monkeypatch):
        spec = cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0)
        mesh = sv.build_mesh(spec)
        bessel_i = self.record_points(monkeypatch, sv.sf, "bessel_i")
        bessel_k = self.record_points(monkeypatch, sv.sf, "bessel_k")
        ive = self.record_points(monkeypatch, sv.sf, "ive")
        self.three_solves(spec, mesh)
        assert bessel_i == bessel_k == []
        anchors, near = self.bessel_points(mesh)
        assert [n for n in ive if n] == [anchors, anchors, near]
        assert sum(ive) == 2 * anchors + near

    def test_prr_u_once_at_the_nodes(self):
        # the density factor and v * kappa both come from one U node factor
        u_calls, density_calls = [], []
        base = cat.make_spec("prr", s=5.0)

        def kernel_v(x):
            u_calls.append(np.shape(x))
            return base.kernel_v(x)

        def density(x):
            density_calls.append(np.shape(x))
            return base.density(x)

        spec = replace(base, pdf=density, kernel_v=kernel_v)
        mesh = sv.build_mesh(spec)
        solve(spec, SineTest(1.0), mesh=mesh)
        assert u_calls.count(mesh.xs.shape) == 1
        assert mesh.xs.shape not in density_calls


def _searched(x, y):
    """The interval of y that searchsorted finds among the knots x."""
    return np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)


class TestPrrInterpolantAtTheNodes:
    """PRR's g is evaluated at the nodes by their own grid panel: node row
    i lies inside panel i, so no search finds it."""

    def test_panel_evaluation_equals_the_searched_one_bit_for_bit(self):
        for s in (1.0, 4.9, 19.2):
            mesh = sv.build_mesh(cat.make_spec("prr", s=s))
            grid = mesh.grid
            g = sv.sf.Hermite(grid, np.sin(grid) * np.exp(-grid), np.cos(grid) - grid)
            rows = np.arange(grid.size - 1)[:, None]
            assert np.array_equal(g.at(mesh.xs, rows), g.at(mesh.xs, _searched(grid, mesh.xs)))

    @pytest.mark.parametrize("s", [1.0, 4.9, 19.2])
    def test_every_named_interval_is_the_searched_one(self, monkeypatch, s):
        # node row i takes panel i, each Gauss-Legendre end row the panel
        # it integrates and the range from 0 the first: the interval a
        # search finds for every point
        spec = cat.make_spec("prr", s=s)
        mesh = sv.build_mesh(spec)
        named, at = [], sv.sf.Hermite.at

        def recorded(self, y, i):
            named.append((y, i))
            return at(self, y, i)

        monkeypatch.setattr(sv.sf.Hermite, "at", recorded)
        solve(spec, CosineTest(1.3), mesh=mesh)
        assert [np.shape(y)[0] for y, _ in named] == [sum(d == 0.0 for _, d, _ in mesh.ranges) + 1, mesh.grid.size - 1]
        for y, i in named:
            assert np.array_equal(np.broadcast_to(i, y.shape), _searched(mesh.grid, y))

    def test_a_prr_solve_searches_no_array_of_the_nodes(self, monkeypatch):
        spec = cat.make_spec("prr", s=7.3)
        mesh = sv.build_mesh(spec)
        sizes = []
        search = np.searchsorted

        def counted(a, v, *args, **kwargs):
            sizes.append(np.size(v))
            return search(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        solve(spec, SineTest(1.0), mesh=mesh)
        assert sizes and mesh.xs.size not in sizes
