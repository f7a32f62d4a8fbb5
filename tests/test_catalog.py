"""Catalog: densities, schemes, closed forms, special constants, windows."""

import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from steinbounds import catalog as cat
from steinbounds import closedform as cf
from steinbounds.engine import NormSymbol, mixed_coupled_bound, value_coupled_bound, deriv_coupled_bound
from steinbounds.errors import ValidityError
from steinbounds.solver import build_mesh
from steinbounds.special import hyp_u, log_gamma

ALL_SOLVABLE = [
    ("normal", {}),
    ("gamma", {"r": 2.0, "lam": 1.0}),
    ("gamma", {"r": 0.7, "lam": 2.5}),
    ("exponential", {"lam": 1.0}),
    ("beta", {"alpha": 2.0, "beta": 3.0}),
    ("beta", {"alpha": 0.6, "beta": 1.4}),
    ("arcsine", {}),
    ("student_t", {"d": 9.0, "delta": 3.0}),
    ("inverse_gamma", {"alpha": 9.0, "beta": 2.0}),
    ("prr", {"s": 0.5}),
    ("prr", {"s": 1.0}),
    ("prr", {"s": 2.5}),
    ("vg", {"r": 3.0, "theta": 0.0, "sigma": 1.0}),
    ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0}),
    ("vg", {"r": 1.5, "theta": -0.4, "sigma": 0.8}),
    ("quartic", {}),
]


class TestRegistry:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cat.make_spec("cauchy")

    def test_unknown_and_missing_params(self):
        with pytest.raises(ValueError):
            cat.make_spec("normal", r=1.0)
        with pytest.raises(ValueError):
            cat.make_spec("gamma", r=1.0)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            cat.make_spec("gamma", r=-1.0, lam=1.0)
        with pytest.raises(ValueError):
            cat.make_spec("prr", s=0.7)
        with pytest.raises(ValueError):
            cat.make_spec("vg", r=1.0, theta=0.0, sigma=0.0)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True)], ids=repr)
    def test_bool_values_are_rejected(self, value):
        # r=True built gamma(1, 1), while bound_for rejects a bool order
        with pytest.raises(ValueError, match=f"gamma parameter r must be a number, got {value!r}"):
            cat.make_spec("gamma", r=value, lam=1.0)
        with pytest.raises(ValueError, match="mvn parameter dim must be a number"):
            cat.make_spec("mvn", dim=value)

    def test_non_finite_values_are_named(self):
        with pytest.raises(ValueError, match="beta parameter alpha must be finite"):
            cat.make_spec("beta", alpha=math.nan, beta=2.0)
        with pytest.raises(ValueError, match="mvn parameter row_norms must be finite"):
            cat.make_spec("mvn", dim=2, row_norms=(1.0, math.nan))


class TestDensities:
    @pytest.mark.parametrize("family,params", ALL_SOLVABLE)
    def test_normalization(self, family, params):
        spec = cat.make_spec(family, **params)
        lo, hi = spec.support
        pts = [p for p in spec.delicate_points if lo < p < hi]
        sections = [lo, *pts, hi]
        total = 0.0
        for a, b in zip(sections[:-1], sections[1:]):
            val, _ = integrate.quad(lambda t: float(spec.density(t)), a, b, limit=300)
            total += val
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("family,params", ALL_SOLVABLE + [("prr", {"s": 4.0})])
    def test_zero_at_infinity_and_nan(self, family, params):
        # with RuntimeWarnings as errors: no inf - inf, 0 * inf or NaN
        # in any factor
        spec = cat.make_spec(family, **params)
        points = [-math.inf, math.inf, math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = spec.density(np.array([0.3, *points]))
            scalars = [spec.density(x) for x in points]
        assert values[0] > 0.0
        assert values[1:].tolist() == scalars == [0.0, 0.0, 0.0]

    def test_scalar_and_vector_agree(self):
        spec = cat.make_spec("vg", r=3.0, theta=0.5, sigma=1.0)
        xs = np.array([-2.0, -0.3, 0.4, 5.0])
        vec = spec.density(xs)
        for x, v in zip(xs, vec):
            assert spec.density(float(x)) == pytest.approx(v, rel=1e-13)


class TestPrrUTable:
    """v(x) = U(s-1, 1/2, x^2/(2s)) from the 14-term Taylor series of the
    nearest of 189 anchors, which alone call the DE rule."""

    def test_table_build_runs_no_adaptive_quadrature(self, monkeypatch):
        monkeypatch.setattr(cat.sf, "integrate", None)
        coeffs, x0, x_hi = cat._prr_u_table.__wrapped__(5.67)
        assert len(coeffs) == 14 and all(np.all(np.isfinite(c)) for c in coeffs)
        assert x0[-1] == x_hi > 0.0

    @staticmethod
    def _assert_near_mpmath(s, xs):
        # within 2e-14 relative of 30-digit mpmath (U' relative to
        # max(|U'|, |U|), as U' = 0 at s = 1); the anchors' DE rule is
        # within 2.3e-14 of U
        values, slopes = cat._prr_u_function(s, xs), cat._prr_u_slope(s, xs)
        with mpmath.workdps(30):
            for x, v, dv in zip(xs, values, slopes):
                z = mpmath.mpf(x) ** 2 / (2 * s)
                u = mpmath.hyperu(s - 1, 0.5, z)
                du = -(s - 1) * mpmath.hyperu(s, 1.5, z) * x / s
                assert abs(v - u) <= 2e-14 * abs(u), x
                assert abs(dv - du) <= 2e-14 * max(abs(du), abs(u)), x

    @pytest.mark.parametrize("s", [0.5, 1.5, 4.67, 12.0, 20.0])
    def test_table_and_slope_against_mpmath(self, s):
        # U and U' near x = 0, at anchors, half a spacing from an anchor
        # (the longest step) and up to x_hi
        _, x0, x_hi = cat._prr_u_table(s)
        halfway = x0[1:-1:12] + 0.5 * x0[1]
        xs = np.concatenate([[1e-9, 1e-4, 0.003], x0[5:-1:23], halfway, [0.5 * (x0[-2] + x_hi), x_hi]])
        assert xs.max() == x_hi and len(halfway) >= 15
        self._assert_near_mpmath(s, xs)

    @settings(max_examples=60)
    @given(
        s=st.one_of(st.just(0.5), st.floats(1.0, 20.0)),
        share=st.floats(0.0, 1.0, exclude_min=True),
    )
    @example(s=20.0, share=1.0)
    @example(s=20.0, share=1e-9)
    @example(s=0.5, share=1e-5)
    def test_table_and_slope_against_mpmath_at_any_point(self, s, share):
        # the same bounds at any x in (0, x_hi] and any s in {1/2}, [1, 20]
        self._assert_near_mpmath(s, np.array([share * cat._prr_u_table(s)[2]]))

    def test_table_is_exact_where_u_is_elementary(self):
        # s = 1: U(0, 1/2, z) = 1, so every series coefficient past the
        # first is 0: v is 1 and its slope 0 everywhere
        _, x0, x_hi = cat._prr_u_table(1.0)
        xs = np.concatenate([np.linspace(0.0, x_hi, 3001), x0[:-1] + 0.5 * x0[1]])
        assert np.all(cat._prr_u_function(1.0, xs) == 1.0) and np.all(cat._prr_u_slope(1.0, xs) == 0.0)
        # s = 1/2: U(-1/2, 1/2, x^2) = x; the anchors keep it exactly, x = 0
        # included, and the points that step from x = 0 take its slope
        # limit, 1 to within an ulp, down to the subnormals
        _, x0, x_hi = cat._prr_u_table(0.5)
        xs = np.r_[np.linspace(0.0, x_hi, 30001)[1:], 1e-200, 3.3e-230, 5e-324]
        v = cat._prr_u_function(0.5, xs)
        assert cat._prr_u_function(0.5, 0.0) == 0.0
        assert np.all(cat._prr_u_function(0.5, x0[1:]) == x0[1:])
        assert np.all(np.abs(v - xs) <= 2.3e-16 * xs)
        assert np.all(np.abs(cat._prr_u_slope(0.5, np.r_[0.0, xs]) - 1.0) <= 1e-15)

    def test_table_build_sends_189_points_to_the_de_rule(self, monkeypatch):
        # hyp_u_with_slope runs at the 189 anchors (anchor 0 then takes its
        # slope limit); each anchor keeps the rule's U and U' exactly
        s, calls = 7.3, []
        rule = cat.sf.hyp_u_with_slope

        def recorded(a, b, x):
            out = rule(a, b, x)
            calls.append((np.size(x), out))
            return out

        monkeypatch.setattr(cat.sf, "hyp_u_with_slope", recorded)
        coeffs, x0, _ = cat._prr_u_table.__wrapped__(s)
        monkeypatch.setattr(cat, "_prr_u_table", lambda _: (coeffs, x0, x0[-1]))
        ((size, (values, slopes)),) = calls
        assert size == x0.size == 189
        assert np.array_equal(cat._prr_u_function(s, x0), values)
        assert np.array_equal(cat._prr_u_slope(s, x0[1:]), slopes[1:] * x0[1:] / s)

    def test_deep_tail_values_are_direct_evaluations(self):
        # beyond the series, each point gets U from hyp_u on the far points
        # alone; the values equal a pointwise evaluation bit for bit
        s = 5.67
        x_hi = cat._prr_u_table(s)[2]
        xs = np.array([0.5, 0.5 * x_hi, x_hi + 1.0, 2.0 * x_hi])
        got = cat._prr_u_function(s, xs)
        for x, v in zip(xs[2:], got[2:]):
            assert v == hyp_u(s - 1.0, 0.5, x * x / (2.0 * s))
            assert cat._prr_u_function(s, float(x)) == v

    def test_nan_gives_nan_and_a_float_gives_a_float(self):
        s = 4.9
        xs = np.array([np.nan, 0.7, -0.7, 3.1])
        got = cat._prr_u_function(s, xs)
        assert np.isnan(got[0]) and got[1] == got[2] and np.isnan(cat._prr_u_slope(s, xs[:1]))
        for x, v in zip(xs[1:], got[1:]):
            assert type(cat._prr_u_function(s, float(x))) is float
            assert cat._prr_u_function(s, float(x)) == cat._prr_u_function(s, np.array(x)) == v
        assert type(cat._prr_u_function(s, np.array(0.7))) is float
        assert math.isnan(cat._prr_u_function(s, math.nan))
        assert cat._prr_u_slope(s, np.array(0.7)) == cat._prr_u_slope(s, xs)[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s, limit", [(1.7, 0.0), (20.0, 0.0), (1.0, 1.0), (0.5, math.inf)])
    def test_infinity_gives_the_limit(self, s, limit):
        # U(s-1, 1/2, z) -> 0 for s > 1 (the DE rule's x / (1 + x) was
        # inf / inf there: NaN and a RuntimeWarning), 1 at s = 1, sqrt(z)
        # at s = 1/2
        assert cat._prr_u_function(s, np.inf) == limit
        assert list(cat._prr_u_function(s, np.array([np.inf, -np.inf]))) == [limit, limit]
        assert cat.sf.hyp_u_with_slope(s - 1.0, 0.5, np.array([2.0, np.inf]))[1][1] == 0.0

    def test_slope_table_covers_every_grid(self):
        # PRR's f' reads v' off the series: every grid lies inside [0, x_hi]
        for s in (0.5, 1.0, 20.0):
            grid = build_mesh(cat.make_spec("prr", s=s)).grid
            assert 0.0 < grid[0] and grid[-1] < cat._prr_u_table(s)[2]


class TestVgScaleConstant:
    def test_tiny_theta_reaches_the_symmetric_limit(self):
        # (sigma/theta)^2 overflows for |theta| below ~1e-154; the bracket
        # it enters is 1 to double precision there
        assert cat.vg_scale_constant(1.0, 1e-300, 1.0) == cat.vg_scale_constant(1.0, 0.0, 1.0)
        assert cat.vg_scale_constant(1.0, -2.5e-298, 0.7) == cat.vg_scale_constant(1.0, 0.0, 0.7)
        cat.make_spec("vg", r=1.0, theta=2.5e-298, sigma=1.0)


class TestSchemes:
    def test_normal_scheme_values(self):
        spec = cat.make_spec("normal")
        sch = spec.scheme
        assert [sch.a(j) for j in range(4)] == [1.0, 2.0, 3.0, 4.0]
        assert sch.c_level(0) == pytest.approx(1.2533141373155003, rel=1e-12)
        assert sch.d_level(5) == 2.0

    def test_student_t_level_zero(self):
        spec = cat.make_spec("student_t", d=9.0, delta=3.0)
        sch = spec.scheme
        assert sch.a(0) == pytest.approx(8.0)
        # sqrt(pi) Gamma(4.5) / (2 * 3 * Gamma(5)); mpmath 0.14317154020266
        assert sch.c_level(0) == pytest.approx(0.1431715402026598, rel=1e-12)

    def test_vg_symmetric_first_derivative_constant(self):
        spec = cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0)
        assert spec.scheme.d_level(0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_gamma_order_zero_constant(self):
        assert cat.gamma_solution_constant(1.0) == pytest.approx(math.e, rel=1e-13)

    def test_beta_cumulative_coupling(self):
        spec = cat.make_spec("beta", alpha=2.0, beta=3.0)
        sch = spec.scheme
        # cumulative sums of the per-level increments alpha + beta + 2i
        for j in range(6):
            assert sch.a(j) == pytest.approx(sum(5.0 + 2.0 * i for i in range(j + 1)))
            assert sch.a(j) == pytest.approx((j + 1) * (5.0 + j))


class TestWindows:
    def test_student_t_windows(self):
        spec = cat.make_spec("student_t", d=9.0, delta=3.0)
        assert spec.max_order("lemma23i") == 4
        assert spec.max_order("lemma23ii") == 5
        with pytest.raises(ValidityError, match="exceeds the validity window"):
            cf.bound_for(spec, 5, "lemma23i")

    @pytest.mark.parametrize("order", [2.5, math.inf, math.nan, -2.0, True, False, np.bool_(True), -1, np.int64(-2), "2"], ids=repr)
    def test_order_that_is_no_natural_number_is_rejected(self, order):
        # 2.5 once gave a bound on ||h^(1.5)||, and True was read as order 1
        spec = cat.make_spec("normal")
        for mode in ("two-prev", None):
            with pytest.raises(ValidityError, match="derivative order must be an integer >= 0"):
                cf.bound_for(spec, order, mode)

    @pytest.mark.parametrize("order", [np.int64(3), 3.0, np.float64(3.0)], ids=repr)
    def test_integral_order_of_another_type_is_an_order(self, order):
        spec = cat.make_spec("normal")
        assert cf.bound_for(spec, order) == cf.bound_for(spec, 3)

    def test_inverse_gamma_window(self):
        spec = cat.make_spec("inverse_gamma", alpha=9.0, beta=2.0)
        assert spec.max_order("lemma23i") == 3
        with pytest.raises(ValidityError):
            cf.bound_for(spec, 4, "lemma23i")

    def test_level_constant_raises_outside_window(self):
        spec = cat.make_spec("student_t", d=5.0, delta=1.0)
        with pytest.raises(ValidityError):
            spec.scheme.c_level(3)


class TestQuantiles:
    def test_normal_median(self):
        spec = cat.make_spec("normal")
        assert cat.quantile(spec, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_gamma_quantiles_vs_scipy(self):
        spec = cat.make_spec("gamma", r=2.0, lam=1.0)
        for p in (1e-6, 0.25, 0.9):
            assert cat.quantile(spec, p) == pytest.approx(stats.gamma.ppf(p, 2.0), rel=1e-7, abs=1e-9)

    def test_beta_median_vs_scipy(self):
        assert cat.beta_median(2.0, 3.0) == pytest.approx(stats.beta.median(2.0, 3.0), abs=1e-10)
        assert cat.beta_median(0.5, 0.5) == pytest.approx(0.5, abs=1e-10)


class TestVgConstants:
    def test_symmetric_upper_branch(self):
        f_coef, fp_coef = cat.vg_base_constants(3.0, 0.0, 1.0)
        # (2/3 + pi/2); mpmath 2.237462993461563
        assert f_coef == pytest.approx(2.2374629934615633, rel=1e-12)
        assert fp_coef == pytest.approx(f_coef, rel=1e-12)  # sigma = root = 1

    def test_lower_branch_value(self):
        # 6 Gamma(1/2) (1 - 1/sqrt(2))^(-1/2); mpmath 19.65040602206902
        c = cat.vg_scale_constant(1.0, 1.0, 1.0)
        assert c == pytest.approx(19.650406022069017, rel=1e-12)

    def test_theta_zero_limit_of_upper_branch(self):
        for r in (2.0, 3.5, 7.0):
            want = math.sqrt(math.pi) * math.exp(log_gamma(r / 2.0) - log_gamma((r + 1.0) / 2.0))
            assert cat.vg_scale_constant(r, 0.0, 1.0) == pytest.approx(want, rel=1e-13)

    def test_bessel_tail_constant_branches(self):
        want = math.sqrt(math.pi) * math.exp(log_gamma(1.5) - log_gamma(2.0))
        assert cat.bessel_tail_constant(1.0, 0.0) == pytest.approx(want, rel=1e-13)
        low = cat.bessel_tail_constant(0.25, 0.5)
        assert low == pytest.approx(6.0 * math.exp(log_gamma(0.75)) / 0.5, rel=1e-13)
        with pytest.raises(ValueError):
            cat.bessel_tail_constant(-0.6, 0.0)


class TestQuarticCoefficients:
    def test_order_zero(self):
        assert cat.quartic_a_coeffs(0) == (1.0,)

    def test_order_one(self):
        a0, a1 = cat.quartic_a_coeffs(1)
        assert a1 == 1.0
        # 3/(6 c1)^(1/3); mpmath 2.476203320048301
        assert a0 == pytest.approx(2.4762033200483013, rel=1e-12)

    def test_order_three_recursion_hand_unrolled(self):
        c1 = cat.quartic_normalizer()
        u1, u2, u3 = (6 * c1) ** (1 / 3), (6 * c1) ** (2 / 3), 6 * c1
        rows = [cat.quartic_a_coeffs(n) for n in range(4)]
        expect = 9.0 / u1 * rows[2][0] + 18.0 / u2 * rows[1][0] + 6.0 / u3 * rows[0][0]
        assert rows[3][0] == pytest.approx(expect, rel=1e-13)

    def test_recursion_reproduces_seeds(self):
        c1 = cat.quartic_normalizer()
        u1, u2 = (6 * c1) ** (1 / 3), (6 * c1) ** (2 / 3)
        for n in range(3, 9):
            row = cat.quartic_a_coeffs(n)
            assert row[n] == 1.0
            assert row[n - 1] == pytest.approx(3.0 * n / u1, rel=1e-13)
            assert row[n - 2] == pytest.approx(12.0 * n * (n - 1) / u2, rel=1e-13)
            # the three-term recursion applied at the seed positions gives
            # the same values back
            prev1, prev2 = cat.quartic_a_coeffs(n - 1), cat.quartic_a_coeffs(n - 2)
            assert row[n - 1] == pytest.approx(3.0 * n / u1 * prev1[n - 1], rel=1e-13)
            assert row[n - 2] == pytest.approx(
                3.0 * n / u1 * prev1[n - 2] + 3.0 * n * (n - 1) / u2 * prev2[n - 2], rel=1e-13
            )


class TestQuarticBounds:
    def test_bounded_order_zero(self):
        bc = cf.bound_for(cat.make_spec("quartic"), 0, "bounded")
        assert bc.get(NormSymbol.centered()) == pytest.approx(1.6870050989000126, rel=1e-12)

    def test_iterated_order_zero_falls_back(self):
        bc = cf.bound_for(cat.make_spec("quartic"), 0, "iterated")
        assert bc.get(NormSymbol.centered()) == pytest.approx(1.6870050989000126, rel=1e-12)

    def test_iterated_order_one(self):
        bc = cf.bound_for(cat.make_spec("quartic"), 1, "iterated")
        assert bc.items() == [(NormSymbol.centered(), pytest.approx(2.0))]

    def test_lipschitz_table(self):
        spec = cat.make_spec("quartic")
        assert cf.bound_for(spec, 2, "lipschitz").get(NormSymbol.test_deriv(1)) == 4.0
        assert cf.bound_for(spec, 2, "lipschitz_iterated").get(NormSymbol.test_deriv(1)) == 8.0
        with pytest.raises(ValidityError):
            cf.bound_for(spec, 3, "lipschitz")


class TestMvnBounds:
    def test_flat_partial(self):
        bc = cf.bound_for(cat.make_spec("mvn", dim=2), 2, "partial")
        assert bc.items() == [(NormSymbol.test_deriv(2), pytest.approx(0.5))]

    def test_first_derivative(self):
        bc = cf.bound_for(cat.make_spec("mvn", dim=2, row_norms=(2.0, 1.0)), 1, "first")
        assert bc.get(NormSymbol.centered()) == pytest.approx(2.0 * math.sqrt(math.pi / 2.0), rel=1e-13)

    def test_derivative_trading(self):
        bc = cf.bound_for(cat.make_spec("mvn", dim=2), 2, "lower")
        # Gamma(1)/(sqrt(2) Gamma(1.5)) = sqrt(2/pi)
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(0.7978845608028654, rel=1e-12)

    def test_iterated_identity_covariance(self):
        bc = cf.bound_for(cat.make_spec("mvn", dim=3), 2, "iterated")
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(1.2533141373155003, rel=1e-12)
        assert bc.get(NormSymbol.centered()) == pytest.approx(math.pi / 2.0, rel=1e-12)
        with pytest.raises(ValidityError):
            cf.bound_for(cat.make_spec("mvn", dim=2, row_norms=(2.0, 1.0)), 2, "iterated")

    def test_order_zero_unsupported(self):
        with pytest.raises(ValidityError):
            cf.bound_for(cat.make_spec("mvn", dim=1), 0, "partial")

    @pytest.mark.parametrize("norms", [[1.0, math.nan], [math.nan, 1.0], [1.0, math.inf]])
    def test_non_finite_row_norm_is_rejected(self, norms):
        with pytest.raises(ValueError, match="finite"):
            cf.bound_for(cat.make_spec("mvn", dim=2, row_norms=norms), 1, "first")

    @pytest.mark.parametrize("norms", [(math.nan, 1.0), (1.0, math.inf), (1.0, -0.5), (1.0,)])
    def test_constructor_rejects_bad_row_norms(self, norms):
        # the constructor is the one row-norm check, without make_spec's
        # finiteness check in front of it
        with pytest.raises(ValueError, match="row_norms must be dim finite nonnegative reals"):
            cat.REGISTRY["mvn"](2, norms)

    def test_non_integral_dim_is_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            cat.make_spec("mvn", dim=2.5)
        spec = cat.make_spec("mvn", dim=2.0)
        assert spec.params == {"dim": 2} and spec.extras["row_norms"] == [1.0, 1.0]


class TestRefinedConstants:
    def test_exponential(self):
        table = cat.refined_small_case_constants("exponential", lam=2.0)
        assert table["f"].get(NormSymbol.test_deriv(1)) == pytest.approx(0.5)
        assert table["f'"].get(NormSymbol.test_deriv(1)) == pytest.approx(1.0)
        assert table["f''"].get(NormSymbol.test_deriv(1)) == pytest.approx(4.0 / 3.0)
        assert table["f''"].get(NormSymbol.test_deriv(2)) == pytest.approx(2.0 / 3.0)

    def test_beta_lipschitz_table_branches(self):
        assert cat.beta_lipschitz_constant(1.0, 1.0) == pytest.approx(4.0, rel=1e-12)
        assert cat.beta_lipschitz_constant(0.5, 0.5) == pytest.approx(4.0)
        b = math.exp(log_gamma(0.5) + log_gamma(0.8) - log_gamma(1.3))
        assert cat.beta_lipschitz_constant(0.5, 0.8) == pytest.approx(2.0 * 1.3 * b, rel=1e-12)
        assert cat.beta_lipschitz_constant(0.5, 2.0) == pytest.approx(2.0 * 2.5 / 0.5, rel=1e-12)
        assert cat.beta_lipschitz_constant(2.0, 0.5) == pytest.approx(2.0 * 2.5 / 0.5, rel=1e-12)
        assert cat.beta_lipschitz_constant(2.0, 2.0) == pytest.approx(
            2.0 * 2.0 * math.sqrt(math.pi) * math.exp(log_gamma(2.0) - log_gamma(2.5)), rel=1e-12
        )

    def test_arcsine_table(self):
        table = cat.refined_small_case_constants("arcsine")
        assert table["f'"].get(NormSymbol.test_deriv(1)) == pytest.approx(4.0)
        assert table["f''"].get(NormSymbol.test_deriv(1)) == pytest.approx(6.0 * math.pi, rel=1e-13)
        assert table["f''"].get(NormSymbol.test_deriv(2)) == pytest.approx(1.5 * math.pi, rel=1e-13)
        assert set(table) == {"f'", "f''"}

    def test_beta_median_bound(self):
        table = cat.refined_small_case_constants("beta", alpha=2.0, beta=3.0)
        m = cat.beta_median(2.0, 3.0)
        p_m = float(cat.make_spec("beta", alpha=2.0, beta=3.0).density(m))
        assert table["f"].get(NormSymbol.centered()) == pytest.approx(
            1.0 / (2.0 * m * (1.0 - m) * p_m), rel=1e-10
        )


class TestLangevinExponents:
    def test_examples(self):
        assert cat.langevin_exponents(0.1, 1.0, 2.0, 3.0) == pytest.approx((0.1, 0.1, 0.5, 1.0, 1.5))
        assert cat.langevin_exponents(0.1, 0.0, 0.0, 0.0) == pytest.approx((0.1,) * 5)
        assert cat.langevin_exponents(2.0, 1.0, 2.0, 3.0) == pytest.approx((2.0,) * 5)

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            cat.langevin_exponents(0.0, 1.0, 1.0, 1.0)


class TestGammaOneStep:
    def test_reference_values(self):
        bc = cf.bound_for(cat.make_spec("gamma", r=1.0, lam=1.0), 1, "onestep")
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(math.e ** 2 / 2.0, rel=1e-12)
        bc = cf.bound_for(cat.make_spec("gamma", r=2.0, lam=1.0), 1, "onestep")
        # 2 e^3 Gamma(3) / 27; mpmath 2.975635099731506
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(2.9756350997315063, rel=1e-12)

    def test_starts_at_order_one(self):
        with pytest.raises(ValidityError):
            cf.bound_for(cat.make_spec("gamma", r=1.0, lam=1.0), 0, "onestep")


class TestEngineAgainstClosedForms:
    @pytest.mark.parametrize(
        "family,params,mode,n_lo",
        [
            ("normal", {}, "i", 0),
            ("normal", {}, "ii", 0),
            ("gamma", {"r": 1.7, "lam": 0.8}, "i", 0),
            ("beta", {"alpha": 1.2, "beta": 2.4}, "i", 0),
            ("beta", {"alpha": 1.2, "beta": 2.4}, "iii", 1),
            ("arcsine", {}, "i", 0),
            ("student_t", {"d": 19.0, "delta": 2.0}, "i", 0),
            ("student_t", {"d": 19.0, "delta": 2.0}, "ii", 1),
            ("inverse_gamma", {"alpha": 18.0, "beta": 1.5}, "i", 0),
            ("prr", {"s": 3.0}, "i", 1),
            ("prr", {"s": 3.0}, "ii", 1),
            ("prr", {"s": 0.5}, "ii", 1),
            ("vg", {"r": 2.2, "theta": 0.0, "sigma": 1.4}, "ii", 0),
        ],
    )
    def test_agreement(self, family, params, mode, n_lo):
        spec = cat.make_spec(family, **params)
        for n in range(n_lo, 9):
            closed = cf.closed_form_bound(spec, n, mode)
            if spec.coupling_kind == "value":
                engine = value_coupled_bound(spec.scheme, mode, n)
            else:
                engine = deriv_coupled_bound(spec.scheme, mode, n)
            assert engine.allclose(closed), (family, mode, n)

    def test_vg_general_display_matches_mixed_chain(self):
        spec = cat.make_spec("vg", r=2.5, theta=0.7, sigma=1.1)
        for n in range(2, 8):
            closed = cf.closed_form_bound(spec, n, "mixed")
            engine = mixed_coupled_bound(spec.scheme, n - 1)
            assert engine.allclose(closed), n

    def test_vg_symmetric_chain_recovers_first_derivative_base(self):
        spec = cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0)
        closed = cf.closed_form_bound(spec, 1, "ii")
        assert closed.items() == [(NormSymbol.centered(), pytest.approx(2.0 / 3.0, rel=1e-13))]


# The eleven default catalog specs plus vg theta=0.5: the cells of the
# committed bound table perfbench/reference/coeff_table.json.
BOUND_TABLE_SPECS = (
    ("normal", {}),
    ("gamma", {"r": 2.0, "lam": 1.0}),
    ("exponential", {"lam": 1.0}),
    ("beta", {"alpha": 2.0, "beta": 3.0}),
    ("arcsine", {}),
    ("student_t", {"d": 9.0, "delta": 3.0}),
    ("inverse_gamma", {"alpha": 9.0, "beta": 2.0}),
    ("prr", {"s": 1.0}),
    ("vg", {"r": 3.0, "theta": 0.0, "sigma": 1.0}),
    ("quartic", {}),
    ("mvn", {"dim": 2}),
    ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0}),
)


class TestBoundTable:
    def test_every_cell_matches_reference_or_is_a_window_rejection(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "coeff_table.json"
        reference = json.loads(path.read_text())
        accepted = set()
        for family, params in BOUND_TABLE_SPECS:
            spec = cat.make_spec(family, **params)
            for token in cf.MODE_TOKENS:
                for n in range(19):
                    key = f"{spec.family}({spec.param_string()})|{token}|{n}"
                    try:
                        coeffs = cf.bound_for(spec, n, token)
                    except ValidityError:
                        continue
                    accepted.add(key)
                    want = reference.get(key)
                    assert want is not None, f"{key} accepted, but not in the reference"
                    got = {sym.label: value for sym, value in coeffs.items()}
                    for label in set(got) | set(want):
                        assert got.get(label, 0.0) == pytest.approx(
                            want.get(label, 0.0), rel=1e-10, abs=0.0
                        ), (key, label)
        assert accepted == set(reference)
        assert len(accepted) == 626

    def test_mode_tokens_are_the_mode_table_keys(self):
        # the --mode choices cannot drift from the tables
        keys = {token for family, params in cat.DEFAULT_SPECS for token in cat.make_spec(family, **params).modes}
        assert set(cf.MODE_TOKENS) == {"default"} | keys
        assert len(cf.MODE_TOKENS) == len(set(cf.MODE_TOKENS))


class TestCatalogJson:
    def test_quartic_contains_normalizer(self):
        doc = cat.catalog_json(cat.make_spec("quartic"))
        assert doc["c1"] == pytest.approx(0.29638321800332305, rel=1e-12)
        json.dumps(doc)  # serializable

    def test_vg_base_bounds_included(self):
        doc = cat.catalog_json(cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0))
        assert doc["base_bounds"]["f"] == pytest.approx(2.2374629934615633, rel=1e-12)
        assert doc["level_constants"]["D"][0] == pytest.approx(2.0 / 3.0)

    def test_window_serialized(self):
        doc = cat.catalog_json(cat.make_spec("inverse_gamma", alpha=9.0, beta=2.0))
        assert doc["max_order"] == 3
