"""Special-function kernel: frozen high-precision values and identities.

Expected values marked "mpmath" were computed with mpmath at 25 digits
before freezing; closed-form oracles are evaluated inline.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from steinbounds import catalog as cat
from steinbounds import special as sf


class TestGamma:
    def test_known_values(self):
        assert sf.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert sf.gamma_fn(0.5) == pytest.approx(1.772453850905516, rel=1e-13)
        # mpmath: 3.625609908221908311930685
        assert sf.gamma_fn(0.25) == pytest.approx(3.6256099082219083, rel=1e-12)

    def test_pole_and_overflow(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                sf.gamma_fn(x)
        with pytest.raises(OverflowError):
            sf.gamma_fn(200.0)
        # caller route for large arguments
        assert sf.log_gamma(200.0) == pytest.approx(857.9336698258574, rel=1e-12)

    def test_recurrence_on_log_grid(self):
        xs = np.geomspace(1e-3, 100.0, 200)
        for x in xs:
            lhs = sf.gamma_fn(x + 1.0)
            rhs = x * sf.gamma_fn(x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDoubleFactorial:
    def test_conventions(self):
        assert sf.double_factorial(-1) == 1
        assert sf.double_factorial(0) == 1
        assert sf.double_factorial(7) == 105  # 1*3*5*7

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.double_factorial(-2)

    def test_splits_factorial_exactly(self):
        for n in range(1, 21):
            assert sf.double_factorial(n) * sf.double_factorial(n - 1) == math.factorial(n)


class TestPochhammer:
    def test_examples(self):
        assert sf.pochhammer_k(5.0, 0, 2.0) == 1.0
        assert sf.pochhammer_k(2.0, 3, 1.0) == pytest.approx(24.0, rel=1e-14)
        assert sf.pochhammer_k(3.0, 2, 2.0) == pytest.approx(15.0, rel=1e-14)

    def test_step_rescaling_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(0.1, 5.0)
            k = rng.uniform(0.2, 3.0)
            n = int(rng.integers(0, 12))
            lhs = sf.pochhammer_k(x, n, k)
            rhs = k ** n * sf.pochhammer(x / k, n)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_overflow_falls_back_to_log_space(self):
        val = sf.pochhammer_k(1.0, 250, 2.0)  # (2*250)!! territory
        assert math.isfinite(math.log(val)) or math.isinf(val)
        # cross-check a big but representable case against log arithmetic
        lo = math.fsum(math.log(1.0 + 2.0 * i) for i in range(150))
        assert math.log(sf.pochhammer_k(1.0, 150, 2.0)) == pytest.approx(lo, rel=1e-12)


class TestBessel:
    def test_half_integer_closed_forms(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x,  K_{1/2}(x) = sqrt(pi/(2x)) e^-x
        oracle_i = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert sf.bessel_i(0.5, 1.0) == pytest.approx(oracle_i, rel=1e-12)
        assert sf.bessel_i(0.5, 1.0) == pytest.approx(0.9376748882454876, rel=1e-10)
        oracle_k = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert sf.bessel_k(0.5, 1.0) == pytest.approx(oracle_k, rel=1e-12)
        assert sf.bessel_k(0.5, 1.0) == pytest.approx(0.4610685044478946, rel=1e-10)

    def test_series_leading_behaviour(self):
        assert sf.bessel_i(1.0, 0.0) == 0.0
        assert sf.bessel_i(2.5, 0.0) == 0.0

    def test_order_symmetry_of_k(self):
        assert sf.bessel_k(-0.5, 1.3) == pytest.approx(sf.bessel_k(0.5, 1.3), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_i(0.5, -1.0)
        with pytest.raises(ValueError):
            sf.bessel_k(0.5, 0.0)

    def test_wronskian(self):
        # I_nu(x) K_nu'(x) - I_nu'(x) K_nu(x) = -1/x, with the derivatives
        # through the two-term recurrences (negative orders included)
        from scipy.special import iv

        xs = np.geomspace(0.1, 50.0, 40)
        for nu in (0.0, 0.5, 1.0, 2.5):
            for x in xs:
                kp = -0.5 * (sf.bessel_k(nu - 1.0, x) + sf.bessel_k(nu + 1.0, x))
                ip = 0.5 * (float(iv(nu - 1.0, x)) + sf.bessel_i(nu + 1.0, x))
                w = sf.bessel_i(nu, x) * kp - ip * sf.bessel_k(nu, x)
                assert w == pytest.approx(-1.0 / x, rel=1e-8)


class TestHypU:
    def test_unit_value_at_zero_first_parameter(self):
        assert sf.hyp_u(0.0, 0.5, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_normal_density_slice(self):
        # the s = 1 kernel density at x = 1 equals the half-normal value
        x = 1.0
        val = sf.gamma_fn(1.0) * math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0) * sf.hyp_u(0.0, 0.5, x * x / 2.0)
        oracle = math.sqrt(2.0 / math.pi) * math.exp(-0.5)  # 0.48394144903828670
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_against_integral_representation(self):
        # U(a, b, x) = (1/Gamma(a)) int_0^inf e^(-x t) t^(a-1) (1+t)^(b-a-1) dt
        a, b, x = 1.0, 0.5, 1.0
        oracle, _ = integrate.quad(
            lambda t: math.exp(-x * t) * (1.0 + t) ** (b - a - 1.0), 0.0, np.inf
        )
        oracle /= sf.gamma_fn(a)
        assert sf.hyp_u(a, b, x) == pytest.approx(oracle, rel=1e-8)
        # mpmath: 0.4842556877173757879132975
        assert sf.hyp_u(a, b, x) == pytest.approx(0.4842556877173758, rel=1e-8)

    def test_lowered_slice_value(self):
        # a = -1/2 (the s = 1/2 distribution): U(-1/2, 1/2, x) = sqrt(x)
        assert sf.hyp_u(-0.5, 0.5, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-8)

    def test_fractional_parameter_transition_region(self):
        # a region where direct library evaluation dips to ~3e-8;
        # mpmath: U(1.5, 1/2, 12.8) = 0.01783249352899477
        assert sf.hyp_u(1.5, 0.5, 12.8) == pytest.approx(0.01783249352899477, rel=1e-10)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            sf.hyp_u(0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            sf.hyp_u(25.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            sf.hyp_u(0.0, 0.5, -1.0)


class TestStdNormal:
    def test_point_values(self):
        pdf, cdf, mills = sf.norm_pdf(0.0), sf.norm_cdf(0.0), sf.mills_ratio(0.0)
        assert pdf == pytest.approx(0.3989422804014327, rel=1e-14)
        assert cdf == pytest.approx(0.5, abs=1e-15)
        assert mills == pytest.approx(1.2533141373155003, rel=1e-14)

    def test_cdf_limit(self):
        assert sf.norm_cdf(40.0) == 1.0

    def test_mills_sandwich_at_two(self):
        t = 2.0
        m = sf.mills_ratio(t)
        assert t / (1.0 + t * t) <= m <= min(math.sqrt(math.pi / 2.0), 1.0 / t)

    def test_cdf_accuracy(self):
        # erf-based oracle
        for x in (-3.0, -1.0, 0.3, 2.5):
            assert sf.norm_cdf(x) == pytest.approx(0.5 * (1.0 + math.erf(x / math.sqrt(2.0))), abs=1e-15)


class TestHypUAgainstMpmath:
    """The vectorised U rule against 40-digit mpmath.hyperu on the slice
    the prr family uses (a = s - 1 in [0, 19]), from x = 1e-300 to 1e7."""

    A_VALUES = (1e-3, 0.05, 0.3, 1.0, 1.5, 4.67, 10.95, 19.0)
    X_VALUES = (1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0,
                12.8, 30.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)

    @pytest.mark.parametrize("a", A_VALUES)
    def test_relative_error(self, a):
        with mpmath.workdps(40):
            oracle = [mpmath.hyperu(a, 0.5, mpmath.mpf(x)) for x in self.X_VALUES]
            got = sf.hyp_u(a, 0.5, np.array(self.X_VALUES))
            rel = [abs((mpmath.mpf(float(g)) - o) / o) for g, o in zip(got, oracle)]
        assert max(rel) <= 1e-12

    @pytest.mark.parametrize("a", A_VALUES)
    def test_slope_relative_error(self, a):
        # dU/dx = -a U(a + 1, 3/2, x) from the same rule, held where its
        # bulk stays inside the rule's range (x >= 1e-4)
        xs = [x for x in self.X_VALUES if x >= 1e-4]
        values, slopes = sf.hyp_u_with_slope(a, 0.5, np.array(xs))
        with mpmath.workdps(40):
            oracle = [-a * mpmath.hyperu(a + 1, 1.5, mpmath.mpf(x)) for x in xs]
            rel = [abs((mpmath.mpf(float(g)) - o) / o) for g, o in zip(slopes, oracle)]
        assert max(rel) <= 1e-13

    def test_slope_closed_forms(self):
        x = np.array([1e-3, 2.0, 50.0])
        assert [s.tolist() for s in sf.hyp_u_with_slope(0.0, 0.5, x)] == [[1.0] * 3, [0.0] * 3]
        root, slope = sf.hyp_u_with_slope(-0.5, 0.5, x)
        assert np.array_equal(root, np.sqrt(x)) and np.array_equal(slope, 0.5 / np.sqrt(x))

    def test_scalar_and_array_agree_bitwise(self):
        xs = np.geomspace(1e-6, 1e4, 300)
        vec = sf.hyp_u(4.67, 0.5, xs)
        assert [sf.hyp_u(4.67, 0.5, float(x)) for x in xs[::37]] == list(vec[::37])
        assert np.array_equal(sf.hyp_u(4.67, 0.5, xs[150:]), vec[150:])

    def test_no_overflow_warning(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for a in (1e-3, 19.0):
                sf.hyp_u(a, 0.5, np.array([1e-300, 1.0, 1e7]))


class TestIntegrate:
    TOL = dict(epsabs=1.49e-8, epsrel=1.49e-8)  # QUADPACK's defaults, which these cases were written at

    def test_splits_at_interior_breaks_of_an_infinite_range(self):
        # the mass of this density sits around 1e3: one QAGI call over the
        # whole line samples too sparsely to find it, the split one does
        def bump(t):
            return np.exp(-0.5 * (t - 1e3) ** 2) / math.sqrt(2.0 * math.pi)

        assert sf.integrate(bump, -math.inf, 2e3, **self.TOL)[0] < 1e-3
        val, err = sf.integrate(bump, -math.inf, 2e3, breaks=(1e3,), **self.TOL)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= err < 1e-8

    def test_breaks_outside_the_range_are_ignored(self):
        plain = sf.integrate(np.exp, 0.0, 1.0, **self.TOL)
        assert sf.integrate(np.exp, 0.0, 1.0, breaks=(-1.0, 0.0, 1.0, 2.0), **self.TOL) == plain
        assert plain[0] == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_singular_break_is_met_at_an_endpoint(self):
        # |t|^(-1/2) over [-1, 1]: the singularity is an endpoint of both
        # pieces, where the rule places no node, so no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, err = sf.integrate(lambda t: np.abs(t) ** -0.5, -1.0, 1.0, breaks=(0.0,), epsabs=1e-14, epsrel=1e-12)
        assert val == pytest.approx(4.0, rel=1e-12)
        assert err < 1e-10

    def test_reversed_and_empty_ranges(self, monkeypatch):
        forward = sf.integrate(np.exp, -math.inf, 1.0, breaks=(0.0,), **self.TOL)
        assert sf.integrate(np.exp, 1.0, -math.inf, breaks=(0.0,), **self.TOL) == (-forward[0], forward[1])
        monkeypatch.setattr(sf, "_qags", None)  # an empty range needs no quadrature
        assert sf.integrate(np.exp, 2.0, 2.0, **self.TOL) == (0.0, 0.0)

    def test_returns_every_error_estimate(self):
        pieces = [sf.integrate(np.cos, a, b, **self.TOL) for a, b in ((0.0, 1.0), (1.0, 3.0))]
        val, err = sf.integrate(np.cos, 0.0, 3.0, breaks=(1.0,), **self.TOL)
        assert val == pieces[0][0] + pieces[1][0]
        assert err == pieces[0][1] + pieces[1][1]

    def test_every_call_states_its_tolerance(self):
        # QUADPACK's 1.49e-8 defaults are gone: no integral runs at them unasked
        with pytest.raises(TypeError, match="epsabs"):
            sf.integrate(np.exp, 0.0, 1.0)
        with pytest.raises(TypeError):
            sf.integrate(np.exp, 0.0, 1.0, (), 1e-10, 1e-10)

    def test_one_integrand_call_per_rule_application(self):
        # a finite piece starts with one 21-node call, then each bisection
        # evaluates both halves in one call; an infinite piece likewise
        # with 15 nodes per interval (twice that over the whole line)
        sizes = []

        def recorded(t):
            sizes.append(t.size)
            return np.exp(-t * t) * np.cos(3.0 * t)

        sf.integrate(recorded, 0.0, 5.0, epsabs=1e-14, epsrel=1e-12)
        assert sizes[0] == 21 and len(sizes) > 1 and set(sizes[1:]) == {42}
        sizes.clear()
        sf.integrate(recorded, -math.inf, math.inf, epsabs=1e-14, epsrel=1e-12)
        assert sizes[0] == 30 and len(sizes) > 1 and set(sizes[1:]) == {60}


class TestGaussJacobi:
    """The n-point rule with weight u^gamma on [0, 1] against 40-digit
    integrals, taken in w = u^(gamma + 1), where the weight is gone.  The
    tolerance is set once from the worst measured case (3.8e-15, gamma =
    -0.679313) and is never widened."""

    TOL = 1e-14

    @pytest.mark.parametrize("gamma", [-0.7, -0.679313, -0.5, 0.0, 1.0, 2.0])
    def test_smooth_factors_against_mpmath(self, gamma):
        u, w = sf.gauss_jacobi(20, gamma)
        assert np.all(np.diff(u) > 0.0) and 0.0 < u[0] and u[-1] < 1.0
        with mpmath.workdps(40):
            power = 1 / (mpmath.mpf(gamma) + 1)
            for fn, mp_fn in ((np.cos, mpmath.cos), (lambda t: np.exp(3.0 * t), lambda t: mpmath.exp(3 * t)),
                              (lambda t: 1.0 / (1.5 - t), lambda t: 1 / (1.5 - t))):
                want = mpmath.quad(lambda t: mp_fn(t ** power), [0, 1]) * power
                assert float(np.dot(w, fn(u))) == pytest.approx(float(want), rel=self.TOL, abs=0.0)

    def test_polynomials_of_degree_2n_minus_1_are_exact(self):
        u, w = sf.gauss_jacobi(5, -0.5)
        # int_0^1 u^(k - 1/2) du = 1 / (k + 1/2)
        for k in range(10):
            assert float(np.dot(w, u ** k)) == pytest.approx(1.0 / (k + 0.5), rel=1e-14)

    def test_cached_and_read_only(self):
        u, w = sf.gauss_jacobi(20, -0.5)
        assert sf.gauss_jacobi(20, -0.5)[0] is u
        assert not u.flags.writeable and not w.flags.writeable

    def test_weight_must_be_integrable(self):
        with pytest.raises(ValueError, match="gamma > -1"):
            sf.gauss_jacobi(20, -1.0)


class TestIntegrateAgainstQuadpack:
    """The numpy rules are QUADPACK's QAGS and QAGI: on smooth, singular,
    oscillatory and infinite integrals they agree with the Fortran (as
    scipy.integrate.quad runs it) to rounding, error estimates included."""

    CASES = [
        (np.exp, 0.0, 1.0),
        (lambda t: np.log(t), 0.0, 1.0),
        (lambda t: t ** -0.3 * (1.0 - t) ** -0.7, 0.0, 1.0),
        (lambda t: np.sin(50.0 * t), 0.0, 1.0),
        (lambda t: np.abs(t - 0.3) ** 0.5, 0.0, 1.0),
        (lambda t: np.exp(-t * t), -math.inf, math.inf),
        (lambda t: np.exp(t), -math.inf, 1.0),
        (lambda t: (1.0 + t * t) ** -3, 0.0, math.inf),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("tol", [(1.49e-8, 1.49e-8), (1e-14, 1e-10), (0.0, 1e-12)])
    def test_matches_scipy_quad(self, case, tol):
        fn, a, b = self.CASES[case]
        epsabs, epsrel = tol
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            ref, ref_err = integrate.quad(lambda t: float(fn(np.float64(t))), a, b, limit=400, epsabs=epsabs, epsrel=epsrel)
        val, err = sf.integrate(fn, a, b, epsabs=epsabs, epsrel=epsrel)
        assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)
        assert err == pytest.approx(ref_err, rel=0.25)


class TestIntegrateAgainstMpmath:
    """The densities' hard ends, each integral to its requested tolerance
    (epsabs 1e-12, epsrel 1e-11, those of solver.expectation) against
    40-digit mpmath: arcsine's and beta(0.3, 0.3)'s singular ends, the
    gamma(0.320687, 1.83895) end at 0, the vg(0.6, 1.5, 0.5) origin and a
    Student t(5, 1) tail (the family's (1 + (x/delta)^2)^(-(d+1)/2) law)."""

    @staticmethod
    def cases():
        mp = mpmath
        arcsine, beta = cat.make_spec("arcsine"), cat.make_spec("beta", alpha=0.3, beta=0.3)
        r, lam = 0.320687, 1.83895
        gamma = cat.make_spec("gamma", r=r, lam=lam)
        vg = cat.make_spec("vg", r=0.6, theta=1.5, sigma=0.5)
        student = cat.make_spec("student_t", d=5.0, delta=1.0)
        third = mp.mpf(3) / 10

        def p_arcsine(t):
            return 1 / (mp.pi * mp.sqrt(t * (1 - t)))

        def p_beta(t):
            return (t * (1 - t)) ** (third - 1) / mp.beta(third, third)

        def p_gamma(t):
            return mp.mpf(lam) ** r * t ** (mp.mpf(r) - 1) * mp.exp(-lam * t) / mp.gamma(r)

        def p_vg(t):
            nu, root = mp.mpf(-0.2), mp.sqrt(mp.mpf(1.5) ** 2 + mp.mpf(0.5) ** 2)
            return (
                mp.exp(6 * t) * (abs(t) / (2 * root)) ** nu * mp.besselk(nu, 4 * root * abs(t))
                / (mp.mpf(0.5) * mp.sqrt(mp.pi) * mp.gamma(mp.mpf(0.3)))
            )

        def p_student(t):
            return mp.gamma(3) / (mp.gamma(mp.mpf(2.5)) * mp.sqrt(mp.pi)) * (1 + t * t) ** -3

        return {
            "arcsine-0": (arcsine.density, np.sin, mp.sin, p_arcsine, 0.0, 0.25),
            "arcsine-1": (arcsine.density, np.cos, mp.cos, p_arcsine, 0.75, 1.0),
            "beta-0": (beta.density, np.sin, mp.sin, p_beta, 0.0, 0.5),
            "beta-1": (beta.density, np.sin, mp.sin, p_beta, 0.5, 1.0),
            "gamma-0": (gamma.density, np.cos, mp.cos, p_gamma, 0.0, 1.0),
            "vg-left": (vg.density, np.cos, mp.cos, p_vg, -1.0, 0.0),
            "vg-right": (vg.density, np.cos, mp.cos, p_vg, 0.0, 1.0),
            "student-right": (student.density, np.ones_like, lambda t: 1, p_student, 10.0, math.inf),
            "student-left": (student.density, np.negative, lambda t: -t, p_student, -math.inf, -10.0),
        }

    @pytest.mark.parametrize(
        "name", ["arcsine-0", "arcsine-1", "beta-0", "beta-1", "gamma-0", "vg-left", "vg-right", "student-right", "student-left"]
    )
    def test_hard_end(self, name):
        density, h, h_mp, p_mp, a, b = self.cases()[name]
        with mpmath.workdps(40):
            oracle = float(mpmath.quad(lambda t: p_mp(t) * h_mp(t), [a, b]))
        val, err = sf.integrate(lambda t: density(t) * h(t), a, b, epsabs=1e-12, epsrel=1e-11)
        assert abs(val - oracle) <= max(1e-12, 1e-11 * abs(oracle))
        assert err <= max(1e-12, 1e-11 * abs(val))


_GUARD_SCRIPT = """
import sys

from steinbounds.selftest import run_selftest
from steinbounds.solver import SineTest
from steinbounds.verifier import default_sweep_specs, verify

families = {}
for spec in default_sweep_specs():
    families.setdefault(spec.family, spec)
for spec in families.values():
    verify(spec, 1, SineTest(1.0))
assert run_selftest()
print(" ".join(sorted(sys.modules)))
"""


def test_no_entry_point_loads_the_heavy_scipy_subpackages():
    # the package needs numpy and scipy.special only: scipy.integrate or
    # scipy.interpolate would pull in linalg, sparse and optimize, and
    # double the import time of every CLI call
    src = Path(sf.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _GUARD_SCRIPT], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.splitlines()[-1].split())
    heavy = {"scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize", "scipy.sparse"}
    assert "steinbounds.verifier" in loaded
    assert not heavy & loaded


_FAULTS_SCRIPT = """
import resource

from steinbounds import bound_for, make_spec, solver
from steinbounds.solver import SineTest
from steinbounds.verifier import verify

bound_for(make_spec("gamma", r=2.0, lam=1.0), 2)
assert solver._retain_freed_memory.cache_info().misses == 0  # a bound builds no mesh
verify(make_spec("gamma", r=2.0, lam=1.0), 2, SineTest(1.0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for r in (1.5, 2.5, 3.5, 4.5):
    verify(make_spec("gamma", r=r, lam=1.0), 2, SineTest(1.0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestRetainFreedMemory:
    @pytest.mark.skipif(not _glibc(), reason="the allocation policy acts on glibc only")
    def test_fresh_meshes_reuse_freed_pages(self):
        # each fresh mesh frees and allocates 4-10 MB of node arrays; under
        # glibc's dynamic thresholds those pages went back to the kernel and
        # were faulted in again: 4.5k-6k minor faults over these four calls
        # one BLAS thread: a second one's allocations added about 270
        # faults to 2 of 80 runs
        src = Path(sf.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout.split()[-1]) < 400

    @pytest.mark.skipif(not _glibc(), reason="the allocation policy acts on glibc only")
    def test_both_thresholds_are_accepted(self):
        assert sf.retain_freed_memory() is True

    @pytest.mark.parametrize("confstr", ["raises", "none", "musl"])
    def test_no_mallopt_without_glibc(self, monkeypatch, confstr):
        def fake_confstr(name):
            if confstr == "raises":
                raise ValueError("unrecognized configuration name")
            return None if confstr == "none" else "musl 1.2.4"

        opened = []
        monkeypatch.setattr(sf.os, "confstr", fake_confstr)
        monkeypatch.setattr(sf.ctypes, "CDLL", lambda *args: opened.append(args))
        assert sf.retain_freed_memory() is False
        assert opened == []
