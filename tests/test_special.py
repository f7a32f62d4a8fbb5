"""Special-function kernel: frozen high-precision values and identities.

Expected values marked "mpmath" were computed with mpmath at 25 digits
before freezing; closed-form oracles are evaluated inline.
"""

import ast
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

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
    def test_splits_at_interior_breaks_of_an_infinite_range(self):
        # the mass of this density sits around 1e3: one QAGI call over the
        # whole line samples too sparsely to find it, the split one does
        def bump(t):
            return math.exp(-0.5 * (t - 1e3) ** 2) / math.sqrt(2.0 * math.pi)

        assert integrate.quad(bump, -math.inf, 2e3)[0] < 1e-3
        val, err = sf.integrate(bump, -math.inf, 2e3, breaks=(1e3,))
        assert val == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= err < 1e-8

    def test_breaks_outside_the_range_are_ignored(self):
        plain = sf.integrate(math.exp, 0.0, 1.0)
        assert sf.integrate(math.exp, 0.0, 1.0, breaks=(-1.0, 0.0, 1.0, 2.0)) == plain
        assert plain[0] == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_singular_break_is_met_at_an_endpoint(self):
        # |t|^(-1/2) over [-1, 1]: the singularity is an endpoint of both
        # pieces, and no IntegrationWarning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, err = sf.integrate(
                lambda t: abs(t) ** -0.5 if t else 0.0, -1.0, 1.0, breaks=(0.0,),
                epsabs=1e-14, epsrel=1e-12,
            )
        assert val == pytest.approx(4.0, rel=1e-12)
        assert err < 1e-10

    def test_reversed_and_empty_ranges(self, monkeypatch):
        forward = sf.integrate(math.exp, -math.inf, 1.0, breaks=(0.0,))
        assert sf.integrate(math.exp, 1.0, -math.inf, breaks=(0.0,)) == (-forward[0], forward[1])
        monkeypatch.setattr(integrate, "quad", None)  # an empty range needs no quadrature
        assert sf.integrate(math.exp, 2.0, 2.0) == (0.0, 0.0)

    def test_returns_every_error_estimate(self):
        pieces = [integrate.quad(math.cos, a, b, limit=400) for a, b in ((0.0, 1.0), (1.0, 3.0))]
        val, err = sf.integrate(math.cos, 0.0, 3.0, breaks=(1.0,))
        assert val == pieces[0][0] + pieces[1][0]
        assert err == pieces[0][1] + pieces[1][1]


def _quad_references(source: str) -> list:
    """The enclosing function name (None at module level) of every
    reference to quad from scipy.integrate in source."""
    tree = ast.parse(source)
    integrate_names = set()  # local names bound to scipy.integrate
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy":
            integrate_names |= {a.asname or a.name for a in node.names if a.name == "integrate"}
        elif isinstance(node, ast.Import):
            integrate_names |= {a.asname for a in node.names if a.name == "scipy.integrate" and a.asname}

    def is_integrate(node):
        if isinstance(node, ast.Name):
            return node.id in integrate_names
        return isinstance(node, ast.Attribute) and node.attr == "integrate" and (
            isinstance(node.value, ast.Name) and node.value.id == "scipy"
        )

    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.integrate":
            found.extend(func for a in node.names if a.name == "quad")
        if isinstance(node, ast.Attribute) and node.attr == "quad" and is_integrate(node.value):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


class TestOneQuadratureRule:
    """Every adaptive integral of the package goes through
    special.integrate, so the one rule cannot drift."""

    def test_guard_sees_every_spelling(self):
        source = (
            "import scipy.integrate\n"
            "import scipy.integrate as si\n"
            "from scipy import integrate as _i\n"
            "from scipy.integrate import quad\n"
            "def f():\n    return scipy.integrate.quad, si.quad\n"
            "def g():\n    return _i.quad\n"
        )
        assert _quad_references(source) == [None, "f", "f", "g"]

    def test_quad_is_referenced_only_inside_integrate(self):
        package = Path(sf.__file__).parent
        found = [
            (path.name, func)
            for path in sorted(package.glob("*.py"))
            for func in _quad_references(path.read_text())
        ]
        assert found == [("special.py", "integrate")]
