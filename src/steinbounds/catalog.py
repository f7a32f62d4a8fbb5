"""Distribution catalog.

One spec object per supported family, holding everything the rest of the
package needs: the density and support, the level-k operator coefficients
of the iterated Stein equations, the coupling shape and cumulative
coupling sequences, per-level base constants, the base-case substitutions
that resolve leftover solution norms, and the mode table: every bound the
family supports, keyed by its public mode token, with its order window.

The seven first-order families (normal, gamma, exponential, beta,
arcsine, Student t, inverse-gamma) are Pearson laws: their level-k
operators, couplings, right-hand sides and chain weights all come from
_pearson and five numbers per family.  prr, vg and quartic keep their own
level callables.

The bounds outside the three generic chains (quartic-tail, multivariate
normal, one-step gamma, normal literature bounds) live here, next to their
families.  Families are built by the constructors in REGISTRY, whose
signatures are the parameter lists.

The catalog is immutable after construction and every evaluator here is
pure.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np
from scipy.special import betainc, kve as _sp_kve

from . import special as sf
from .engine import (
    BoundCoefficients,
    IterationScheme,
    NormSymbol,
    coefficients,
    deriv_coupled_bound,
    mixed_coupled_bound,
    value_coupled_bound,
)
from .errors import NumericError, ValidityError

__all__ = [
    "DistributionSpec",
    "Mode",
    "make_spec",
    "param_names",
    "REGISTRY",
    "FAMILIES",
    "numeric_cdf",
    "quantile",
    "beta_median",
    "beta_lipschitz_constant",
    "vg_scale_constant",
    "vg_base_constants",
    "bessel_tail_constant",
    "quartic_normalizer",
    "quartic_a_coeffs",
    "refined_small_case_constants",
    "langevin_exponents",
    "gamma_onestep_bound",
    "quartic_bounds",
    "mvn_bounds",
    "normal_literature_bound",
    "catalog_json",
]


def _constf(c: float):
    def fn(x):
        arr = np.asarray(x, dtype=float)
        out = np.full(arr.shape, c)
        return out if arr.ndim else float(c)

    return fn


@dataclass(frozen=True)
class Mode:
    """One row of a family's mode table.

    bound(n) is the bound on ||f^(n)||; it raises ValidityError below the
    first order it covers, and orders above last (None = unlimited) are
    rejected before it runs.  chain is the engine letter ("i", "ii",
    "iii", "mixed") when bound runs one of the generic chains.
    """

    bound: Callable[[int], BoundCoefficients]
    last: int | None = None
    chain: str | None = None


# The chain rows call the engine through its module-level names at call
# time, so wrappers installed on those names (perfbench/spans.py) see them.
def _value_chain(scheme: IterationScheme, letter: str, last: int | None = None) -> Mode:
    return Mode(lambda n: value_coupled_bound(scheme, letter, n), last, letter)


def _deriv_chain(scheme: IterationScheme, letter: str) -> Mode:
    return Mode(lambda n: deriv_coupled_bound(scheme, letter, n), chain=letter)


@dataclass(frozen=True)
class DistributionSpec:
    """Catalog entry: parameters, support, operators, iteration scheme, modes.

    coupling_kind says how the level-coupling operator acts on the
    solution: "value" (c*f), "deriv" (c*f'), "mixed" (c0*f + c1*f') or
    "custom" (outside the three generic chains).  operator_order is the
    differential order of every level operator.

    op_coeffs(k) gives the coefficient callables (a2, a1, a0) of the
    level-k operator and t_coeffs(k) the coupling-operator coefficients
    (t0, t1): T_k f = t0 f + t1 f'.  For the first-order families (normal,
    gamma, exponential, beta, arcsine, Student t, inverse-gamma) these,
    rhs_terms and scheme.a are derived by _pearson; prr, vg and quartic
    write their own.  pdf is None for a law without 1-D
    solver support; kernel_v is the homogeneous-solution factor of the
    double-integral representation (second-order families solved that
    way).  modes maps each supported mode token to its Mode; extras are
    family-specific entries of the catalog JSON.
    """

    family: str
    params: dict
    support: tuple[float, float]
    operator_order: int
    coupling_kind: str
    scheme: IterationScheme
    modes: Mapping[str, Mode]
    default_mode: str
    pdf: Callable | None = None
    op_coeffs: Callable[[int], tuple] | None = None
    t_coeffs: Callable[[int], tuple] | None = None
    rhs_terms: Callable[[int], list] | None = None
    kernel_v: Callable | None = None
    delicate_points: tuple[float, ...] = ()
    extras: dict = field(default_factory=dict)

    # -- distribution ------------------------------------------------------
    def density(self, x):
        return self.pdf(x)

    def weight_s(self, x):
        """Leading-coefficient weight s(x) of the order-0 operator."""
        a2, a1, a0 = self.op_coeffs(0)
        return a1(x) if self.operator_order == 1 else a2(x)

    def level_rhs(self, k: int):
        """Extra right-hand-side terms of the level-k equation.

        Returns [(offset, coeff_fn), ...] meaning the level-k right-hand
        side is h^(k) + sum coeff_fn(x) * f^(k+offset); empty at k = 0.
        """
        return self.rhs_terms(k) if k >= 1 else []

    # -- bounding modes -----------------------------------------------------
    def max_order(self, mode: str) -> int | None:
        """Largest valid derivative order for a supported mode token
        (None = unlimited)."""
        return self.modes[mode].last

    def propagation_cap(self) -> int | None:
        """Largest derivative order any supported mode can bound (None =
        unlimited); propagation past it is a validity error."""
        caps = [entry.last for entry in self.modes.values()]
        return None if None in caps else max(caps)

    def check_order(self, n: int, mode: str) -> None:
        cap = self.max_order(mode)
        if cap is not None and n > cap:
            raise ValidityError(
                f"{self.family}{self.params}: order {n} exceeds the validity "
                f"window for mode {mode!r} (max {cap})"
            )

    @property
    def solvable(self) -> bool:
        return self.pdf is not None

    def param_string(self) -> str:
        return ",".join(f"{k}={v:g}" for k, v in self.params.items())


# ---------------------------------------------------------------------------
# Numeric CDF / quantiles (bisection on the quadrature CDF).
# ---------------------------------------------------------------------------


def numeric_cdf(spec: DistributionSpec, x: float) -> float:
    lo, hi = spec.support
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    val, _ = sf.integrate(spec.density, lo, x, breaks=spec.delicate_points)
    if not math.isfinite(val):
        raise NumericError(f"{spec.family}{spec.params}: the CDF integral up to {x:g} is {val}")
    return min(max(val, 0.0), 1.0)


_BRACKET_LIMIT = 1e12


def _bracket(spec: DistributionSpec, p: float) -> tuple[float, float]:
    """An interval that holds the p-quantile: the support edges, with each
    infinite edge found by doubling from -1 or 1.  A numeric CDF that does
    not reach p within +-1e12 (a density of too little mass) raises
    NumericError."""
    lo, hi = spec.support
    if np.isfinite(lo) and np.isfinite(hi):
        return lo, hi
    left = lo if np.isfinite(lo) else -1.0
    right = hi if np.isfinite(hi) else 1.0
    if not np.isfinite(lo):
        while numeric_cdf(spec, left) > p:
            left *= 2.0
            if left < -_BRACKET_LIMIT:
                raise NumericError(
                    f"{spec.family}{spec.params}: no left bracket for the {p}-quantile above {-_BRACKET_LIMIT:g}"
                )
    else:
        left = lo
    if not np.isfinite(hi):
        while numeric_cdf(spec, right) < p:
            right *= 2.0
            if right > _BRACKET_LIMIT:
                raise NumericError(
                    f"{spec.family}{spec.params}: no right bracket for the {p}-quantile below {_BRACKET_LIMIT:g}"
                )
    else:
        right = hi
    return left, right


_BISECTION_TOL = 1e-10  # relative width at which a bisection stops (absolute below 1)


def _bisect(cdf, p: float, lo: float, hi: float) -> float:
    """The point of [lo, hi] where the increasing cdf crosses p, by
    bisection down to _BISECTION_TOL * max(1, |lo|, |hi|)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECTION_TOL * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def quantile(spec: DistributionSpec, p: float) -> float:
    """p-quantile by bisection on the numeric CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile requires 0 < p < 1")
    # numeric_cdf is looked up at call time, so a wrapper installed on the
    # module name (perfbench/spans.py) sees every evaluation
    return _bisect(lambda x: numeric_cdf(spec, x), p, *_bracket(spec, p))


# ---------------------------------------------------------------------------
# Pearson laws: the level-k algebra of the first-order families.
# ---------------------------------------------------------------------------


def _pearson(q2: float, q1: float, q0: float, b0: float, m: float):
    """Level-k operator algebra of a Pearson law, with tau(x) = q2 x^2 +
    q1 x + q0 and drift b0 - m x.

    Differentiating L_k f = tau f' + (b_k - m_k x) f gives L_{k+1} f' -
    T_k f with b_k = b0 + k q1, m_k = m - 2k q2 and T_k = m_k, so the
    level-k right-hand side carries c_k f^(k-1), c_k = k (m - (k-1) q2),
    and the chain weights are a(j) = |c_{j+1}|.  Returns (a, fields),
    fields being the DistributionSpec entries of a first-order
    value-coupled family.

    The groupings (tau in Horner form, b_k - m_k x, c_k as written) fix
    the rounding of every coefficient, and with it the pinned sweep.
    """

    def tau(x):
        x = np.asarray(x, dtype=float)
        return (q2 * x + q1) * x + q0

    def m_k(k):
        return m - 2 * k * q2

    def c(k):
        return k * (m - (k - 1) * q2)

    def op_coeffs(k):
        b_k, slope = b0 + k * q1, m_k(k)
        return (None, tau, lambda x: b_k - slope * np.asarray(x, dtype=float))

    def t_coeffs(k):
        return (_constf(m_k(k)), _constf(0.0))

    def rhs_terms(k):
        return [(-1, _constf(c(k)))]

    fields = dict(
        operator_order=1, coupling_kind="value", op_coeffs=op_coeffs, t_coeffs=t_coeffs, rhs_terms=rhs_terms
    )
    # the chains call a(j) in their inner loops; the cache makes a repeat
    # call one C-level lookup instead of two Python frames
    return functools.lru_cache(maxsize=None)(lambda j: abs(c(j + 1))), fields


# ---------------------------------------------------------------------------
# Normal distribution.
# ---------------------------------------------------------------------------


def _normal_spec() -> DistributionSpec:
    root = math.sqrt(math.pi / 2.0)
    a, levels = _pearson(0.0, 0.0, 1.0, 0.0, 1.0)
    scheme = IterationScheme(
        a=a,
        c_level=lambda l: root,
        d_level=lambda l: 2.0,
        base_substitutions={
            NormSymbol.solution(): BoundCoefficients({NormSymbol.centered(): root})
        },
    )
    literature = ("next-over-n", "gamma-ratio", "two-prev")
    return DistributionSpec(
        family="normal",
        params={},
        support=(-math.inf, math.inf),
        scheme=scheme,
        modes={
            "lemma23i": _value_chain(scheme, "i"),
            "lemma23ii": _value_chain(scheme, "ii"),
            **{w: Mode(functools.partial(normal_literature_bound, which=w)) for w in literature},
        },
        default_mode="lemma23ii",
        pdf=sf.norm_pdf,
        **levels,
    )


def normal_literature_bound(n: int, which: str) -> BoundCoefficients:
    """Sharp normal-family estimates quoted from prior work.

    which "next-over-n": ||f^(n)|| <= ||h^(n+1)|| / (n+1);
    "gamma-ratio":       ||f^(n)|| <= Gamma((n+1)/2)/(sqrt(2) Gamma(n/2+1)) ||h^(n+1)||;
    "two-prev":          ||f^(n)|| <= 2 ||h^(n-1)||  (n >= 2).
    """
    if which == "next-over-n":
        return BoundCoefficients({NormSymbol.test_deriv(n + 1): 1.0 / (n + 1)})
    if which == "gamma-ratio":
        ratio = math.exp(sf.log_gamma((n + 1.0) / 2.0) - sf.log_gamma(n / 2.0 + 1.0)) / math.sqrt(2.0)
        return BoundCoefficients({NormSymbol.test_deriv(n + 1): ratio})
    if which == "two-prev":
        if n < 2:
            raise ValidityError("the derivative-dropping estimate starts at order 2")
        return BoundCoefficients({NormSymbol.test_deriv(n - 1): 2.0})
    raise ValueError(f"unknown normal literature bound {which!r}")


# ---------------------------------------------------------------------------
# Gamma / exponential.
# ---------------------------------------------------------------------------


def gamma_solution_constant(r: float) -> float:
    """Sharp order-0 constant e^r Gamma(r) / r^r, evaluated in log space."""
    return math.exp(r + sf.log_gamma(r) - r * math.log(r))


def _gamma_spec(r: float, lam: float) -> DistributionSpec:
    r, lam = float(r), float(lam)
    if r <= 0 or lam <= 0:
        raise ValueError("gamma requires r > 0 and lambda > 0")
    log_norm = r * math.log(lam) - sf.log_gamma(r)

    def density(x):
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            return float(np.exp(log_norm + (r - 1.0) * np.log(x) - lam * x)) if x > 0 else 0.0
        arr = np.asarray(x, dtype=float)
        out = np.zeros(arr.shape)
        pos = arr > 0
        out[pos] = np.exp(log_norm + (r - 1.0) * np.log(arr[pos]) - lam * arr[pos])
        return out

    a, levels = _pearson(0.0, 1.0, 0.0, r, lam)
    scheme = IterationScheme(
        a=a,
        c_level=lambda l: gamma_solution_constant(r + l),
    )
    return DistributionSpec(
        family="gamma",
        params={"r": r, "lam": lam},
        support=(0.0, math.inf),
        scheme=scheme,
        modes={
            "lemma23i": _value_chain(scheme, "i"),
            "onestep": Mode(lambda n: gamma_onestep_bound(n, r)),
        },
        default_mode="lemma23i",
        pdf=density,
        delicate_points=(0.0,),
        **levels,
    )


def _exponential_spec(lam: float) -> DistributionSpec:
    return replace(_gamma_spec(1.0, lam), family="exponential", params={"lam": float(lam)})


def gamma_onestep_bound(n: int, r: float) -> BoundCoefficients:
    """Single-coefficient bound 2 e^(r+n) Gamma(r+n) / (r+n)^(r+n) on the
    n-th test-derivative norm (valid for n >= 1; rate-independent of lam)."""
    if n < 1:
        raise ValidityError("the one-step gamma bound starts at order 1")
    return BoundCoefficients({NormSymbol.test_deriv(n): 2.0 * gamma_solution_constant(r + n)})


# ---------------------------------------------------------------------------
# Beta / arcsine.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def beta_median(alpha: float, beta: float) -> float:
    """Median of the beta(alpha, beta) law by bisection on its CDF."""
    return _bisect(lambda x: betainc(alpha, beta, x), 0.5, 0.0, 1.0)


def _beta_log_b(alpha: float, beta: float) -> float:
    """log B(alpha, beta)."""
    return sf.log_gamma(alpha) + sf.log_gamma(beta) - sf.log_gamma(alpha + beta)


def _beta_density_value(alpha: float, beta: float, log_b: float, x: float) -> float:
    if not 0.0 < x < 1.0:
        return 0.0
    return math.exp((alpha - 1.0) * math.log(x) + (beta - 1.0) * math.log1p(-x) - log_b)


@functools.lru_cache(maxsize=None)
def beta_solution_constant(alpha: float, beta: float) -> float:
    """Order-0 constant 1 / (2 m (1 - m) p(m)) at the median m."""
    m = beta_median(alpha, beta)
    return 1.0 / (2.0 * m * (1.0 - m) * _beta_density_value(alpha, beta, _beta_log_b(alpha, beta), m))


def beta_lipschitz_constant(alpha: float, beta: float) -> float:
    """The four-branch first-derivative constant for Lipschitz test functions."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta parameters must be positive")
    if alpha == beta:
        if alpha < 1.0:
            return 4.0
        return 2.0 * alpha * math.sqrt(math.pi) * math.exp(sf.log_gamma(alpha) - sf.log_gamma(alpha + 0.5))
    b_fn = math.exp(sf.log_gamma(alpha) + sf.log_gamma(beta) - sf.log_gamma(alpha + beta))
    if alpha <= 1.0 and beta <= 1.0:
        branch = b_fn
    elif alpha <= 1.0 < beta:
        branch = 1.0 / alpha
    elif beta <= 1.0 < alpha:
        branch = 1.0 / beta
    else:
        branch = 1.0 / (alpha * beta * b_fn)
    return 2.0 * (alpha + beta) * branch


def _beta_spec(alpha: float, beta: float) -> DistributionSpec:
    alpha, beta = float(alpha), float(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta requires alpha > 0 and beta > 0")
    log_b = _beta_log_b(alpha, beta)

    def density(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim:
            out = np.zeros(arr.shape)
            inside = (arr > 0) & (arr < 1)
            xi = arr[inside]
            out[inside] = np.exp((alpha - 1.0) * np.log(xi) + (beta - 1.0) * np.log1p(-xi) - log_b)
            return out
        return _beta_density_value(alpha, beta, log_b, float(arr))

    a, levels = _pearson(-1.0, 1.0, 0.0, alpha, alpha + beta)
    scheme = IterationScheme(
        a=a,
        c_level=lambda l: beta_solution_constant(alpha + l, beta + l),
        e_level=lambda l: beta_lipschitz_constant(alpha + l, beta + l),
    )
    return DistributionSpec(
        family="beta",
        params={"alpha": alpha, "beta": beta},
        support=(0.0, 1.0),
        scheme=scheme,
        modes={"lemma23i": _value_chain(scheme, "i"), "lemma23iii": _value_chain(scheme, "iii")},
        default_mode="lemma23i",
        pdf=density,
        delicate_points=(0.0, 1.0),
        **levels,
    )


def _arcsine_spec() -> DistributionSpec:
    return replace(_beta_spec(0.5, 0.5), family="arcsine", params={})


# ---------------------------------------------------------------------------
# Student's t.
# ---------------------------------------------------------------------------


def student_t_solution_constant(d: float, delta: float) -> float:
    if d <= 0:
        raise ValidityError(f"student-t order-0 constant needs d > 0, got d={d}")
    return math.sqrt(math.pi) * math.exp(sf.log_gamma(d / 2.0) - sf.log_gamma((d + 1.0) / 2.0)) / (2.0 * delta)


def _student_t_spec(d: float, delta: float) -> DistributionSpec:
    d, delta = float(d), float(delta)
    if d <= 0 or delta <= 0:
        raise ValueError("student-t requires d > 0 and delta > 0")
    log_norm = sf.log_gamma((d + 1.0) / 2.0) - sf.log_gamma(d / 2.0) - 0.5 * math.log(math.pi * delta * delta)

    def density(x):
        if isinstance(x, float) or np.ndim(x) == 0:
            return float(np.exp(log_norm - 0.5 * (d + 1.0) * np.log1p(np.square(float(x) / delta))))
        arr = np.asarray(x, dtype=float)
        return np.exp(log_norm - 0.5 * (d + 1.0) * np.log1p((arr / delta) ** 2))

    a, levels = _pearson(1.0, 0.0, delta * delta, 0.0, d - 1.0)

    def level_d(l):
        """d - 2l, the degrees of freedom of level l; every level constant needs it > 0."""
        if d - 2 * l <= 0:
            raise ValidityError(f"student-t level constant undefined: d - 2l = {d - 2 * l} <= 0")
        return d - 2 * l

    def d_level(l):
        level_d(l)
        return 2.0 / (delta * delta)

    cap = int(math.floor((d - 1e-9) / 2.0))  # largest n with d - 2n > 0
    scheme = IterationScheme(
        a=a,
        c_level=lambda l: student_t_solution_constant(level_d(l), delta),
        d_level=d_level,
        base_substitutions={
            NormSymbol.solution(): BoundCoefficients(
                {NormSymbol.centered(): student_t_solution_constant(d, delta)}
            )
        },
    )
    return DistributionSpec(
        family="student_t",
        params={"d": d, "delta": delta},
        support=(-math.inf, math.inf),
        scheme=scheme,
        modes={
            "lemma23i": _value_chain(scheme, "i", cap),
            "lemma23ii": _value_chain(scheme, "ii", cap + 1),  # the f'-chain needs d - 2(n-1) > 0
        },
        default_mode="lemma23i",
        pdf=density,
        **levels,
    )


# ---------------------------------------------------------------------------
# Inverse-gamma.
# ---------------------------------------------------------------------------


def inverse_gamma_solution_constant(alpha: float, beta: float) -> float:
    if alpha <= 1:
        raise ValidityError(f"inverse-gamma order-0 constant needs alpha > 1, got {alpha}")
    return math.exp(
        sf.log_gamma(alpha) - math.log(beta) + (alpha - 1.0) * (1.0 - math.log(alpha - 1.0))
    )


def _inverse_gamma_spec(alpha: float, beta: float) -> DistributionSpec:
    alpha, beta = float(alpha), float(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("inverse-gamma requires alpha > 0 and beta > 0")
    log_norm = alpha * math.log(beta) - sf.log_gamma(alpha)

    def density(x):
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            return float(np.exp(log_norm - (alpha + 1.0) * np.log(x) - beta / x)) if x > 0 else 0.0
        arr = np.asarray(x, dtype=float)
        out = np.zeros(arr.shape)
        pos = arr > 0
        xi = arr[pos]
        # beta / xi overflows to inf for subnormal xi, and exp(-inf) = 0 is right
        with np.errstate(over="ignore"):
            out[pos] = np.exp(log_norm - (alpha + 1.0) * np.log(xi) - beta / xi)
        return out

    a, levels = _pearson(1.0, 0.0, 0.0, beta, alpha - 1.0)

    def c_level(l):
        if alpha - 2 * l <= 1:
            raise ValidityError(f"inverse-gamma level constant undefined at level {l} (alpha={alpha})")
        return inverse_gamma_solution_constant(alpha - 2 * l, beta)

    scheme = IterationScheme(a=a, c_level=c_level)
    return DistributionSpec(
        family="inverse_gamma",
        params={"alpha": alpha, "beta": beta},
        support=(0.0, math.inf),
        scheme=scheme,
        # alpha > 2n + 1
        modes={"lemma23i": _value_chain(scheme, "i", int(math.floor((alpha - 1.0 - 1e-9) / 2.0)))},
        default_mode="lemma23i",
        pdf=density,
        delicate_points=(0.0,),
        **levels,
    )


# ---------------------------------------------------------------------------
# PRR distribution (second-order operator, derivative coupling).
# ---------------------------------------------------------------------------


def prr_second_derivative_constant(s: float) -> float:
    """Base constant of the second-derivative bound: 4 at s = 1/2,
    2(pi sqrt(s) + 1/s) for s >= 1."""
    if s == 0.5:
        return 4.0
    if s >= 1.0:
        return 2.0 * (math.pi * math.sqrt(s) + 1.0 / s)
    raise ValidityError(f"prr constants defined for s = 1/2 or s >= 1, got {s}")


@functools.lru_cache(maxsize=16)
def _prr_u_table(s: float):
    """Quintic-spline table of x -> U(s-1, 1/2, x^2/(2s)) on the solver range.

    The 3,001 nodes come from one vectorised hyp_u call (tens of ms);
    the table reduces the million-point solver workloads to that one
    call.  Spline error is ~1e-12 relative, well inside the 1e-8 kernel
    contract.
    """
    from scipy.interpolate import make_interp_spline

    x_hi = 1.6 * math.sqrt(50.0 * s) + 6.0
    xs = np.linspace(0.0, x_hi, 3001)
    z = np.maximum(xs * xs / (2.0 * s), 1e-300)
    vals = np.asarray(sf.hyp_u(s - 1.0, 0.5, z))
    return make_interp_spline(xs, vals, k=5), x_hi


def _prr_u_function(s: float, x):
    """Tabled evaluation of U(s-1, 1/2, x^2/(2s)); direct fallback beyond
    the table range (deep tail, where the density is ~1e-16 of peak)."""
    arr = np.abs(np.asarray(x, dtype=float))
    spline, x_hi = _prr_u_table(s)
    out = np.asarray(spline(np.minimum(arr, x_hi)))
    far = arr > x_hi
    if np.any(far):
        tail = arr[far]
        out[far] = sf.hyp_u(s - 1.0, 0.5, np.maximum(tail * tail / (2.0 * s), 1e-300))
    return out if np.ndim(x) else float(out)


def _prr_spec(s: float) -> DistributionSpec:
    s = float(s)
    if not (s == 0.5 or 1.0 <= s <= 20.0):
        raise ValueError("prr requires s = 1/2 or 1 <= s <= 20 (validated U-function slice)")
    norm = sf.gamma_fn(s) * math.sqrt(2.0 / (s * math.pi))

    def density(x):
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            if not x > 0.0:
                return 0.0
            spline, x_hi = _prr_u_table(s)
            u = float(spline(x)) if x <= x_hi else _prr_u_function(s, x)
            return float(norm * np.exp(-max(x * x / (2.0 * s), 1e-300)) * u)
        arr = np.asarray(x, dtype=float)
        z = np.maximum(arr * arr / (2.0 * s), 1e-300)
        out = norm * np.exp(-z) * np.asarray(_prr_u_function(s, arr))
        out = np.where(arr > 0, out, 0.0)
        return out if arr.ndim else float(out)

    def kernel_v(x):
        """Homogeneous-solution factor in the double-integral representation."""
        arr = np.asarray(x, dtype=float)
        out = np.asarray(_prr_u_function(s, arr))
        return out if arr.ndim else float(out)

    def op_coeffs(k):
        return (
            _constf(s),
            lambda x: -np.asarray(x, dtype=float),
            _constf(-2.0 * (s - 1.0)),
        )

    def t_coeffs(k):
        return (_constf(0.0), _constf(1.0))

    def level_rhs(k):
        return [(0, _constf(float(k)))]

    subs = {}
    if s >= 1.0:
        subs[NormSymbol.solution_deriv()] = BoundCoefficients(
            {NormSymbol.plain(): math.sqrt(2.0 * math.pi)}
        )

    def c_level(l):
        if s < 1.0:
            raise ValidityError("prr first-derivative base constant available for s >= 1 only")
        return math.sqrt(2.0 * math.pi)

    scheme = IterationScheme(
        a=lambda j: float(j + 1),
        c_level=c_level,
        d_level=lambda l: prr_second_derivative_constant(s),
        base_substitutions=subs,
    )
    modes = {"lemma24i": _deriv_chain(scheme, "i")} if s >= 1.0 else {}
    modes["lemma24ii"] = _deriv_chain(scheme, "ii")
    return DistributionSpec(
        family="prr",
        params={"s": s},
        support=(0.0, math.inf),
        operator_order=2,
        coupling_kind="deriv",
        scheme=scheme,
        modes=modes,
        default_mode="lemma24i" if s >= 1.0 else "lemma24ii",
        pdf=density,
        op_coeffs=op_coeffs,
        t_coeffs=t_coeffs,
        rhs_terms=level_rhs,
        kernel_v=kernel_v,
        delicate_points=(0.0,),
    )


# ---------------------------------------------------------------------------
# Variance-gamma (second-order operator; value or mixed coupling).
# ---------------------------------------------------------------------------


def vg_scale_constant(r: float, theta: float, sigma: float) -> float:
    """The tail constant entering both order-0 and order-1 base bounds.

    Branch split at r = 2; the theta -> 0 limit of the upper branch is
    sqrt(pi) Gamma(r/2) / Gamma((r+1)/2).
    """
    if r <= 0 or sigma <= 0:
        raise ValueError("vg requires r > 0 and sigma > 0")
    if r >= 2.0:
        return (
            math.sqrt(math.pi)
            * math.exp(sf.log_gamma(r / 2.0) - sf.log_gamma((r + 1.0) / 2.0))
            * (1.0 + (theta / sigma) ** 2) ** (r / 2.0)
        )
    ratio = math.inf if theta == 0.0 else abs(sigma / theta)
    if ratio > 1e150:
        # the bracket below is 1 to double precision here, and squaring
        # the ratio would overflow
        return 6.0 * sf.gamma_fn(r / 2.0)
    return 6.0 * sf.gamma_fn(r / 2.0) * (1.0 - 1.0 / math.sqrt(1.0 + (sigma / theta) ** 2)) ** (-r / 2.0)


def vg_base_constants(r: float, theta: float, sigma: float) -> tuple[float, float]:
    """(solution-norm coefficient, first-derivative coefficient) on ||h~||."""
    c = vg_scale_constant(r, theta, sigma)
    body = 2.0 / r + c
    return body / math.sqrt(theta * theta + sigma * sigma), body / (sigma * sigma)


def vg_symmetric_solution_constant(r: float, sigma: float) -> float:
    """Sharp order-0 constant of the theta = 0 family."""
    return (1.0 / sigma) * (
        1.0 / r + math.pi * math.exp(sf.log_gamma(r / 2.0) - sf.log_gamma((r + 1.0) / 2.0)) / 2.0
    )


def bessel_tail_constant(nu: float, gamma: float) -> float:
    """Uniform constant bounding the Bessel-kernel tail integrals.

    Requires nu > -1/2 and |gamma| < 1; branch split at nu = 1/2.
    """
    if nu <= -0.5 or abs(gamma) >= 1.0:
        raise ValueError("need nu > -1/2 and |gamma| < 1")
    if nu >= 0.5:
        return (
            math.sqrt(math.pi)
            * math.exp(sf.log_gamma(nu + 0.5) - sf.log_gamma(nu + 1.0))
            / (1.0 - gamma * gamma) ** (nu + 0.5)
        )
    return 6.0 * sf.gamma_fn(nu + 0.5) / (1.0 - abs(gamma))


def _vg_spec(r: float, theta: float, sigma: float) -> DistributionSpec:
    r, theta, sigma = float(r), float(theta), float(sigma)
    if r <= 0 or sigma <= 0:
        raise ValueError("vg requires r > 0 and sigma > 0")
    nu = (r - 1.0) / 2.0
    alpha = math.sqrt(theta * theta + sigma * sigma) / (sigma * sigma)
    beta = theta / (sigma * sigma)
    log_norm = -(math.log(sigma) + 0.5 * math.log(math.pi) + sf.log_gamma(r / 2.0))
    half_scale = 2.0 * math.sqrt(theta * theta + sigma * sigma)

    def density(x):
        # scaled Bessel form: the exponent beta*x - alpha*|x| is <= 0, so the
        # tails underflow cleanly instead of overflowing.  Where the
        # exponential is 0 the density is 0: kve is NaN for arguments
        # beyond about 1e9.
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            ax = max(abs(x), 1e-12)
            scale = np.exp(log_norm + beta * x - alpha * ax + nu * np.log(ax / half_scale))
            return float(scale * _sp_kve(nu, alpha * ax)) if scale > 0.0 else 0.0
        arr = np.asarray(x, dtype=float)
        ax = np.maximum(np.abs(arr), 1e-12)
        scale = np.exp(log_norm + beta * arr - alpha * ax + nu * np.log(ax / half_scale))
        return np.where(scale > 0.0, scale * _sp_kve(nu, alpha * ax), 0.0)

    def op_coeffs(k):
        s2 = sigma * sigma
        return (
            lambda x: s2 * np.asarray(x, dtype=float),
            lambda x: s2 * (r + k) + 2.0 * theta * np.asarray(x, dtype=float),
            lambda x: (r + k) * theta - np.asarray(x, dtype=float),
        )

    # The level equations carry -k theta f^(k): the coupling operator that
    # the operator algebra actually produces is I - theta D.  Only the
    # cumulative magnitudes a_j = j, b_j = j|theta| enter the bounds.
    def t_coeffs(k):
        return (_constf(1.0), _constf(-theta))

    def level_rhs(k):
        return [(-1, _constf(float(k))), (0, _constf(-float(k) * theta))]

    b0_over_root, b0_over_s2 = vg_base_constants(r, theta, sigma)
    subs = {
        NormSymbol.solution(): BoundCoefficients(
            {NormSymbol.centered(): vg_symmetric_solution_constant(r, sigma) if theta == 0.0 else b0_over_root}
        )
    }

    def d_level(l):
        if theta == 0.0:
            return 2.0 / (sigma * sigma * (r + l))
        return vg_base_constants(r + l, theta, sigma)[1]

    def k_level(l):
        if theta == 0.0:
            return vg_symmetric_solution_constant(r + l, sigma)
        return vg_base_constants(r + l, theta, sigma)[0]

    scheme = IterationScheme(
        a=(lambda j: float(j + 1)) if theta == 0.0 else (lambda j: float(j)),
        b=None if theta == 0.0 else (lambda j: float(j) * abs(theta)),
        d_level=d_level,
        k_level=k_level,
        base_substitutions=subs,
    )

    def lemma25(n):
        # orders 0 and 1 are the base bounds the mixed chain starts from
        if n < 2:
            return BoundCoefficients({NormSymbol.centered(): (b0_over_root, b0_over_s2)[n]})
        return mixed_coupled_bound(scheme, n - 1)

    # at theta = 0 the scheme has no b sequence: only the base bounds remain
    mixed = Mode(lemma25, last=1 if theta == 0.0 else None, chain="mixed")
    return DistributionSpec(
        family="vg",
        params={"r": r, "theta": theta, "sigma": sigma},
        support=(-math.inf, math.inf),
        operator_order=2,
        coupling_kind="value" if theta == 0.0 else "mixed",
        scheme=scheme,
        modes={"lemma23ii": _value_chain(scheme, "ii"), "lemma25": mixed} if theta == 0.0 else {"lemma25": mixed},
        default_mode="lemma23ii" if theta == 0.0 else "lemma25",
        pdf=density,
        op_coeffs=op_coeffs,
        t_coeffs=t_coeffs,
        rhs_terms=level_rhs,
        delicate_points=(0.0,),
        extras={"base_bounds": {"f": b0_over_root, "f'": b0_over_s2}},
    )


# ---------------------------------------------------------------------------
# Quartic-tail density (exp(-x^4/12), Curie-Weiss magnetization limit).
# ---------------------------------------------------------------------------


def quartic_normalizer() -> float:
    """Normalizing constant sqrt(2) / (3^(1/4) Gamma(1/4))."""
    return math.sqrt(2.0) / (3.0 ** 0.25 * sf.gamma_fn(0.25))


@functools.lru_cache(maxsize=None)
def _quartic_a_table(n: int) -> tuple[tuple[float, ...], ...]:
    """Rows 0..n of the quartic chain coefficients a_j^(m)."""
    c1 = quartic_normalizer()
    u1 = (6.0 * c1) ** (1.0 / 3.0)
    u2 = (6.0 * c1) ** (2.0 / 3.0)
    u3 = 6.0 * c1
    rows: list[tuple[float, ...]] = []
    for m in range(n + 1):
        row = [0.0] * (m + 1)
        row[m] = 1.0
        if m >= 1:
            row[m - 1] = 3.0 * m / u1
        if m >= 2:
            row[m - 2] = 12.0 * m * (m - 1) / u2
        for k in range(3, m + 1):
            j = m - k
            row[j] = (
                3.0 * m / u1 * rows[m - 1][j]
                + 3.0 * m * (m - 1) / u2 * rows[m - 2][j]
                + m * (m - 1) * (m - 2) / u3 * rows[m - 3][j]
            )
        rows.append(tuple(row))
    return tuple(rows)


def quartic_a_coeffs(n: int) -> tuple[float, ...]:
    """Chain coefficients (a_0^(n), ..., a_n^(n)) of the quartic family."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return _quartic_a_table(n)[n]


def _quartic_spec() -> DistributionSpec:
    c1 = quartic_normalizer()

    def density(x):
        arr = np.asarray(x, dtype=float)
        out = c1 * np.exp(-(arr ** 4) / 12.0)
        return out if arr.ndim else float(out)

    def op_coeffs(k):
        return (None, _constf(1.0), lambda x: -np.asarray(x, dtype=float) ** 3 / 3.0)

    def t_coeffs(k):
        return (lambda x: np.asarray(x, dtype=float) ** 2, _constf(0.0))

    def level_rhs(k):
        terms = [(-1, lambda x: k * np.asarray(x, dtype=float) ** 2)]
        if k >= 2:
            terms.append((-2, lambda x: k * (k - 1.0) * np.asarray(x, dtype=float)))
        if k >= 3:
            terms.append((-3, _constf(k * (k - 1.0) * (k - 2.0) / 3.0)))
        return terms

    def variant(name, last=None):
        return Mode(functools.partial(quartic_bounds, variant=name), last)

    return DistributionSpec(
        family="quartic",
        params={},
        support=(-math.inf, math.inf),
        operator_order=1,
        coupling_kind="custom",
        scheme=IterationScheme(a=lambda j: float(j)),
        modes={
            "bounded": variant("bounded"),
            "iterated": variant("iterated"),
            "lipschitz": variant("lipschitz", last=2),
            "lipschitz_iterated": variant("lipschitz_iterated", last=2),
        },
        default_mode="iterated",
        pdf=density,
        op_coeffs=op_coeffs,
        t_coeffs=t_coeffs,
        rhs_terms=level_rhs,
        extras={"c1": c1},
    )


def quartic_bounds(order: int, variant: str = "iterated") -> BoundCoefficients:
    """Sup-norm bounds for the quartic-tail family.

    variant "bounded": constant 1/(2 c1) times the order-n chain weights.
    variant "iterated": constant 2 times the order-(n-1) chain weights
    (tighter; order 0 falls back to "bounded").
    variant "lipschitz": the order-0..2 constants on ||h'||.
    variant "lipschitz_iterated": the order-2 constant 8 on ||h'|| that
    one chain step yields.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    c1 = quartic_normalizer()
    if variant == "bounded" or (variant == "iterated" and order == 0):
        weights = quartic_a_coeffs(order)
        return BoundCoefficients({NormSymbol.test_norm(j): w / (2.0 * c1) for j, w in enumerate(weights)})
    if variant == "iterated":
        weights = quartic_a_coeffs(order - 1)
        return BoundCoefficients({NormSymbol.test_norm(j): 2.0 * w for j, w in enumerate(weights)})
    if variant == "lipschitz":
        table = {
            0: math.sqrt(3.0 * math.pi) / 2.0,
            1: math.sqrt(2.0) * 3.0 ** 0.25 * sf.gamma_fn(0.25),
            2: 4.0,
        }
        if order not in table:
            raise ValidityError("lipschitz constants listed for orders 0, 1, 2 only")
        return BoundCoefficients({NormSymbol.test_deriv(1): table[order]})
    if variant == "lipschitz_iterated":
        if order != 2:
            raise ValidityError("the iterated Lipschitz constant is a second-derivative bound")
        return BoundCoefficients({NormSymbol.test_deriv(1): 8.0})
    raise ValueError(f"unknown quartic variant {variant!r}")


# ---------------------------------------------------------------------------
# Multivariate normal (bounds only; no 1-D solver support).
# ---------------------------------------------------------------------------


def _mvn_spec(dim: int, row_norms: tuple[float, ...] | None = None) -> DistributionSpec:
    dim = int(dim)
    if dim < 1:
        raise ValueError("mvn requires dim >= 1")
    if row_norms is None:
        row_norms = tuple(1.0 for _ in range(dim))
    row_norms = tuple(float(v) for v in row_norms)
    if len(row_norms) != dim or any(v < 0 for v in row_norms):
        raise ValueError("row_norms must be dim nonnegative reals")

    def estimate(mode, last=None):
        return Mode(functools.partial(mvn_bounds, row_norms=row_norms, mode=mode), last)

    return DistributionSpec(
        family="mvn",
        params={"dim": dim},
        support=(-math.inf, math.inf),
        operator_order=2,
        coupling_kind="custom",
        scheme=IterationScheme(a=lambda j: float(j)),
        modes={
            "partial": estimate("partial"),
            "first": estimate("first"),
            "lower": estimate("lower"),
            "iterated": estimate("iterated", last=2),
        },
        default_mode="partial",
        extras={"row_norms": list(row_norms)},
    )


def mvn_bounds(n: int, row_norms, mode: str) -> BoundCoefficients:
    """Coefficient forms of the multivariate-normal estimates.

    row_norms are the covariance row norms [sum_j sigma_ij^2]^(1/2) for
    the differentiation directions.  "partial" gives 1/n on the n-th
    mixed partial of h; "first" gives the order-1 bound against ||h~||;
    "lower" trades one derivative for the smallest row norm; "iterated"
    is the identity-covariance second-derivative estimate obtained by one
    chain step.
    """
    row_norms = [float(v) for v in row_norms]
    if not row_norms or any(v < 0 for v in row_norms):
        raise ValueError("row_norms must be nonempty nonnegative reals")
    if mode == "partial":
        if n < 1:
            raise ValidityError("the flat partial-derivative bound starts at order 1")
        return BoundCoefficients({NormSymbol.test_deriv(n): 1.0 / n})
    if mode == "first":
        return BoundCoefficients({NormSymbol.centered(): sf.SQRT_PI_OVER_2 * max(row_norms)})
    if mode == "lower":
        if n < 2:
            raise ValidityError("the derivative-trading bound starts at order 2")
        ratio = math.exp(sf.log_gamma(n / 2.0) - sf.log_gamma((n + 1.0) / 2.0)) / math.sqrt(2.0)
        return BoundCoefficients({NormSymbol.test_deriv(n - 1): ratio * min(row_norms)})
    if mode == "iterated":
        if n != 2:
            raise ValidityError("the iterated estimate is stated for the second derivatives")
        if any(abs(v - 1.0) > 1e-12 for v in row_norms):
            raise ValidityError("the iterated estimate assumes identity covariance")
        return BoundCoefficients(
            {NormSymbol.test_deriv(1): sf.SQRT_PI_OVER_2, NormSymbol.centered(): math.pi / 2.0}
        )
    raise ValueError(f"unknown mvn mode {mode!r}")


# ---------------------------------------------------------------------------
# Small-case refined constants, exponent arithmetic, registry.
# ---------------------------------------------------------------------------


def refined_small_case_constants(family: str, **params) -> dict:
    """Verbatim special-case constants for exponential, beta and arcsine.

    Keys are the bounded quantity ("f", "f'", "f''"); values are
    BoundCoefficients.  The beta "f_lipschitz" entry ||h'||/(alpha + beta)
    bounds ||f|| (sharp for linear h), not ||f'||.
    """
    if family == "exponential":
        lam = float(params["lam"])
        return {
            "f": coefficients(h1=1.0 / lam),
            "f'": coefficients(h1=1.0),
            "f''": coefficients(h1=2.0 * lam / 3.0, h2=2.0 / 3.0),
        }
    if family == "beta":
        alpha, beta = float(params["alpha"]), float(params["beta"])
        return {
            "f": coefficients(**{"h~": beta_solution_constant(alpha, beta)}),
            "f_lipschitz": coefficients(h1=1.0 / (alpha + beta)),
            "f'": coefficients(h1=beta_lipschitz_constant(alpha, beta)),
        }
    if family == "arcsine":
        return {
            "f'": coefficients(h1=4.0),
            "f''": coefficients(h1=6.0 * math.pi, h2=1.5 * math.pi),
        }
    raise ValueError(f"no refined constants table for family {family!r}")


def langevin_exponents(eps: float, b1: float, b2: float, b3: float) -> tuple[float, float, float, float, float]:
    """Polynomial growth exponents for the first four derivative levels of
    an overdamped-Langevin Poisson-equation solution, given drift-growth
    exponents (b1, b2, b3) and any eps > 0."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    f0 = eps
    f1 = eps
    f2 = max(eps, b1 / 2.0)
    f3 = max(eps, b1, b2 / 2.0)
    f4 = max(eps, 0.5 * max(3.0 * b1, b1 + b2, b3))
    return (f0, f1, f2, f3, f4)


REGISTRY: dict[str, Callable[..., DistributionSpec]] = {
    "normal": _normal_spec,
    "gamma": _gamma_spec,
    "exponential": _exponential_spec,
    "beta": _beta_spec,
    "arcsine": _arcsine_spec,
    "student_t": _student_t_spec,
    "inverse_gamma": _inverse_gamma_spec,
    "prr": _prr_spec,
    "vg": _vg_spec,
    "quartic": _quartic_spec,
    "mvn": _mvn_spec,
}

FAMILIES = tuple(sorted(REGISTRY))


def param_names(family: str) -> tuple[str, ...]:
    """Parameter names of a family: its constructor's signature."""
    return tuple(inspect.signature(REGISTRY[family]).parameters)


def make_spec(family: str, **params) -> DistributionSpec:
    """Build a catalog entry; unknown families or parameters are rejected."""
    if family not in REGISTRY:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    signature = inspect.signature(REGISTRY[family]).parameters
    unknown = set(params) - set(signature)
    if unknown:
        raise ValueError(f"{family} does not take parameters {sorted(unknown)}")
    missing = {name for name, p in signature.items() if p.default is p.empty} - set(params)
    if missing:
        raise ValueError(f"{family} requires parameters {sorted(missing)}")
    return REGISTRY[family](**params)


def catalog_json(spec: DistributionSpec) -> dict:
    """Serializable description: family, params, support, scheme constants
    of the first five levels, validity window."""
    sch = spec.scheme
    levels = 5

    def sample(fn):
        if fn is None:
            return None
        out = []
        for l in range(levels):
            try:
                out.append(fn(l))
            except ValidityError:
                break
        return out

    def edge(v):
        # keep the document strict-JSON parseable
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v

    return {
        "family": spec.family,
        "params": dict(spec.params),
        "support": [edge(spec.support[0]), edge(spec.support[1])],
        "operator_order": spec.operator_order,
        "coupling_kind": spec.coupling_kind,
        "default_mode": spec.default_mode,
        "engine_modes": [entry.chain for entry in spec.modes.values() if entry.chain],
        "a_seq": [sch.a(j) for j in range(levels)],
        "b_seq": [sch.b(j) for j in range(levels)] if sch.b else None,
        "level_constants": {
            "C": sample(sch.c_level),
            "D": sample(sch.d_level),
            "E": sample(sch.e_level),
            "K": sample(sch.k_level),
        },
        "max_order": spec.max_order(spec.default_mode),
        **spec.extras,
    }
