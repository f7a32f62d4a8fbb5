"""Distribution catalog.

One spec object per supported family, holding everything the rest of the
package needs: the density and support, the Stein operator, the coupling
shape and cumulative coupling sequences, per-level base constants, the
base-case substitutions that resolve leftover solution norms, and the
mode table: every bound the family supports, keyed by its public mode
token, with its order window.

Every solvable family states its order-0 operator once, as three
polynomial coefficients and a split (a SteinOperator), and one Leibniz
expansion derives the operator, right-hand side and coupling of each
level of the iterated equations from them.  The seven first-order
families (normal, gamma, exponential, beta, arcsine, Student t,
inverse-gamma) are Pearson laws: _pearson builds their operators and
chain weights from five numbers per family, and their densities, for
Python floats and arrays alike, from one numpy expression each.

The bounds outside the three generic chains (quartic-tail, multivariate
normal, one-step gamma, normal literature bounds) live here, next to their
families, one function per mode-table row; closedform.bound_for is the
one public route to every row.  Families are built by the constructors
in REGISTRY, whose signatures are the parameter lists.

The catalog is immutable after construction and every evaluator here is
pure.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

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
from .special import (
    betainc, betaincinv, gammainc, gammaincc, gammainccinv, gammaincinv, ndtr, ndtri, rgamma, stdtr, stdtrit,
)

__all__ = [
    "DistributionSpec",
    "SteinOperator",
    "Level",
    "Mode",
    "make_spec",
    "param_names",
    "REGISTRY",
    "FAMILIES",
    "DEFAULT_SPECS",
    "numeric_cdf",
    "quantile",
    "quantiles",
    "beta_median",
    "beta_lipschitz_constant",
    "vg_scale_constant",
    "vg_base_constants",
    "bessel_tail_constant",
    "quartic_normalizer",
    "quartic_a_coeffs",
    "refined_small_case_constants",
    "langevin_exponents",
    "catalog_json",
]


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


# ---------------------------------------------------------------------------
# Polynomial-coefficient Stein operators: the level-k algebra.
# ---------------------------------------------------------------------------


class Level(NamedTuple):
    """The level-k equation L_k f^(k) = h^(k) + sum c f^(k + offset), the
    sum over rhs = ((offset, c), ...), and the coupling T_k = L_(k+1) D -
    D L_k, so that d/dx[L_k g] = L_(k+1) g' - T_k g.  operator and coupling
    hold the coefficients of (D^2, D, 1); every coefficient is a
    numpy.polynomial array, lowest degree first."""

    operator: tuple[np.ndarray, np.ndarray, np.ndarray]
    rhs: tuple[tuple[int, np.ndarray], ...]
    coupling: tuple[np.ndarray, np.ndarray, np.ndarray]


def _polynomial(c: list[float]) -> np.ndarray:
    """The coefficient list c as a numpy.polynomial array, less its
    trailing zeros (one stays)."""
    n = len(c)
    while n > 1 and not c[n - 1]:
        n -= 1
    return np.array(c[:n])


@dataclass(frozen=True, eq=False)
class SteinOperator:
    """L = a2 D^2 + a1 D + a0, each coefficient a numpy.polynomial array
    (lowest degree first), and split: the share of the Leibniz term
    k a1' f^(k) that the level equations carry on their right-hand side
    (0 for the Pearson laws and quartic, 1 for PRR, 1/2 for vg, whose
    coupling is I - theta D).  Every level is derived from these, on
    first request."""

    a2: np.ndarray
    a1: np.ndarray
    a0: np.ndarray
    split: float = 0.0
    _levels: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def _derivatives(self) -> list[list[list[float]]]:
        """[A, A', A'', ...] down to the first derivative that is zero for
        every degree, A the rows a2, a1, a0 zero-padded to one length.  They
        are Python floats: a chain weight is one short sum of them, and
        numpy's cost per call would dwarf it."""
        size = max(len(self.a2), len(self.a1), len(self.a0))
        ders = [[[float(c) for c in a] + [0.0] * (size - len(a)) for a in (self.a2, self.a1, self.a0)]]
        for _ in range(size):
            ders.append([[n * c for n, c in enumerate(row)][1:] + [0.0] for row in ders[-1]])
        return ders

    def _leibniz(self, k: int, i: int, d: int = 0) -> list[float]:
        """The coefficient of f^(k+2-i) in the k-th derivative of L f,
        differentiated d more times: by Leibniz's rule the sum over j of
        C(k, j) g_j, g_j the j-th derivative of the coefficient (a2, a1 or
        a0) of D^(2-i+j), less the split share of k a1' on f^(k).  The
        binomials are nested, C(k, j) (g_j + (k-j)/(j+1) (g_(j+1) + ...)),
        and this grouping fixes the rounding of every coefficient."""
        ders = self._derivatives
        acc = [0.0] * len(ders[0][0])
        for j in range(i, max(0, i - 2) - 1, -1):
            g = ders[min(j + d, len(ders) - 1)][i - j]
            keep = 1.0 - self.split if (i, j) == (2, 1) else 1.0
            ratio = (k - j) / (j + 1)
            acc = [keep * u + ratio * v for u, v in zip(g, acc)]
        scale = math.comb(k, max(0, i - 2))
        return [scale * v for v in acc]

    def level(self, k: int) -> Level:
        """The level-k equation: the k-th derivative of L f = h - E h(Z),

            sum_j C(k,j) (a2^(j) f^(k+2-j) + a1^(j) f^(k+1-j) + a0^(j) f^(k-j)) = h^(k).

        Its terms on f^(k+2), f^(k+1) and f^(k) form L_k, less the split
        share of k a1' f^(k); that share and the terms on lower derivatives
        move to the right-hand side (terms that vanish are left out)."""
        if k not in self._levels:
            leibniz = self._leibniz
            op = [leibniz(k, i) for i in range(3)]
            moved = [(2 - i, [-c for c in leibniz(k, i)]) for i in range(3, k + 3)]
            a1_slope = self._derivatives[1][1]
            moved.append((0, [-(k * (self.split * c)) for c in a1_slope]))
            # with (c2, c1, c0) = op, D L_k g = c2 g''' + (c2' + c1) g'' +
            # (c1' + c0) g' + c0' g, and L_(k+1) D has the same g''' term
            up = [leibniz(k + 1, i) for i in range(3)]
            slope = [leibniz(k, i, 1) for i in range(3)]
            coupling = (
                [u - s - c for u, s, c in zip(up[1], slope[0], op[1])],
                [u - s - c for u, s, c in zip(up[2], slope[1], op[2])],
                [-s for s in slope[2]],
            )
            self._levels[k] = Level(
                tuple(map(_polynomial, op)),
                tuple((offset, _polynomial(c)) for offset, c in moved if any(c)),
                tuple(map(_polynomial, coupling)),
            )
        return self._levels[k]


@dataclass(frozen=True)
class DistributionSpec:
    """Catalog entry: parameters, support, operators, iteration scheme, modes.

    coupling_kind says how the level-coupling operator acts on the
    solution: "value" (c*f), "deriv" (c*f'), "mixed" (c0*f + c1*f') or
    "custom" (outside the three generic chains).  operator_order is the
    differential order of every level operator.

    operator is the order-0 Stein operator of a solvable family, three
    polynomials and a split; operator.level(k) derives the level-k
    operator, right-hand side and coupling from them, and for the Pearson
    laws _pearson reads scheme.a off the same expansion.  pdf is None for
    a law without 1-D solver support; ppf, the inverse CDF, is set where
    it has a closed form (the Pearson laws) and quantile() tabulates the
    CDF elsewhere; cdf and survival, the CDF and the survival function, are
    set where scipy.special has them and a solve would otherwise integrate p
    adaptively (normal, gamma, exponential, Student t, inverse gamma), each
    from its own tail; kernel_v is the homogeneous-solution factor of the
    double-integral representation (second-order families solved that
    way), kernel_v_slope its derivative, and density_over_v the density
    divided by it (a solve then evaluates kernel_v once per point for
    both).  modes maps each supported mode token to its Mode; extras are
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
    ppf: Callable[[float], float] | None = None
    cdf: Callable[[float], float] | None = None
    survival: Callable[[float], float] | None = None
    operator: SteinOperator | None = None
    kernel_v: Callable | None = None
    kernel_v_slope: Callable | None = None
    density_over_v: Callable | None = None
    delicate_points: tuple[float, ...] = ()
    extras: dict = field(default_factory=dict)

    # -- distribution ------------------------------------------------------
    def density(self, x):
        return self.pdf(x)

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

    @property
    def solvable(self) -> bool:
        return self.pdf is not None

    def param_string(self) -> str:
        return ",".join(f"{k}={v:g}" for k, v in self.params.items())


# ---------------------------------------------------------------------------
# Numeric CDF and quantiles.
# ---------------------------------------------------------------------------


def numeric_cdf(spec: DistributionSpec, x: float) -> float:
    """The CDF at x by one adaptive integral of the density: the
    independent oracle of the quantile routes below.  The range is split
    at the delicate points and at the doublings -+1, -+2, ..., -+2^39 of
    _bracket, so no piece is so long that QUADPACK misses the mass in it
    (one piece from -inf to 1e6 reads 0 for the normal law), under the
    table's tolerance: _TAIL_EPSREL relative, no absolute floor."""
    lo, hi = spec.support
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    doublings = [2.0 ** k for k in range(_DOUBLINGS)]
    breaks = (*spec.delicate_points, *doublings, *(-t for t in doublings))
    val, _ = sf.integrate(spec.density, lo, x, breaks=breaks, epsabs=0.0, epsrel=_TAIL_EPSREL)
    if not math.isfinite(val):
        raise NumericError(f"{spec.family}{spec.params}: the CDF integral up to {x:g} is {val}")
    return min(max(val, 0.0), 1.0)


def _two_tailed(lower, upper):
    """A ppf from an inverse CDF (lower, of p) and an inverse survival
    function (upper, of the tail 1 - p, exact in floating point for p >=
    1/2): each quantile comes from its own tail, so a tail of 1e-8 keeps
    its digits."""
    return lambda p: float(lower(p)) if p <= 0.5 else float(upper(1.0 - p))


_BRACKET_LIMIT = 1e12


def quantile(spec: DistributionSpec, p: float) -> float:
    """The p-quantile, quantiles(spec, (p,))[0]: its bracket's tail
    targets are p and 1 - p."""
    return quantiles(spec, (p,))[0]


def quantiles(spec: DistributionSpec, ps) -> list[float]:
    """The p-quantile for each p of ps: spec.ppf where the law has a
    closed-form inverse, else roots of one tabulated CDF for all of them
    (_table_quantile).  A quantile that rounds onto a finite support end
    moves to the nearest double inside the support, where the density and
    the solver's weights are finite; one beyond +-1e12 (a tail too heavy
    for any grid) raises NumericError."""
    ps = [float(p) for p in ps]
    if not all(0.0 < p < 1.0 for p in ps):
        raise ValueError("quantile requires 0 < p < 1")
    xs = [spec.ppf(p) for p in ps] if spec.ppf is not None else _table_quantile(spec, ps)
    lo, hi = spec.support
    out = []
    for p, x in zip(ps, xs):
        if not abs(x) <= _BRACKET_LIMIT:
            raise NumericError(f"{spec.family}{spec.params}: the {p}-quantile {x:g} lies beyond +-{_BRACKET_LIMIT:g}")
        out.append(float(min(max(x, np.nextafter(lo, hi)), np.nextafter(hi, lo))))
    return out


_TAIL_EPSREL = 1e-12  # relative tolerance of the adaptive integrals of the table
_DOUBLINGS = 40  # 1, 2, ..., 2^39: the doublings within _BRACKET_LIMIT
_TABLE_PANELS = 256
_MASS_TOL = 1e-9  # largest |mass - 1| the table accepts
_NEWTON_STEPS = 60
_NEWTON_GTOL = 1e-14  # the Newton iteration stops once |F(x) - p| <= this times min(p, 1 - p)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 12-point rule of the table's panels, on first use: computing it
    at import costs the bound-only callers about 1 MB of memory."""
    return np.polynomial.legendre.leggauss(12)


def _adaptive(spec: DistributionSpec, a: float, b: float) -> float:
    """The integral of the density from a to b, either the larger or
    infinite, to _TAIL_EPSREL relative (no absolute floor: a tail of 1e-8
    needs digits below QUADPACK's default 1.49e-8)."""
    return sf.integrate(spec.density, a, b, spec.delicate_points, epsabs=0.0, epsrel=_TAIL_EPSREL)[0]


def _bracket(spec: DistributionSpec, p_min: float, p_max: float) -> tuple[float, float, float, float]:
    """(lo, hi, mass below lo, mass above hi) for an interval that holds
    every quantile from the p_min- to the p_max-quantile: the support ends,
    each infinite one replaced by the first of -+1, -+2, -+4, ... beyond
    which lies at most p_min (left) or 1 - p_max (right) of the mass, each
    tail one adaptive integral.  The search starts past the last doubling
    where |x| times the density (a tail estimate, one vectorised call) is
    still above the target.  A tail that stays too heavy out to +-1e12 (a
    density of too much mass) raises NumericError."""
    edges, tails = list(spec.support), [0.0, 0.0]
    for i, side, start, p, most in ((0, "left", -1.0, p_min, p_min), (1, "right", 1.0, p_max, 1.0 - p_max)):
        if np.isfinite(edges[i]):
            continue
        doublings = start * 2.0 ** np.arange(_DOUBLINGS)
        heavy = np.nonzero(np.abs(doublings) * spec.density(doublings) > most)[0]
        edges[i] = doublings[min(heavy[-1] + 1, _DOUBLINGS - 1)] if heavy.size else start
        while (tail := abs(_adaptive(spec, spec.support[i], edges[i]))) > most:
            edges[i] *= 2.0
            if abs(edges[i]) > _BRACKET_LIMIT:
                raise NumericError(
                    f"{spec.family}{spec.params}: no {side} bracket for the {p}-quantile within +-{_BRACKET_LIMIT:g}"
                )
        tails[i] = tail
    return edges[0], edges[1], tails[0], tails[1]


def _table_quantile(spec: DistributionSpec, ps: list[float]) -> list[float]:
    """The p-quantiles, for each p of ps, of a law without a closed-form
    inverse.

    One vectorised table for all of them: _TABLE_PANELS 12-point
    Gauss-Legendre panels on one bracket (its left tail at most min(ps),
    its right one at most 1 - max(ps)), with every delicate point on a
    panel edge and each panel that touches one an adaptive integral
    (QUADPACK meets the point at an end, as in the solver's panel
    integrals); each tail beyond the bracket is one adaptive integral.  A
    lower quantile (p <= 1/2) is a root of the CDF, summed from the left,
    and an upper one a root of the survival function, summed from the
    right, so a tail of 1e-8 keeps its digits.  Each p then has its own
    safeguarded Newton iteration (bisection when a step leaves the
    crossing panel), with the density as the derivative.  The solver's
    mesh asks for its three quantiles in one call; a single p gives the
    table of quantile(spec, p).

    The table keeps 12 nodes where the solver's mesh has 7: its 256 panels
    are up to 0.5 wide (the default sweep's mesh panels 5e-5 to 2.6e-3),
    and on such panels the 7-point Gauss-Kronrod rule misses a panel's
    mass by up to 4.1e-9 relative for vg(3.33489, -1.41193, 0.516807) and
    6.3e-11 for vg(0.6, 1.5, 0.5), against 4.5e-14 and 1.7e-15 with 12.
    """
    lo, hi, mass_lo, mass_hi = _bracket(spec, min(ps), max(ps))
    # equal panels between the delicate points, so the panel next to one is
    # as wide as the one that touches it
    cuts = [lo, *sorted(d for d in spec.delicate_points if lo < d < hi), hi]
    counts = np.maximum(1, np.round(_TABLE_PANELS * np.diff(cuts) / (hi - lo))).astype(int)
    edges = np.concatenate([np.linspace(u, v, n + 1)[:-1] for u, v, n in zip(cuts, cuts[1:], counts)] + [[hi]])
    nodes, weights = _gauss_legendre()
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + half[:, None] * nodes
    mass = (spec.density(xs) @ weights) * half
    delicate = np.zeros(len(a), dtype=bool)
    for d in spec.delicate_points:
        delicate |= (a <= d) & (d <= b)
    for i in np.nonzero(delicate)[0]:
        mass[i] = _adaptive(spec, a[i], b[i])
    total = mass_lo + mass.sum() + mass_hi
    if not abs(total - 1.0) <= _MASS_TOL:  # a NaN total fails too
        raise NumericError(f"{spec.family}{spec.params}: the density integrates to {float(total):.12g}, not 1")
    # the mass left of each edge, and right of it
    below = mass_lo + np.concatenate(([0.0], np.cumsum(mass)))
    above = mass_hi + np.concatenate((np.cumsum(mass[::-1])[::-1], [0.0]))
    out = []
    for p in ps:
        # g = F - p (lower) or (1 - p) - S (upper) at the edges: increasing,
        # and in either case its panel integrals are the masses
        g = below - p if p <= 0.5 else (1.0 - p) - above
        i = min(max(int(np.searchsorted(g, 0.0)) - 1, 0), len(a) - 1)
        out.append(_newton(spec, p, a[i], b[i], g[i], g[i + 1], delicate[i]))
    return out


def _newton(spec, p: float, left: float, right: float, g_left: float, g_right: float, delicate: bool) -> float:
    """The root of g in the crossing panel [left, right] of the table, g
    taking g_left and g_right at its ends: a Newton iteration safeguarded
    by bisection, with g between the edge on the quantile's tail side (the
    anchor) and x one 12-point Gauss-Legendre sum, or an adaptive integral
    in a panel that touches a delicate point."""
    nodes, weights = _gauss_legendre()
    anchor, g_anchor = (left, g_left) if p <= 0.5 else (right, g_right)

    def g_at(x: float) -> float:
        if delicate:
            return g_anchor + _adaptive(spec, anchor, x)
        h = 0.5 * (x - anchor)
        return g_anchor + h * float(spec.density(0.5 * (x + anchor) + h * nodes) @ weights)

    span = g_right - g_left
    x = left - g_left * (right - left) / span if span > 0.0 else 0.5 * (left + right)
    x = min(max(x, left), right)
    g_tol = _NEWTON_GTOL * min(p, 1.0 - p)
    for _ in range(_NEWTON_STEPS):
        gx = g_at(x)
        if abs(gx) <= g_tol:
            break
        if gx < 0.0:
            left = x
        else:
            right = x
        density = float(spec.density(x))
        newton = x - gx / density if density > 0.0 else math.nan
        if not left < newton < right:
            x = 0.5 * (left + right)
            continue
        if abs(newton - x) <= 1e-15 * abs(x):
            return newton
        x = newton
    return x


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


# ---------------------------------------------------------------------------
# Pearson laws: the level-k algebra of the first-order families.
# ---------------------------------------------------------------------------


def _on_support(expr, support: tuple[float, float]):
    """The density expr as a spec's pdf: 0 outside the open support, an
    array for an array and a Python float for a 0-d input (Python float,
    numpy scalar or 0-d array), which expr gets as a Python float.

    expr is called on points of the open support only.  It must be made
    of numpy ufuncs and the four arithmetic operators: a ufunc runs the
    same loop on a float as on an array, and the operators round
    correctly, so the two routes agree bit for bit (math.exp, say, does
    not agree with numpy.exp on a few percent of arguments).  An overflow
    in it can only drive the density to 0, so it is not reported.

    An array whose points all lie inside the support (mesh nodes, grids,
    quadrature nodes) goes to expr as it is; only one that reaches
    outside it (or holds a NaN) is gathered and scattered through a
    mask.  An elementwise expression gives every point the same bits on
    either route."""
    lo, hi = support

    def density(x):
        with np.errstate(over="ignore"):
            if isinstance(x, float) or np.ndim(x) == 0:
                x = float(x)
                return float(expr(x)) if lo < x < hi else 0.0
            arr = np.asarray(x, dtype=float)
            if arr.size and lo < arr.min() and arr.max() < hi:  # a NaN fails both
                return expr(arr)
            out = np.zeros(arr.shape)
            inside = (lo < arr) & (arr < hi)
            out[inside] = expr(arr[inside])
        return out

    return density


def _pearson(q2: float, q1: float, q0: float, b0: float, m: float, support: tuple[float, float], density):
    """The operator of a Pearson law: L f = tau f' + (b0 - m x) f with
    tau(x) = q2 x^2 + q1 x + q0, density being the law's density on the
    open support, in numpy ufuncs.  Returns (a, fields), fields being the
    DistributionSpec entries of a first-order value-coupled family: the
    operator, the support, the pdf (_on_support) and the finite support
    ends as delicate points.

    Its level k carries c_k f^(k-1) on the right-hand side, c_k = k (m -
    (k-1) q2), and the chain weights are a(j) = |c_(j+1)|, read off the
    Leibniz expansion.
    """
    operator = SteinOperator(np.zeros(1), np.array([q0, q1, q2]), np.array([b0, -m]))
    fields = dict(
        operator_order=1,
        coupling_kind="value",
        operator=operator,
        support=support,
        pdf=_on_support(density, support),
        delicate_points=tuple(end for end in support if math.isfinite(end)),
    )
    # the chains call a(j) in their inner loops; the cache makes a repeat
    # call one C-level lookup instead of two Python frames
    return functools.lru_cache(maxsize=None)(lambda j: abs(operator._leibniz(j + 1, 3)[0])), fields


# ---------------------------------------------------------------------------
# Normal distribution.
# ---------------------------------------------------------------------------


def _normal_spec() -> DistributionSpec:
    root = math.sqrt(math.pi / 2.0)
    a, fields = _pearson(0.0, 0.0, 1.0, 0.0, 1.0, (-math.inf, math.inf), sf.norm_pdf)
    scheme = IterationScheme(
        a=a,
        c_level=lambda l: root,
        d_level=lambda l: 2.0,
        base_substitutions={
            NormSymbol.solution(): BoundCoefficients({NormSymbol.centered(): root})
        },
    )

    # sharp normal-family estimates quoted from prior work
    def next_over_n(n):
        """||f^(n)|| <= ||h^(n+1)|| / (n+1)."""
        return BoundCoefficients({NormSymbol.test_deriv(n + 1): 1.0 / (n + 1)})

    def gamma_ratio(n):
        """||f^(n)|| <= Gamma((n+1)/2)/(sqrt(2) Gamma(n/2+1)) ||h^(n+1)||."""
        ratio = math.exp(sf.log_gamma((n + 1.0) / 2.0) - sf.log_gamma(n / 2.0 + 1.0)) / math.sqrt(2.0)
        return BoundCoefficients({NormSymbol.test_deriv(n + 1): ratio})

    def two_prev(n):
        """||f^(n)|| <= 2 ||h^(n-1)||  (n >= 2)."""
        if n < 2:
            raise ValidityError("the derivative-dropping estimate starts at order 2")
        return BoundCoefficients({NormSymbol.test_deriv(n - 1): 2.0})

    return DistributionSpec(
        family="normal",
        params={},
        scheme=scheme,
        modes={
            "lemma23i": _value_chain(scheme, "i"),
            "lemma23ii": _value_chain(scheme, "ii"),
            "next-over-n": Mode(next_over_n),
            "gamma-ratio": Mode(gamma_ratio),
            "two-prev": Mode(two_prev),
        },
        default_mode="lemma23ii",
        ppf=_two_tailed(ndtri, lambda q: -ndtri(q)),
        cdf=lambda x: float(ndtr(x)),
        survival=lambda x: float(ndtr(-x)),
        **fields,
    )


# ---------------------------------------------------------------------------
# Gamma / exponential.
# ---------------------------------------------------------------------------


def gamma_solution_constant(r: float) -> float:
    """Order-0 constant e^r Gamma(r) / r^r on ||h~||, evaluated in log
    space.  It is not sharp: the exact gamma(2, 1) value is 0.951 against
    1.847."""
    return math.exp(r + sf.log_gamma(r) - r * math.log(r))


def _gamma_spec(r: float, lam: float) -> DistributionSpec:
    r, lam = float(r), float(lam)
    if r <= 0 or lam <= 0:
        raise ValueError("gamma requires r > 0 and lambda > 0")
    log_norm = r * math.log(lam) - sf.log_gamma(r)
    a, fields = _pearson(
        0.0, 1.0, 0.0, r, lam, (0.0, math.inf), lambda x: np.exp(log_norm + (r - 1.0) * np.log(x) - lam * x)
    )
    scheme = IterationScheme(
        a=a,
        c_level=lambda l: gamma_solution_constant(r + l),
    )

    def onestep(n):
        """Single-coefficient bound 2 e^(r+n) Gamma(r+n) / (r+n)^(r+n) on
        the n-th test-derivative norm (valid for n >= 1; free of lam)."""
        if n < 1:
            raise ValidityError("the one-step gamma bound starts at order 1")
        return BoundCoefficients({NormSymbol.test_deriv(n): 2.0 * gamma_solution_constant(r + n)})

    return DistributionSpec(
        family="gamma",
        params={"r": r, "lam": lam},
        scheme=scheme,
        modes={
            "lemma23i": _value_chain(scheme, "i"),
            "onestep": Mode(onestep),
        },
        default_mode="lemma23i",
        ppf=_two_tailed(lambda p: gammaincinv(r, p) / lam, lambda q: gammainccinv(r, q) / lam),
        cdf=lambda x: float(gammainc(r, lam * x)),
        survival=lambda x: float(gammaincc(r, lam * x)),
        **fields,
    )


def _exponential_spec(lam: float) -> DistributionSpec:
    return replace(_gamma_spec(1.0, lam), family="exponential", params={"lam": float(lam)})


# ---------------------------------------------------------------------------
# Beta / arcsine.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def beta_median(alpha: float, beta: float) -> float:
    """Median of the beta(alpha, beta) law by bisection on its CDF."""
    return _bisect(lambda x: betainc(alpha, beta, x), 0.5, 0.0, 1.0)


def _beta_density(alpha: float, beta: float):
    """The beta(alpha, beta) density on (0, 1), in numpy ufuncs."""
    log_b = sf.log_gamma(alpha) + sf.log_gamma(beta) - sf.log_gamma(alpha + beta)
    return lambda x: np.exp((alpha - 1.0) * np.log(x) + (beta - 1.0) * np.log1p(-x) - log_b)


@functools.lru_cache(maxsize=None)
def beta_solution_constant(alpha: float, beta: float) -> float:
    """Order-0 constant 1 / (2 m (1 - m) p(m)) at the median m."""
    m = beta_median(alpha, beta)
    return 1.0 / (2.0 * m * (1.0 - m) * float(_beta_density(alpha, beta)(m)))


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
    a, fields = _pearson(-1.0, 1.0, 0.0, alpha, alpha + beta, (0.0, 1.0), _beta_density(alpha, beta))
    scheme = IterationScheme(
        a=a,
        c_level=lambda l: beta_solution_constant(alpha + l, beta + l),
        e_level=lambda l: beta_lipschitz_constant(alpha + l, beta + l),
    )
    return DistributionSpec(
        family="beta",
        params={"alpha": alpha, "beta": beta},
        scheme=scheme,
        modes={"lemma23i": _value_chain(scheme, "i"), "lemma23iii": _value_chain(scheme, "iii")},
        default_mode="lemma23i",
        # the upper quantile is 1 - (the lower quantile of beta(beta, alpha))
        ppf=_two_tailed(lambda p: betaincinv(alpha, beta, p), lambda q: 1.0 - betaincinv(beta, alpha, q)),
        **fields,
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
    t_scale = delta / math.sqrt(d)
    a, fields = _pearson(
        1.0, 0.0, delta * delta, 0.0, d - 1.0, (-math.inf, math.inf),
        lambda x: np.exp(log_norm - 0.5 * (d + 1.0) * np.log1p(np.square(x / delta))),
    )

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
        scheme=scheme,
        modes={
            "lemma23i": _value_chain(scheme, "i", cap),
            "lemma23ii": _value_chain(scheme, "ii", cap + 1),  # the f'-chain needs d - 2(n-1) > 0
        },
        default_mode="lemma23i",
        # x = t delta / sqrt(d), t a Student t variable with d degrees of freedom
        ppf=_two_tailed(lambda p: stdtrit(d, p) * t_scale, lambda q: -stdtrit(d, q) * t_scale),
        cdf=lambda x: float(stdtr(d, x / t_scale)),
        survival=lambda x: float(stdtr(d, -x / t_scale)),
        **fields,
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

    a, fields = _pearson(
        1.0, 0.0, 0.0, beta, alpha - 1.0, (0.0, math.inf),
        # beta / x overflows to inf for subnormal x, and exp(-inf) = 0 is right
        lambda x: np.exp(log_norm - (alpha + 1.0) * np.log(x) - beta / x),
    )

    def c_level(l):
        if alpha - 2 * l <= 1:
            raise ValidityError(f"inverse-gamma level constant undefined at level {l} (alpha={alpha})")
        return inverse_gamma_solution_constant(alpha - 2 * l, beta)

    scheme = IterationScheme(a=a, c_level=c_level)
    return DistributionSpec(
        family="inverse_gamma",
        params={"alpha": alpha, "beta": beta},
        scheme=scheme,
        # alpha > 2n + 1
        modes={"lemma23i": _value_chain(scheme, "i", int(math.floor((alpha - 1.0 - 1e-9) / 2.0)))},
        default_mode="lemma23i",
        # x = beta / y, y a gamma(alpha, 1) variable: the tails swap
        ppf=_two_tailed(lambda p: beta / gammainccinv(alpha, p), lambda q: beta / gammaincinv(alpha, q)),
        cdf=lambda x: float(gammaincc(alpha, beta / x)),
        survival=lambda x: float(gammainc(alpha, beta / x)),
        **fields,
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


_PRR_TAYLOR_TERMS = 14  # terms of the series about an anchor


@functools.lru_cache(maxsize=16)
def _prr_u_table(s: float):
    """Taylor series of v(x) = U(s-1, 1/2, x^2/(2s)) about 189 anchors on
    the solver range [0, x_hi]: the coefficients (_prr_taylor), the
    anchors and x_hi.

    The anchors lie every 16/3000 of x_hi from 0, and one more at x_hi,
    half a spacing past the one before it.  hyp_u_with_slope runs at them
    alone (the whole build takes about 0.5 ms) and gives v and dU/dz, so
    v' = (x/s) dU/dz; at x = 0 that tends to -sqrt(2 pi / s) / Gamma(s -
    1) (the coefficient of U's z^(1/2) term), which anchor 0 takes.  v
    solves s v'' - x v' - 2(s-1) v = 0, which has no singular point, so
    each anchor's 14-term series gives v and v' within half a spacing of
    it (_prr_u_function, _prr_u_slope).  Against 30-digit mpmath both are
    within 2e-14 relative of U and U' (s = 1/2 to 20), U' relative to
    max(|U'|, |U|).
    """
    x_hi = 1.6 * math.sqrt(50.0 * s) + 6.0
    x0 = np.r_[np.arange(0, 3000, 16) * (x_hi / 3000), x_hi]
    v0, v0_z = sf.hyp_u_with_slope(s - 1.0, 0.5, np.maximum(x0 * x0 / (2.0 * s), 1e-300))
    slope0 = v0_z * x0 / s
    slope0[0] = -math.sqrt(2.0 * math.pi / s) * rgamma(s - 1.0)
    if s == 0.5:
        v0[0] = 0.0  # U = x, where the floor's z would give 1e-150
    return _prr_taylor(s, x0, v0, slope0), x0, x_hi


def _prr_taylor(s: float, x0, c0, c1):
    """The _PRR_TAYLOR_TERMS Taylor coefficients in t of v(x0 + t), for v a
    solution of s v'' - x v' - 2(s-1) v = 0 with v(x0) = c0 and v'(x0) =
    c1; every argument but s is an array over x0.  At s = 1 (v = 1, v' =
    0) every coefficient past the first is exactly 0."""
    c = [c0, c1]
    for k in range(_PRR_TAYLOR_TERMS - 2):
        c.append((x0 * (k + 1) * c[k + 1] + (k + 2.0 * (s - 1.0)) * c[k]) / (s * ((k + 1) * (k + 2))))
    return c


def _prr_u_series(s: float, x):
    """The arguments of special.taylor_step for x in [0, x_hi]: the series,
    the index of each point's anchor and its step t from it.  The anchor
    is found by arithmetic, rint(x / spacing), and x past the midpoint of
    the last two anchors takes the last; an anchor steps by t = 0, which
    gives back its own v and v' exactly.  fmin and fmax pass over a NaN,
    so it takes an anchor, and t = NaN gives NaN."""
    coeffs, x0, _ = _prr_u_table(s)
    near = np.fmax(np.fmin(np.rint(x / x0[1]), x0.size - 2), 0.0) + (x > 0.5 * (x0[-2] + x0[-1]))
    near = near.astype(np.intp)
    return coeffs, near, x - x0[near]


def _prr_u_function(s: float, x):
    """U(s-1, 1/2, x^2/(2s)) at |x|: the series of the nearest anchor up
    to x_hi, and a direct evaluation beyond it (deep tail, where the
    density is ~1e-16 of peak).  A float in gives a float out."""
    _, _, x_hi = _prr_u_table(s)
    arr = np.abs(np.asarray(x, dtype=float))
    out = sf.taylor_step(*_prr_u_series(s, np.minimum(arr, x_hi)))  # minimum keeps a NaN
    far = arr > x_hi
    if np.any(far):
        tail = arr[far]
        out[far] = sf.hyp_u(s - 1.0, 0.5, np.maximum(tail * tail / (2.0 * s), 1e-300))
    return out if np.ndim(x) else float(out)


def _prr_u_slope(s: float, x: np.ndarray) -> np.ndarray:
    """d/dx of U(s-1, 1/2, x^2/(2s)) for x in [0, x_hi], from the same
    series that give _prr_u_function's v.  Every PRR grid lies inside
    that range (its end is 4.7 at s = 1/2 against 14, and 13.1 at s = 20
    against 56.6)."""
    return sf.taylor_slope(*_prr_u_series(s, x))


def _prr_spec(s: float) -> DistributionSpec:
    s = float(s)
    if not (s == 0.5 or 1.0 <= s <= 20.0):
        raise ValueError("prr requires s = 1/2 or 1 <= s <= 20 (validated U-function slice)")
    norm = sf.gamma_fn(s) * math.sqrt(2.0 / (s * math.pi))

    def density_over_v(x):
        """norm e^(-x^2/(2s)): the density is this times U on x > 0."""
        return norm * np.exp(-(x * x / (2.0 * s)))

    def density(x):
        """density_over_v times U on x > 0 (_on_support), U evaluated only
        where the first factor is positive: past about 38 sqrt(s) it is 0."""
        x = np.asarray(x)
        out = density_over_v(x)
        live = out > 0.0
        if live.all():
            return out * _prr_u_function(s, x)
        out = np.array(out)  # writable, a 0-d input too
        out[live] *= _prr_u_function(s, x[live])
        return out

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
        pdf=_on_support(density, (0.0, math.inf)),
        # the level equations carry k f^(k) on the right-hand side
        operator=SteinOperator(np.array([s]), np.array([0.0, -1.0]), np.array([-2.0 * (s - 1.0)]), split=1.0),
        kernel_v=functools.partial(_prr_u_function, s),
        kernel_v_slope=functools.partial(_prr_u_slope, s),
        density_over_v=density_over_v,
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
        # beyond about 1e9.  _on_support keeps +-inf and NaN out (0 there).
        ax = np.maximum(np.abs(x), 1e-12)
        scale = np.exp(log_norm + beta * x - alpha * ax + nu * np.log(ax / half_scale))
        return np.where(scale > 0.0, scale * sf.kve(nu, alpha * ax), 0.0)

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
        pdf=_on_support(density, (-math.inf, math.inf)),
        # The level equations carry -k theta f^(k): the coupling operator
        # that the operator algebra actually produces is I - theta D.  Only
        # the cumulative magnitudes a_j = j, b_j = j|theta| enter the bounds.
        operator=SteinOperator(
            np.array([0.0, sigma * sigma]), np.array([sigma * sigma * r, 2.0 * theta]), np.array([r * theta, -1.0]), 0.5
        ),
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
    """The quartic-tail family and its sup-norm bounds: "bounded" is
    1/(2 c1) times the order-n chain weights, "iterated" 2 times the
    order-(n-1) weights (tighter; order 0 falls back to "bounded"),
    "lipschitz" the order-0..2 constants on ||h'||, and
    "lipschitz_iterated" the order-2 constant 8 on ||h'|| that one chain
    step yields."""
    c1 = quartic_normalizer()
    support = (-math.inf, math.inf)

    def bounded(n):
        weights = quartic_a_coeffs(n)
        return BoundCoefficients({NormSymbol.test_norm(j): w / (2.0 * c1) for j, w in enumerate(weights)})

    def iterated(n):
        if n == 0:
            return bounded(0)
        weights = quartic_a_coeffs(n - 1)
        return BoundCoefficients({NormSymbol.test_norm(j): 2.0 * w for j, w in enumerate(weights)})

    def lipschitz(n):
        table = (math.sqrt(3.0 * math.pi) / 2.0, math.sqrt(2.0) * 3.0 ** 0.25 * sf.gamma_fn(0.25), 4.0)
        return BoundCoefficients({NormSymbol.test_deriv(1): table[n]})

    def lipschitz_iterated(n):
        if n != 2:
            raise ValidityError("the iterated Lipschitz constant is a second-derivative bound")
        return BoundCoefficients({NormSymbol.test_deriv(1): 8.0})

    return DistributionSpec(
        family="quartic",
        params={},
        support=support,
        operator_order=1,
        coupling_kind="custom",
        scheme=IterationScheme(a=lambda j: float(j)),
        modes={
            "bounded": Mode(bounded),
            "iterated": Mode(iterated),
            "lipschitz": Mode(lipschitz, last=2),
            "lipschitz_iterated": Mode(lipschitz_iterated, last=2),
        },
        default_mode="iterated",
        pdf=_on_support(lambda x: c1 * np.exp(-np.power(x, 4) / 12.0), support),
        operator=SteinOperator(np.zeros(1), np.ones(1), np.array([0.0, 0.0, 0.0, -1.0 / 3.0])),
        extras={"c1": c1},
    )


# ---------------------------------------------------------------------------
# Multivariate normal (bounds only; no 1-D solver support).
# ---------------------------------------------------------------------------


def _mvn_spec(dim: int, row_norms: tuple[float, ...] | None = None) -> DistributionSpec:
    """The multivariate-normal estimates.  row_norms are the covariance
    row norms [sum_j sigma_ij^2]^(1/2) for the differentiation directions
    (all 1 by default): "partial" gives 1/n on the n-th mixed partial of
    h; "first" gives the order-1 bound against ||h~||; "lower" trades one
    derivative for the smallest row norm; "iterated" is the
    identity-covariance second-derivative estimate obtained by one chain
    step."""
    if not (float(dim).is_integer() and dim >= 1):
        raise ValueError(f"mvn requires an integral dim >= 1, got {dim}")
    dim = int(dim)
    row_norms = tuple(float(v) for v in ((1.0,) * dim if row_norms is None else row_norms))
    if len(row_norms) != dim or not all(0.0 <= v < math.inf for v in row_norms):  # a NaN fails too
        raise ValueError("row_norms must be dim finite nonnegative reals")

    def partial(n):
        if n < 1:
            raise ValidityError("the flat partial-derivative bound starts at order 1")
        return BoundCoefficients({NormSymbol.test_deriv(n): 1.0 / n})

    def first(n):
        return BoundCoefficients({NormSymbol.centered(): sf.SQRT_PI_OVER_2 * max(row_norms)})

    def lower(n):
        if n < 2:
            raise ValidityError("the derivative-trading bound starts at order 2")
        ratio = math.exp(sf.log_gamma(n / 2.0) - sf.log_gamma((n + 1.0) / 2.0)) / math.sqrt(2.0)
        return BoundCoefficients({NormSymbol.test_deriv(n - 1): ratio * min(row_norms)})

    def iterated(n):
        if n != 2:
            raise ValidityError("the iterated estimate is stated for the second derivatives")
        if any(abs(v - 1.0) > 1e-12 for v in row_norms):
            raise ValidityError("the iterated estimate assumes identity covariance")
        return BoundCoefficients(
            {NormSymbol.test_deriv(1): sf.SQRT_PI_OVER_2, NormSymbol.centered(): math.pi / 2.0}
        )

    return DistributionSpec(
        family="mvn",
        params={"dim": dim},
        support=(-math.inf, math.inf),
        operator_order=2,
        coupling_kind="custom",
        scheme=IterationScheme(a=lambda j: float(j)),
        modes={
            "partial": Mode(partial),
            "first": Mode(first),
            "lower": Mode(lower),
            "iterated": Mode(iterated, last=2),
        },
        default_mode="partial",
        extras={"row_norms": list(row_norms)},
    )


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

# The default specs: every family once, plus the skewed variance-gamma law
# of the general-theta (lemma25) chain.  ``steinbounds catalog`` lists them
# all, in this order; the solvable ones are the default sweep's.
DEFAULT_SPECS: tuple[tuple[str, dict], ...] = (
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


def param_names(family: str) -> tuple[str, ...]:
    """Parameter names of a family: its constructor's signature."""
    return tuple(inspect.signature(REGISTRY[family]).parameters)


def make_spec(family: str, **params) -> DistributionSpec:
    """Build a catalog entry; unknown families or parameters, missing
    ones, bools and non-finite values (a NaN or infinite parameter or row
    norm) are rejected with ValueError."""
    if family not in REGISTRY:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    signature = inspect.signature(REGISTRY[family]).parameters
    unknown = set(params) - set(signature)
    if unknown:
        raise ValueError(f"{family} does not take parameters {sorted(unknown)}")
    missing = {name for name, p in signature.items() if p.default is p.empty} - set(params)
    if missing:
        raise ValueError(f"{family} requires parameters {sorted(missing)}")
    for name, value in params.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{family} parameter {name} must be a number, got {value!r}")
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{family} parameter {name} must be finite, got {value}")
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
