"""Stein-equation solver.

Computes the distinguished (bounded) solution of each 1-D Stein equation
for a given test function through the family's explicit integral
representation, then walks derivative values up through the iterated
equations (spec.operator.level(k)) by pointwise algebra rather than
numerical differentiation.  The second-order solves return the first
derivative from their representations too (vg from the derivatives of
its Bessel prefactors, PRR from the slope of its U series), so every
order above them is exact algebra on the level equations.

Grids are quantile-based: they cover [q(1e-8), q(1 - 1e-8)] plus a 20%
margin clipped to the support, with DEFAULT_POINTS = 20001 points; a vg
grid, stepped out from its origin to cover both ends, has one more.
One catalog.quantiles call gives both ends and the median, each from its
own tail (closed-form inverses for the Pearson laws, one tabulated CDF
for the others), and an end that meets a finite support end stops one
double inside it.

Everything that depends on the law but not on the test function lives in
a ``Mesh``, built once per spec by ``build_mesh``: the grid, the median
at which the first-order and PRR representations switch forms, the
PANEL_NODES = 7 Gauss-Kronrod nodes of every panel (140k for the 20000
panels, 20001 on a vg grid), the ranges of the panels next to the
delicate points (``Mesh.ranges``) and a memo of every h-independent
array of a solve, at the nodes or on the grid, each evaluated once.
The map h -> f is linear, so each solve multiplies the shared factors by
h - E h(Z); a sweep solves every test function of a spec on one mesh.
The first mesh of a process sets the C allocator's policy
(``special.retain_freed_memory``): on glibc, freed blocks of up to 32 MiB
and up to 64 MiB of free heap stay in the process, so the node arrays of
each new mesh (1.1 MB each, a working set of 4-10 MB per solve) reuse the
pages of the last one instead of faulting fresh ones in.  Peak RSS does
not move; a caller that builds no mesh (bounds only) keeps the defaults.

scipy evaluates the vg Bessel kernels (the scaled ive and kve at orders
nu and nu + 1) at sparse anchors only: every grid step within 256 steps
of the origin, then every 16th.  I_nu and K_nu solve the modified Bessel
equation z^2 w'' + z w' - (z^2 + nu^2) w = 0, so every other grid value
and every node takes its values from the 12-term Taylor series (from the
equation's recurrence) of the anchor that owns it: a far anchor owns the
16 steps from 8 below it, an anchor nearer the origin its own step.  The
vg grid is exactly dx * k, so grid point k dx and the nodes of the panel
from it lie at the same offsets v = 0, (1 + u_j) / 2 steps past k dx,
and one pass (_vg_bessels) gives both: the series of all the anchors at
their offsets are matrix products with one table of the offsets' powers,
16 x 8 shared by the far anchors and one row of 8 for the others; the
orders nu + 1 on the grid come from the series' derivative.  The values
form a table by the step |k|, which the panels left of the origin read
mirrored.  Only the nodes within 24 grid steps of the origin, where the
series converges slowly, call scipy.  A vg mesh so costs four Bessel
evaluations per anchor plus two per near-origin node: 3.8k points for
vg(3, 0, 1), whose grid has 10k distinct |x| and whose mesh has 140k
nodes, 168 distinct |y| of them near the origin.  The mesh keeps one vg
entry, the node factors and the grid prefactors, and no Bessel value.

Three rules integrate.  Every grid panel is summed by the 7-point
Gauss-Kronrod rule (G3/K7), whose embedded 3-point Gauss rule gives the
panel an error estimate; the largest sum of them, relative to the sum of
|panel|, is ``diagnostics["panel_error"]``, and a solve whose estimate
exceeds 1e-8 (a test function the grid does not resolve) raises
NumericError.  The ranges beyond the grid run from a support end, and
the panels next to a delicate point d (an integrable singularity, a kink
or a support end) take their own rule, which meets d only at an end.  At
a finite support end a of a first-order law, where the density is |x -
a|^gamma times a smooth factor, that rule is a 20-point Gauss-Jacobi rule
of weight |x - a|^gamma (``special.gauss_jacobi``), and each panel next
to a is F(b) - F(a), both ranges from a; a range a few doubles wide (the
arcsine grid ends two doubles inside 1) takes its leading term, and one
whose nodes would fall below the normal doubles the one-point rule at
its weight's centroid (_end_rules).  Next to
vg's origin and PRR's end at 0 each panel is its own range, so only the
panel that ends at the point meets it; PRR's density is analytic at 0,
so its ranges there take the 20-point Gauss-Legendre rule (gamma = 0).
The rules' ranges of a mesh take one array call.  Every other range (the
tails to infinity, vg's origin panels, inverse gamma's smooth zero at 0)
goes through ``_adaptive_ranges`` once per solve: ``special.integrate``
(QUADPACK's QAGS and QAGI in numpy, which call an integrand on arrays of
nodes) under one tolerance policy, the error estimates summing to
``diagnostics["quad_error"]``.  Each integral of a solve reads its range
integrals from one dict, (a, b) -> the integral from a to b: the panels
next to the delicate points and the range from an anchor beyond the grid.

E h(Z) comes from the mesh for the first-order and PRR solves: the G3/K7
panel sums of p h plus the same end, delicate and tail ranges, over the
mesh's mass of p (``diagnostics["mass"]``, 1 up to quadrature error).
The ranges' integrals of p (h - E h) follow by linearity from those of p
h and of p, the latter once per mesh (from the law's closed-form CDF or
survival function on the ranges no rule takes, where it has them), so
both sides of the split integral agree to rounding.  The vg solve takes
E h from ``expectation``, one adaptive integral over the line, which is
also the mesh's independent oracle.

The PRR solve interpolates its inner integral between grid points by a
cubic Hermite interpolant (``special.Hermite``) with the integrand as its
exact slope, and names each point's interval (``Hermite.at``): node row i
lies in grid panel i, and each Gauss-Legendre end row in the panel it
integrates, the range from 0 in the first, so no point is searched for.
Its kernel v sums the Taylor series of the nearest of catalog's sparse U
anchors (``special.taylor_step``), found by arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import special as sf
from .catalog import DistributionSpec, quantiles
from .errors import NumericError, ValidityError

__all__ = [
    "SineTest",
    "CosineTest",
    "PolyProbe",
    "parse_test_function",
    "SteinSolution",
    "Mesh",
    "build_mesh",
    "expectation",
    "solve",
    "propagate_derivatives",
    "empirical_sup",
    "residual_norm",
]

DEFAULT_POINTS = 20001
COVERAGE_TAIL = 1e-8
MARGIN = 0.2
PANEL_NODES = 7  # Gauss-Kronrod nodes per grid panel
# G3/K7 on [-1, 1]: the 7-point Kronrod extension of 3-point Gauss-Legendre
# (Piessens et al., QUADPACK, 1983), exact to degree 11.  _WEIGHTS holds the
# Kronrod weights and, on the same nodes, the Gauss ones (zero at the
# Kronrod-only nodes), so each panel's error estimate costs no evaluation.
_NODES = np.array([
    -0.96049126870802028342, -0.77459666924148337704, -0.43424374934680255800, 0.0,
    0.43424374934680255800, 0.77459666924148337704, 0.96049126870802028342,
])
_WEIGHTS = np.array([
    [0.10465622602646726519, 0.0],
    [0.26848808986833344073, 5.0 / 9.0],
    [0.40139741477596222291, 0.0],
    [0.45091653865847414235, 8.0 / 9.0],
    [0.40139741477596222291, 0.0],
    [0.26848808986833344073, 5.0 / 9.0],
    [0.10465622602646726519, 0.0],
])
# A grid point is excluded from algebraic propagation once the cumulative
# error amplification across all divisions by the leading coefficient
# exceeds this cap (base solution accuracy ~1e-11, so the propagated noise
# stays ~1e-5 at worst).
_CUMULATIVE_AMPLIFICATION_CAP = 1.0e6
_INTERIOR_EXCLUSION = 1.0e-3  # band excluded around a delicate point inside the grid
_FILL_DEGREE = 6  # degree of the polynomial extension over masked bands
_RESIDUAL_TRIM = 10  # grid points left out at either end of the residual check
# The largest relative G3/K7 panel error estimate a solve may carry, the
# bound expectation puts on its own error estimate.  The default sweep
# peaks at 1.2e-11; a test function that oscillates within a panel
# (sine:1e4 on the normal grid) reads 14.6.
_PANEL_ERROR_BOUND = 1e-8
_EPSABS = 1e-14  # absolute tolerance of the adaptive ranges of a solve
_END_NODES = 20  # Gauss-Jacobi nodes per range from a finite Pearson support end
_NARROW_ULPS = 4.0  # a range whose first such node lies within this many doubles of its end takes one node
_TINY = float(np.finfo(float).tiny)  # as does one whose first node lies closer to its end than this
_TAYLOR_TERMS = 12  # terms of the vg Bessel series about an anchor
_DIRECT_BAND = 256  # vg grid steps from the origin that are all Bessel anchors
_ANCHOR_STEPS = 16  # grid steps between the vg Bessel anchors beyond that band
_DIRECT_STEPS = 24  # vg nodes this many grid steps from the origin call scipy
_BLOCK = np.arange(-_ANCHOR_STEPS // 2, _ANCHOR_STEPS // 2)  # the steps from a far anchor that it owns
# the allocation policy, set once at the first mesh: callers that build no
# mesh (bounds only) keep the C allocator's defaults
_retain_freed_memory = functools.cache(sf.retain_freed_memory)


# ---------------------------------------------------------------------------
# Test functions with analytic derivatives and norms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SineTest:
    """h(x) = sin(a x); every derivative norm over the real line is |a|^j.
    x is a float or an array, and the values follow numpy's rule: a
    float in gives a float out."""

    freq: float = 1.0
    wave = staticmethod(np.sin)
    prefix = "sine"

    def __post_init__(self):
        if not math.isfinite(self.freq):
            raise ValueError(f"{self.prefix} test function frequency must be finite, got {self.freq}")

    def value(self, x):
        return self.wave(self.freq * x)

    def deriv(self, x, order: int):
        a = self.freq
        return a ** order * self.wave(a * x + order * math.pi / 2.0)

    def norm(self, order: int) -> float:
        return abs(self.freq) ** order if order else 1.0

    def centered_norm(self, mean_value: float) -> float:
        return 1.0 + abs(mean_value)

    @property
    def name(self) -> str:
        return f"{self.prefix}:{self.freq:g}"


class CosineTest(SineTest):
    """h(x) = cos(a x), with the norms of the sine test."""

    wave = staticmethod(np.cos)
    prefix = "cosine"


@dataclass(frozen=True)
class PolyProbe:
    """Polynomial probe with exact known solutions (unbounded: no norms)."""

    coeffs: tuple[float, ...]
    label: str = "poly"

    def value(self, x):
        return npoly.polyval(x, self.coeffs)

    def deriv(self, x, order: int):
        c = npoly.polyder(self.coeffs, order) if order else self.coeffs
        return npoly.polyval(x, c)

    def norm(self, order: int) -> float:
        raise ValueError("polynomial probes are unbounded; no analytic sup-norms")

    def centered_norm(self, mean_value: float) -> float:
        raise ValueError("polynomial probes are unbounded; no analytic sup-norms")

    @property
    def name(self) -> str:
        return f"probe:{self.label}"


def parse_test_function(token: str):
    """Parse a CLI selector: sine:a or cosine:a (a = 1 if left out)."""
    kind, _, arg = token.partition(":")
    if kind not in ("sine", "cosine"):
        raise ValueError(f"unknown test function {token!r}")
    try:
        freq = float(arg or 1.0)
    except ValueError:
        raise ValueError(f"test function {token!r}: frequency {arg!r} is not a number") from None
    return (SineTest if kind == "sine" else CosineTest)(freq)


# ---------------------------------------------------------------------------
# Quadrature helpers.
# ---------------------------------------------------------------------------


def expectation(spec: DistributionSpec, h) -> float:
    """E h(Z) by adaptive quadrature over the support (abs error <= 1e-10,
    else NumericError): the vg solve's E h, and the independent oracle of
    the mesh's E h that every other solve takes (_split_integral)."""

    def integrand(t):
        return spec.density(t) * h.value(t)

    lo, hi = spec.support
    total, err = sf.integrate(integrand, lo, hi, spec.delicate_points, epsabs=1e-12, epsrel=1e-11)
    if not err <= 1e-10:
        raise NumericError(f"expectation quadrature error estimate {err:.2e} too large")
    return total


def _adaptive_ranges(fn, keys, tail_epsabs: float) -> tuple[dict, float]:
    """The integral of fn over each range (a, b) of keys by
    special.integrate, as a dict (a, b) -> integral, and the sum of their
    error estimates.  Every adaptive range of a solve and of its mesh
    (not ``expectation``, the oracle) comes through here, under one
    tolerance policy: relative 1e-10 and absolute _EPSABS, but tail_epsabs
    on a range from +-inf.

    vg's K-kernel tails take 0: the tail beyond a thin-tail grid end is
    itself about 1e-14, and an I prefactor of 6e13 multiplies it (at
    epsabs 1e-14 the fourth derivative of vg(2, 1.2, 1), sine:1, was off by
    2.4e-5 of its sup at the left grid end).  The split integral's tails
    take _EPSABS: at 0 they cost 4-5 times the rule applications."""
    ranges, error = {}, 0.0
    for a, b in keys:
        ranges[a, b], err = sf.integrate(fn, a, b, epsabs=tail_epsabs if math.isinf(a) else _EPSABS, epsrel=1e-10)
        error += err
    return ranges, error


class _Integral:
    """The integral of one integrand of a solve over the mesh.

    Each grid panel is summed by the G3/K7 rule from the integrand's
    values at the mesh's PANEL_NODES nodes per panel; next to a delicate
    point d (integrable singularity, kink, support end) it is the sum of
    its row of ``Mesh.ranges`` instead, read from ranges, a dict (a, b) ->
    the integral from a to b, so the rule that gives a range meets d only
    at an end.  ranges also holds the range from each anchor beyond the
    grid that from_anchor reads, and ``error`` is their error estimate.
    ``panel_error`` is the G3/K7 panels' own estimate, relative to the sum
    of |panel|: a vg I-kernel integral reaches 2.3e25 (vg(3, 0.5, 1))
    where a prefactor of 1e-25 multiplies it, so only a relative figure
    says how well the rule resolves it.
    """

    def __init__(self, mesh, node_values, ranges: dict, error: float):
        self.grid = mesh.grid
        self.ranges, self.error = ranges, error
        self.panels, gauss = (node_values @ _WEIGHTS).T * mesh.half
        estimate = _panel_error(node_values, mesh, self.panels, gauss)
        for i, _, terms in mesh.ranges:
            self.panels[i] = sum(c * ranges[key] for key, c in terms)
            estimate[i] = 0.0  # its ranges' rule carries its error
        total = np.sum(np.abs(self.panels))
        self.panel_error = float(np.sum(estimate) / total) if total > 0.0 else 0.0

    def from_anchor(self, anchor: float) -> np.ndarray:
        """The integral from anchor to x at every grid point x.  anchor is
        a grid point (where the integral is 0) or lies beyond the grid (a
        support end, maybe infinite, whose range to the grid end is read
        from ranges), and the panel sums run outward from it, so the small
        integrals next to it keep their digits."""
        grid, panels = self.grid, self.panels
        k = min(int(np.searchsorted(grid, anchor)), len(grid) - 1)
        out = np.empty_like(grid)
        out[k] = 0.0 if grid[k] == anchor else self.ranges[anchor, grid[k]]
        out[k + 1:] = out[k] + np.cumsum(panels[k:])
        out[:k] = out[k] - np.cumsum(panels[:k][::-1])[::-1]
        return out


class _Ends:
    """What a split integral needs beyond the G3/K7 panels, for one mesh.

    Each range (a, b) is one of ``Mesh.ranges`` next to a delicate point
    d, or runs from a support end to the grid end next to it.  The density
    p is integrated over each range once per mesh (``p``, in the order of
    ``keys``), p * h once per solve (``integrals``).  Near a finite
    support end d with a power p = |x - d|^gamma s(x), s smooth
    (_end_exponent), d's ranges take _end_rules' Gauss-Jacobi rows
    (``nodes``, and ``unit``, the rule's weights for s, times s at the
    nodes in ``weights``), all of them in one h call.  Every other range
    (``adaptive``) goes to _adaptive_ranges for p * h; its p comes from the
    law's closed-form CDF or survival function where it has them (every
    Pearson law that has such a range), else from _adaptive_ranges too.

    The integral over the support of an integrand u on the nodes is
    ``panel_weights`` . u (the G3/K7 panels away from the delicate
    points) plus ``coefficients`` . (its range integrals); ``mass`` is
    that of p, 1 up to quadrature error.
    """

    def __init__(self, mesh, density):
        self.spec = spec = mesh.spec
        grid = mesh.grid
        coefficients: dict[tuple[float, float], float] = {}
        exponents: dict[tuple[float, float], float | None] = {}
        weights = density * _WEIGHTS[:, 0]
        weights *= mesh.half[:, None]

        def add(d, key, c):
            coefficients[key] = coefficients.get(key, 0.0) + c
            exponents[key] = _end_exponent(spec, d)

        for i, d, terms in mesh.ranges:
            weights[i] = 0.0  # the panel is the sum of its ranges
            for key, c in terms:
                add(d, key, c)
        lo, hi = spec.support
        add(lo, (lo, float(grid[0])), 1.0)
        add(hi, (hi, float(grid[-1])), -1.0)
        rules = [key for key in coefficients if exponents[key] is not None]
        self.adaptive = [key for key in coefficients if exponents[key] is None]
        self.keys = rules + self.adaptive
        self.coefficients = np.array([coefficients[key] for key in self.keys])
        self.nodes, self.unit, smooth = _end_rules(spec, rules, [exponents[key] for key in rules])
        self.weights = self.unit * smooth
        if spec.cdf is not None:
            p_ranges, self.p_error = {key: _closed_form_mass(spec, *key) for key in self.adaptive}, 0.0
        else:
            p_ranges, self.p_error = _adaptive_ranges(spec.density, self.adaptive, _EPSABS)
        self.p = np.r_[self.weights.sum(axis=1), list(p_ranges.values())]
        self.panel_weights = weights.ravel()
        self.mass = float(np.sum(self.panel_weights) + self.coefficients @ self.p)

    def integrals(self, h) -> tuple[np.ndarray, float]:
        """The integral of p * h over each range, in the order of keys,
        and the sum of their adaptive error estimates."""
        spec = self.spec
        ruled = np.sum(self.weights * h.value(self.nodes), axis=1)

        def weighted(x):
            return spec.density(x) * h.value(x)

        adaptive, error = _adaptive_ranges(weighted, self.adaptive, _EPSABS)
        return np.r_[ruled, list(adaptive.values())], error


def _closed_form_mass(spec, a: float, b: float) -> float:
    """The integral of p from a to b by the law's CDF, or by its survival
    function from the upper support end, so a tail keeps its digits."""
    lo, hi = spec.support
    if a == hi:
        return -spec.survival(b)
    return spec.cdf(b) - (0.0 if a == lo else spec.cdf(a))


def _end_exponent(spec, a: float) -> float | None:
    """The power gamma of |x - a| in the density at a finite support end
    a, whose ranges then take an _END_NODES-point Gauss-Jacobi rule.

    At an end of a first-order law (tau(a) = 0) it is b(a) / tau'(a) - 1:
    (b0 - m a) / tau'(a) - 1 for a Pearson law, -1/2 at both arcsine ends,
    alpha - 1 and beta - 1 for beta, r - 1 at gamma's 0.  At an end of a
    second-order law where the leading coefficient a2 does not vanish
    (PRR's 0) the density solves a regular linear equation, so it is
    analytic there: gamma = 0, and the rule is Gauss-Legendre's.  None
    where there is no such power: an infinite end, a point where a2
    vanishes (vg's origin), or tau'(a) = 0 (a smooth zero, such as inverse
    gamma's at 0)."""
    if not math.isfinite(a):
        return None
    op = spec.operator
    if spec.operator_order == 2:
        return 0.0 if npoly.polyval(a, op.a2) != 0.0 else None
    slope = npoly.polyval(a, npoly.polyder(op.a1))
    return None if slope == 0.0 else float(npoly.polyval(a, op.a0) / slope) - 1.0


def _end_rules(spec, keys, exponents) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes, the rule weights and s at the nodes, one row per range
    (a, x) of keys and its end's exponent gamma, so that sum(rule * s *
    h(nodes), axis=1) integrates p * h from a to x.

    p = v^gamma s with v = |x - a|, and each row is the _END_NODES-point
    Gauss-Jacobi rule of weight v^gamma (special.gauss_jacobi), so the
    power is integrated analytically: s = p / v^gamma is evaluated at the
    rounded nodes, v taken from the rounded x, one density call per
    exponent.  Two kinds of range take one node instead, with weight s
    L^(gamma + 1) / (gamma + 1), s taken at x:
    - one whose first node would lie within _NARROW_ULPS doubles of a (the
      arcsine grid ends two doubles inside 1) puts it at a, the rule's
      leading term;
    - one whose first node would lie closer to a than the smallest normal
      double (beta(0.01, 0.01)'s grid starts at 2.2e-308, where v^gamma
      overflows at that node) puts it at a + (x - a)(gamma + 1) / (gamma +
      2), the weight's centroid: the one-point Gauss-Jacobi rule, exact for
      a linear h, where h(a) would lose all of a sine's integral at 0."""
    nodes, rules, smooths = (np.empty((len(keys), _END_NODES)) for _ in range(3))
    for gamma in dict.fromkeys(exponents):
        rows = [k for k, g in enumerate(exponents) if g == gamma]
        u, w = sf.gauss_jacobi(_END_NODES, gamma)
        a = np.array([keys[k][0] for k in rows])[:, None]
        span = np.array([keys[k][1] for k in rows])[:, None] - a
        at = a + span * u
        first = np.abs(at[:, :1] - a)
        narrow = first < _NARROW_ULPS * np.spacing(np.abs(a))
        one = narrow | (first < _TINY)
        # s = p / v^gamma at the rounded nodes, or at x for a one-node range
        at = np.where(one, a + span, at)
        smooths[rows] = spec.density(at) / np.abs(at - a) ** gamma
        rule = np.where(one, np.eye(1, _END_NODES) / (gamma + 1.0), w)
        rules[rows] = np.sign(span) * np.abs(span) ** (gamma + 1.0) * rule
        centroid = np.where(narrow, 0.0, (gamma + 1.0) / (gamma + 2.0))
        nodes[rows] = np.where(one, a + span * centroid, at)
    return nodes, rules, smooths


def _panel_error(node_values, mesh, kronrod, gauss):
    """Each panel's error estimate, as QUADPACK's Gauss-Kronrod rules make
    it (Piessens et al., 1983): |K7 - G3| scaled by (200 |K7 - G3| /
    resasc)^1.5 and capped at resasc, the K7 integral of |f - its panel
    mean|."""
    raw = np.abs(kronrod - gauss)
    mean = 0.5 * kronrod / mesh.half
    # column by column: a (panels, 7) temporary costs three times as much
    asc = sum(w * np.abs(column - mean) for w, column in zip(_WEIGHTS[:, 0], node_values.T)) * mesh.half
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, 200.0 * raw / asc)
        scaled = asc * ratio * np.sqrt(ratio)
    return np.where(asc > 0.0, scaled, raw)


def _error_budget(*integrals) -> dict:
    """The diagnostics of a solve's integrals: quad_error, the sum of their
    adaptive error estimates, and panel_error, the largest relative panel
    estimate."""
    return {
        "quad_error": sum(integral.error for integral in integrals),
        "panel_error": max(integral.panel_error for integral in integrals),
    }


# ---------------------------------------------------------------------------
# Grid construction.
# ---------------------------------------------------------------------------


def build_grid(spec: DistributionSpec, qlo: float, qhi: float) -> np.ndarray:
    """The uniform grid over [qlo, qhi], the q(COVERAGE_TAIL) and
    q(1 - COVERAGE_TAIL) of spec, plus MARGIN of that span clipped to the
    support, with DEFAULT_POINTS points.  When an interior delicate point
    (vg's origin) lies on it, the step of DEFAULT_POINTS points is taken
    out from that point past both ends: DEFAULT_POINTS + 1 points, unless
    the point falls on a step of the plain grid."""
    lo_s, hi_s = spec.support
    span = qhi - qlo
    lo = qlo - 0.5 * MARGIN * span
    hi = qhi + 0.5 * MARGIN * span
    if lo < lo_s:
        lo = qlo  # no room for margin on this side
    if hi > hi_s:
        hi = qhi
    inside = [d for d in spec.delicate_points if lo < d < hi]
    if inside:
        # keep the delicate point on the grid (the vg representation
        # switches forms at the origin) while staying strictly uniform
        (d,) = inside
        dx = (hi - lo) / (DEFAULT_POINTS - 1)
        k_left = int(math.ceil((d - lo) / dx))
        k_right = int(math.ceil((hi - d) / dx))
        return d + dx * np.arange(-k_left, k_right + 1)
    return np.linspace(lo, hi, DEFAULT_POINTS)


@dataclass
class Mesh:
    """The test-function-independent part of a solve for one spec.

    xs holds the PANEL_NODES Gauss-Kronrod nodes of every grid panel (one
    row per panel) and half the panel half-widths; every mesh shares the
    rule's weights, _WEIGHTS.  median is the law's median, where the split
    integral switches from the lower to the upper support end, from the
    same quantiles call (one CDF table) as the grid's ends; None for vg,
    whose solve does not split.  ranges, which build_mesh alone writes,
    holds one (i, d, terms) per grid panel i within four panel widths of
    a delicate point d: terms are the ranges (a, b), integrals from a to
    b, and the coefficients whose sum is the panel's integral, F(b) - F(a)
    from d at a support end of a first-order law and the panel itself
    next to any other d.  ``cached`` keeps every h-independent part of a
    solve, evaluated once per mesh; solves share its arrays (their
    solutions the grid), so they are read-only.
    """

    spec: DistributionSpec
    grid: np.ndarray
    xs: np.ndarray
    half: np.ndarray
    median: float | None
    ranges: tuple
    _memo: dict = field(default_factory=dict, repr=False)

    def cached(self, name: str, build):
        """build(), called on the first request for name only; an array
        comes back read-only."""
        if name not in self._memo:
            value = self._memo[name] = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return self._memo[name]


def build_mesh(spec: DistributionSpec) -> Mesh:
    """Grid and panel nodes of spec, shared by every solve on it."""
    if not spec.solvable:
        raise ValidityError(f"family {spec.family} has no 1-D solver support")
    _retain_freed_memory()
    lo, hi = spec.support
    if any(lo < d < hi for d in spec.delicate_points):
        # vg's solve is anchored at its interior delicate point, the origin,
        # and reads no median, whose Newton run in the table panel at that
        # singular point would cost more than both grid ends together
        (qlo, qhi), median = quantiles(spec, (COVERAGE_TAIL, 1.0 - COVERAGE_TAIL)), None
    else:
        qlo, median, qhi = quantiles(spec, (COVERAGE_TAIL, 0.5, 1.0 - COVERAGE_TAIL))
    grid = build_grid(spec, qlo, qhi)
    a, b = grid[:-1], grid[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _NODES[None, :]
    for arr in (grid, half, xs):
        arr.flags.writeable = False
    radius = 4.0 * np.max(b - a)
    ranges = []
    for d in spec.delicate_points:
        from_d = spec.operator_order == 1 and _end_exponent(spec, d) is not None
        for i in np.flatnonzero((a - radius <= d) & (d <= b + radius)):
            left, right = float(a[i]), float(b[i])
            ranges.append((int(i), d, (((d, right), 1.0), ((d, left), -1.0)) if from_d else (((left, right), 1.0),)))
    return Mesh(spec=spec, grid=grid, xs=xs, half=half, median=median, ranges=tuple(ranges))


# ---------------------------------------------------------------------------
# Solution container.
# ---------------------------------------------------------------------------


@dataclass
class SteinSolution:
    """Distinguished solution of spec's Stein equation for the test
    function h, sampled on a grid, with derivative values propagated
    through the iterated equations.  filled[k] is a read-only bool array
    on the grid, True where derivs[k] was extrapolated (_fill_masked)
    rather than computed; all False for the orders the solve returns."""

    grid: np.ndarray
    derivs: dict[int, np.ndarray]
    filled: dict[int, np.ndarray]
    spec: DistributionSpec
    h: object
    diagnostics: dict


def empirical_sup(sol: SteinSolution, order: int) -> tuple[float, float, bool, bool]:
    """Grid sup of |f^(order)|, the grid point x of its first maximizer,
    whether the value there was filled (sol.filled) and whether x lies
    within 1% of the grid's points of either end (the sup may not be
    captured)."""
    if order not in sol.derivs:
        raise ValueError(f"order {order} has not been propagated")
    vals = np.abs(sol.derivs[order])
    idx = int(np.argmax(vals))
    n = len(vals)
    edge = max(1, int(0.01 * n))
    return float(vals[idx]), float(sol.grid[idx]), bool(sol.filled[order][idx]), bool(idx < edge or idx >= n - edge)


def residual_norm(sol: SteinSolution) -> float:
    """Max residual of the order-0 equation on the grid less its
    _RESIDUAL_TRIM points at either end, using the propagated derivative
    values."""
    spec = sol.spec
    inner = slice(_RESIDUAL_TRIM, -_RESIDUAL_TRIM)
    x = sol.grid[inner]
    f = sol.derivs[0][inner]
    htilde = sol.h.value(x) - sol.diagnostics["mean_value"]
    op = spec.operator
    res = npoly.polyval(x, op.a1) * sol.derivs[1][inner] + npoly.polyval(x, op.a0) * f - htilde
    if spec.operator_order == 2:
        res = res + npoly.polyval(x, op.a2) * sol.derivs[2][inner]
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# Solving the order-0 equation.
# ---------------------------------------------------------------------------


def solve(spec: DistributionSpec, h, *, mesh: Mesh | None = None) -> SteinSolution:
    """Distinguished solution of the order-0 Stein equation on the grid
    (on mesh's grid when one is given: it must have been built for spec).
    Raises NumericError when the panels' relative error estimate exceeds
    _PANEL_ERROR_BOUND."""
    if mesh is None:
        mesh = build_mesh(spec)
    elif mesh.spec is not spec:
        raise ValueError("the mesh was built for a different spec")
    if spec.operator_order == 1:
        derivs, diags = _solve_first_order(mesh, h)
    elif spec.family == "vg":
        derivs, diags = _solve_vg(mesh, h)
    elif spec.family == "prr":
        derivs, diags = _solve_prr(mesh, h)
    else:
        raise ValueError(f"no solver for family {spec.family}")
    if not diags["panel_error"] <= _PANEL_ERROR_BOUND:
        raise NumericError(
            f"panel quadrature error estimate {diags['panel_error']:.2e} (relative) exceeds"
            f" {_PANEL_ERROR_BOUND:g}: the grid does not resolve {h.name}"
        )
    computed = np.zeros(mesh.grid.shape, dtype=bool)  # one read-only mask for every order of the solve
    computed.flags.writeable = False
    filled = dict.fromkeys(derivs, computed)
    return SteinSolution(grid=mesh.grid, derivs=derivs, filled=filled, spec=spec, h=h, diagnostics=diags)


def _split_integral(mesh, h, density):
    """The integral of p * (h - E h) at every grid point: from the lower
    support end up to x left of the median, minus the one from x to the
    upper end on its right, each side integrating its own tail.  density
    is p at the mesh nodes (a mesh factor).

    E h is taken from the same mesh: the G3/K7 panel sums of p * h plus
    its integrals over the ranges beyond the grid and next to the
    delicate points (_Ends), over the mesh's mass of p.  The ranges' integrals of
    p * (h - E h) follow by linearity from those of p * h and of p, so
    the two sides agree to rounding (E[h - E h] = 0 on the mesh).
    Returns the values, the diagnostics of the solve (E h as mean_value,
    the mass), the _Integral and the mesh's _Ends."""
    ends = mesh.cached("ends", lambda: _Ends(mesh, density))
    hx = h.value(mesh.xs)
    ph, error = ends.integrals(h)
    # einsum, not BLAS: a threaded dot would sum in an order that depends on the thread count
    eh = float(np.einsum("i,i->", ends.panel_weights, hx.ravel()) + ends.coefficients @ ph) / ends.mass
    ranges = dict(zip(ends.keys, (ph - eh * ends.p).tolist()))
    hx -= eh
    hx *= density  # p * (h - E h) at the nodes, in h's buffer
    integral = _Integral(mesh, hx, ranges, error + abs(eh) * ends.p_error)
    from_ends = [integral.from_anchor(end) for end in mesh.spec.support]
    diags = {"mean_value": eh, "mass": ends.mass}
    return np.where(mesh.grid <= mesh.median, *from_ends), diags, integral, ends


def _solve_first_order(mesh, h):
    spec = mesh.spec
    numer, diags, integral, _ = _split_integral(mesh, h, mesh.cached("density", lambda: spec.density(mesh.xs)))
    f = numer / mesh.cached("s_density", lambda: npoly.polyval(mesh.grid, spec.operator.a1) * spec.density(mesh.grid))
    return {0: f}, _error_budget(integral) | diags


def _vg_steps(grid):
    """dx and the integer step |k| of every point of a vg grid, which is
    exactly dx * k (build_grid steps from the origin, so dx is the point
    right of the origin)."""
    i0 = int(np.argmin(np.abs(grid)))
    return grid[i0 + 1], np.abs(np.arange(grid.size) - i0)


def _vg_blocks(coeffs, t, sign):
    """e^(sign t) times the series of every anchor (a row of coeffs) at
    every offset t, one row per anchor: one matrix product with the table
    of the offsets' powers.  BLAS sums each entry's few terms in one
    order, so the values do not depend on its thread count."""
    out = coeffs @ t ** np.arange(coeffs.shape[1])[:, None]
    out *= np.exp(sign * t)
    return out


def _bessel_taylor(z0, nu, c0, c1):
    """The _TAYLOR_TERMS Taylor coefficients in t of w(z0 + t), for w a
    solution of z^2 w'' + z w' - (z^2 + nu^2) w = 0 (DLMF 10.25.1) with
    w(z0) = c0 and w'(z0) = c1; every argument is an array over z0."""
    z2 = z0 * z0
    c = [c0, c1]
    for k in range(_TAYLOR_TERMS - 2):
        top = (z2 - k * k + nu * nu) * c[k] - z0 * ((k + 1) * (2 * k + 1)) * c[k + 1]
        if k >= 1:
            top = top + 2.0 * z0 * c[k - 1]
        if k >= 2:
            top = top + c[k - 2]
        c.append(top / (z2 * ((k + 1) * (k + 2))))
    return c


def _vg_bessels(mesh, nu, alpha):
    """ive and kve at orders nu and nu + 1 of alpha |x| on the grid,
    stacked in that order, and ive and kve of alpha |y| at every node y.

    scipy evaluates the kernels at the anchors (orders nu and nu + 1):
    every grid step k below _DIRECT_BAND, then every _ANCHOR_STEPS-th out
    to the first at or past the grid's last step, at z0 = alpha dx k.
    Every other value comes from the _TAYLOR_TERMS-term series in t of the
    scaled e^(-z0) I_nu(z0 + t) and e^(z0) K_nu(z0 + t) (_bessel_taylor)
    of the anchor that owns its step k: below the first far anchor's
    block, its own anchor; beyond, the far anchor whose block (the steps
    _BLOCK from it) holds k.  The grid is dx * k, so grid point k dx and
    the nodes of the panel from k dx to (k + 1) dx lie v = 0 and (1 +
    u_j) / 2 steps past k dx (u_j the rule's nodes on [-1, 1]): every far
    anchor shares one table of 16 x 8 offsets and every other anchor one
    row of 8, one matrix product each per kernel (_vg_blocks), plus one
    for the series' derivative at the far grid offsets, which gives the
    orders nu + 1 on the grid: I_(nu+1) = I_nu' - (nu / z) I_nu and
    K_(nu+1) = -K_nu' + (nu / z) K_nu (DLMF 10.29.2).  The anchors keep
    scipy's values.  The series converges like (|t| / z0)^k, so the nodes
    within _DIRECT_STEPS grid steps of the origin call scipy (order nu).
    The values form one table by |k|: node j of panel -k-1 lies where node
    6-j of panel k does, so the panels left of the origin read the table
    reversed, with the nodes mirrored, and a symmetric grid evaluates half
    the blocks."""
    dx, steps = _vg_steps(mesh.grid)
    last, i0 = int(steps.max()), int(np.argmin(steps))
    anchors = np.r_[0:_DIRECT_BAND, _DIRECT_BAND:last + _ANCHOR_STEPS:_ANCHOR_STEPS]
    z0 = alpha * (dx * anchors)
    at = anchors[anchors <= last]  # the anchors on the grid keep scipy's values
    z = alpha * (dx * np.arange(last + 1))
    v = np.r_[0.0, (1.0 + _NODES) / 2.0]
    far = alpha * (dx * (_BLOCK[:, None] + v))  # the offsets from every far anchor
    band = _DIRECT_BAND + _BLOCK[0]  # the steps that their own anchors own

    def kernel(fn, sign):
        """One kernel's grid (orders nu, nu + 1) and node values; its tables die with the call."""
        w, w1 = fn(nu, z0), fn(nu + 1.0, z0)
        with np.errstate(divide="ignore", invalid="ignore"):
            series = np.stack(_bessel_taylor(z0, nu, w, nu / z0 * w - sign * w1), axis=1)
        # z0 = 0 has no series; what steps from the origin (its grid value
        # and the nodes next to it) takes scipy's values
        c = np.where(z0[:, None] > 0.0, series, 0.0)
        table = np.concatenate([
            _vg_blocks(c[:band], alpha * (dx * v), sign),
            _vg_blocks(c[_DIRECT_BAND:], far.ravel(), sign).reshape(-1, v.size),
        ])
        slope = _vg_blocks(c[_DIRECT_BAND:, 1:] * np.arange(1, _TAYLOR_TERMS), far[:, 0], sign)
        values, slope = table[:last + 1, 0], np.r_[np.zeros(band), slope.ravel()][:last + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.stack([values, sign * (nu / z * values - slope)])
        out[:, at] = w[:at.size], w1[:at.size]
        table = table[:, 1:]
        table[:_DIRECT_STEPS] = fn(nu, z0[:_DIRECT_STEPS, None] + alpha * (dx * v[1:]))
        return out[:, steps], np.concatenate([table[:i0][::-1, ::-1], table[:steps.size - 1 - i0]])

    (grid_i, nodes_i), (grid_k, nodes_k) = kernel(sf.ive, -1.0), kernel(sf.kve, 1.0)
    return np.concatenate([grid_i, grid_k]), nodes_i, nodes_k


def _solve_vg(mesh, h):
    spec, grid = mesh.spec, mesh.grid
    eh = expectation(spec, h)
    r, theta, sigma = spec.params["r"], spec.params["theta"], spec.params["sigma"]
    nu = (r - 1.0) / 2.0
    s2 = sigma * sigma
    alpha = math.sqrt(theta * theta + s2) / s2
    beta = theta / s2

    def htilde(x):
        return h.value(x) - eh

    # Scaled kernels: exp(beta y) I_nu(alpha |y|) = ive * exp(beta y + alpha |y|)
    # and exp(beta y) K_nu(alpha |y|) = kve * exp(beta y - alpha |y|), times
    # |y|^nu and h - E h.  The K-kernel exponent is <= 0 whenever |beta| <
    # alpha, so the tail quadratures cannot overflow.
    def kernel_i(y):
        ay = np.abs(y)
        return np.exp(beta * y + alpha * ay) * ay ** nu * sf.ive(nu, alpha * ay) * htilde(y)

    def kernel_k(y):
        ay = np.maximum(np.abs(y), 1e-300)
        return np.exp(beta * y - alpha * ay) * ay ** nu * sf.kve(nu, alpha * ay) * htilde(y)

    def factors():
        """vg's h-independent arrays, from one _vg_bessels pass.  First
        kernel_i and kernel_k at the nodes less their factor h - E h,
        written into one array (beta y, alpha |y| and |y|^nu, no node being
        0, are shared by both): they can set a vg solve's memory peak, so
        the node Bessel values go as soon as they exist.  Then exp(-beta x) /
        (s2 |x|^nu) times K_nu(alpha |x|) and I_nu(alpha |x|) on the grid,
        and their exact derivatives (the first-derivative cross terms of
        the two integrals cancel identically), each exponent pair one exp."""
        (i_n, i_n1, k_n, k_n1), ive, kve = _vg_bessels(mesh, nu, alpha)
        xs = mesh.xs
        nodes = np.empty((2, *xs.shape))
        np.multiply(beta, xs, out=nodes[0])
        ay = np.abs(xs)
        ay *= alpha  # alpha |y|, in the buffer that then holds |y|^nu
        np.subtract(nodes[0], ay, out=nodes[1])
        nodes[0] += ay
        with np.errstate(over="ignore"):  # checked below
            np.exp(nodes, out=nodes)
            nodes *= np.power(np.abs(xs, out=ay), nu, out=ay)
            nodes[0] *= ive
            nodes[1] *= kve
        del ay, ive, kve
        for name, fac in zip("IK", nodes):
            if not np.all(np.isfinite(fac)):
                y = xs[~np.isfinite(fac)]
                raise NumericError(
                    f"vg {name}-kernel factor overflows the double range at |y| = {np.min(np.abs(y)):.4g}"
                    f" (grid reaches [{grid[0]:.4g}, {grid[-1]:.4g}])"
                )
        ax = np.abs(grid)
        sgn = np.where(grid >= 0, 1.0, -1.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            power = s2 * np.maximum(ax, 1e-300) ** nu
            exp_k = np.exp(-beta * grid - alpha * ax) / power
            exp_i = np.exp(-beta * grid + alpha * ax) / power
            prefactors = np.stack([
                exp_k * k_n,
                exp_i * i_n,
                -exp_k * (beta * k_n + sgn * alpha * k_n1),
                exp_i * (sgn * alpha * i_n1 - beta * i_n),
            ])
        nodes.flags.writeable = prefactors.flags.writeable = False
        return nodes, prefactors

    i0 = int(np.argmin(np.abs(grid)))
    if abs(grid[i0]) > 1e-12:
        raise NumericError("vg grid must contain the origin")
    (fac_i, fac_k), (k_part, i_part, dk_part, di_part) = mesh.cached("vg", factors)
    h_nodes = htilde(mesh.xs)
    # the I-kernel integral is anchored at the origin: anchoring it at a
    # grid edge would difference huge tail values and destroy the small
    # near-origin integrals.  The K-kernel integral runs to +inf for
    # x >= 0 and to -inf for x < 0.
    near = [key for _, _, terms in mesh.ranges for key, _ in terms]
    tails = [(math.inf, float(grid[-1])), (-math.inf, float(grid[0]))]
    int_i = _Integral(mesh, fac_i * h_nodes, *_adaptive_ranges(kernel_i, near, 0.0))
    int_k = _Integral(mesh, fac_k * h_nodes, *_adaptive_ranges(kernel_k, near + tails, 0.0))
    pos = grid >= 0
    a_int = int_i.from_anchor(0.0)
    b_side = np.where(pos, int_k.from_anchor(math.inf), int_k.from_anchor(-math.inf))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = -k_part * a_int + i_part * b_side
        f1 = -dk_part * a_int + di_part * b_side
    # exactly at the origin only the I-branch survives (plus the finite
    # K-branch limit in the derivative)
    i_part0 = (alpha / 2.0) ** nu / (sf.gamma_fn(nu + 1.0) * s2)
    f[i0] = i_part0 * b_side[i0]
    f1[i0] = (h.value(0.0) - eh) / (s2 * r) - (theta / s2) * f[i0]
    return {0: f, 1: f1}, _error_budget(int_i, int_k) | {"mean_value": eh}


def _solve_prr(mesh, h):
    """f = (v/s) A with A(x) the integral of g / (v kappa) from 0 to x,
    where g is the split integral of kappa * (h - E h), kappa being the
    density, and f' = (v' A + g / kappa) / s, v' the slope of the same U
    series that give v.  Between grid points g is its cubic Hermite
    interpolant, with the exact slope g' = kappa * (h - E h); node row i
    takes interval i, and so does each Gauss-Legendre end row of a panel
    range (grid[i], grid[i+1]), the range (0, grid[0]) interval 0."""
    spec, grid = mesh.spec, mesh.grid
    s = spec.params["s"]
    # U is evaluated once at the nodes and once on the grid: kappa is
    # density_over_v * U at both, and v * kappa is U times that
    u = mesh.cached("v_nodes", lambda: spec.kernel_v(mesh.xs))
    kappa = mesh.cached("prr_density", lambda: spec.density_over_v(mesh.xs) * u)
    g_vals, diags, inner, ends = _split_integral(mesh, h, kappa)
    eh = diags["mean_value"]
    v = mesh.cached("v", lambda: spec.kernel_v(grid))
    kappa_grid = mesh.cached("prr_density_grid", lambda: spec.density_over_v(grid) * v)
    g = sf.Hermite(grid, g_vals, kappa_grid * (h.value(grid) - eh))

    # the ranges from 0 and the panels next to it are _split_integral's
    # Gauss-Legendre rows (gamma = 0: the density is analytic in x there),
    # all in one call of the outer integrand g / (v kappa); the rows lead
    # ends.keys
    y = ends.nodes
    interval = {key: i for i, _, terms in mesh.ranges for key, _ in terms} | {(0.0, float(grid[0])): 0}
    rows = np.array([interval[key] for key in ends.keys[:len(y)]])[:, None]
    outer = np.sum(ends.unit * (g.at(y, rows) / (spec.kernel_v(y) * spec.density(y))), axis=1)
    fac = mesh.cached("v_kappa", lambda: u * kappa)
    node_g = g.at(mesh.xs, np.arange(grid.size - 1)[:, None])
    integral = _Integral(mesh, node_g / fac, dict(zip(ends.keys, outer.tolist())), 0.0)
    a_vals = integral.from_anchor(0.0)
    f = v * a_vals / s
    f1 = (mesh.cached("v_slope", lambda: spec.kernel_v_slope(grid)) * a_vals + g_vals / kappa_grid) / s
    return {0: f, 1: f1}, _error_budget(inner, integral) | diags


# ---------------------------------------------------------------------------
# Derivative propagation through the iterated equations.
# ---------------------------------------------------------------------------

def _fill_masked(grid, vals, mask, split_points):
    """vals, with each masked run replaced in place by a one-sided
    polynomial extension (least squares, degree _FILL_DEGREE) of its clean
    neighbours; runs are split at any interior split point so each side
    is extended from its own neighbours."""
    n = len(grid)
    edges = np.flatnonzero(np.diff(np.r_[False, mask, False]))
    runs = [np.arange(a, b) for a, b in zip(edges[::2], edges[1::2])]
    pieces = []
    for run in runs:
        cut = next((d for d in split_points if grid[run[0]] < d < grid[run[-1]]), None)
        if cut is None:
            pieces.append(run)
        else:
            pieces.append(run[grid[run] <= cut])
            pieces.append(run[grid[run] > cut])
    for run in pieces:
        left_ok = run[0] - 1 >= 0 and not mask[run[0] - 1]
        right_ok = run[-1] + 1 < n and not mask[run[-1] + 1]
        window = max(60, 3 * len(run))
        if right_ok:
            j0 = run[-1] + 1
            sel = np.arange(j0, min(n, j0 + window))
        elif left_ok:
            j1 = run[0]
            sel = np.arange(max(0, j1 - window), j1)
        else:
            raise NumericError("masked propagation band has no clean neighbourhood")
        sel = sel[~mask[sel]]
        if len(sel) <= _FILL_DEGREE + 2:
            raise NumericError("not enough clean points to extend the masked band")
        x0 = grid[sel].mean()
        scale = max(grid[sel].max() - grid[sel].min(), 1e-300)
        coef = npoly.polyfit((grid[sel] - x0) / scale, vals[sel], _FILL_DEGREE)
        vals[run] = npoly.polyval((grid[run] - x0) / scale, coef)
    return vals


def propagate_derivatives(sol: SteinSolution, max_order: int) -> SteinSolution:
    """Extend sol.derivs up to max_order by solving each level equation
    pointwise for its top derivative.  The solve supplies every order
    below the operator order (f, and f' for vg and PRR), so no derivative
    here is a numerical one.

    Points where the top-derivative coefficient is too small relative to
    the other operator coefficients (vanishing leading coefficient at a
    support edge, or at a delicate point inside the grid: the interior
    zero of the vg operator) are excluded
    from the algebra and filled by one-sided degree-6 polynomial
    extension.  The mask of each propagated order k is kept as
    filled[k] (SteinSolution), and diagnostics["filled_points"] counts
    the filled points of every order.
    """
    spec, h = sol.spec, sol.h
    cap = spec.propagation_cap()
    if cap is not None and max_order > cap:
        raise ValidityError(
            f"{spec.family}: order {max_order} lies beyond the validity window (max {cap})"
        )
    grid = sol.grid
    eh = sol.diagnostics["mean_value"]
    p = spec.operator_order
    fs, filled = dict(sol.derivs), dict(sol.filled)
    amp_prod = np.ones_like(grid)
    near_singular = np.zeros(len(grid), dtype=bool)
    interior = np.zeros(len(grid), dtype=bool)
    span = grid[-1] - grid[0]
    for d in spec.delicate_points:
        near_singular |= np.abs(grid - d) < 0.15 * span
        if grid[0] < d < grid[-1]:
            interior |= np.abs(grid - d) < _INTERIOR_EXCLUSION
    htilde = h.value(grid) - eh  # the k = 0 right-hand side and the residual's scale
    for k in range(0, max(0, max_order - p + 1)):
        level = spec.operator.level(k)
        rhs = htilde if k == 0 else h.deriv(grid, k)
        for off, c in level.rhs:
            rhs = rhs + npoly.polyval(grid, c) * fs[k + off]
        # the top coefficient, on f^(k+p), divides; the rest act on f^(k+p-1), ..., f^(k)
        denom, *rest = (npoly.polyval(grid, c) for c in level.operator[2 - p:])
        terms = [c * fs[k + p - 1 - i] for i, c in enumerate(rest)]
        lower = sum(terms[1:], terms[0])
        numer_scale = sum(map(np.abs, rest[1:]), np.abs(rest[0]))
        # an amplification past the double range is inf, which the cap reads as too large
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            top = (rhs - lower) / denom
            amp_prod = amp_prod * np.maximum(numer_scale / np.abs(denom), 1.0)
        mask = ((amp_prod > _CUMULATIVE_AMPLIFICATION_CAP) & near_singular) | ~np.isfinite(top) | interior
        mask.flags.writeable = False
        fs[k + p], filled[k + p] = _fill_masked(grid, top, mask, spec.delicate_points), mask
    diags = dict(sol.diagnostics)
    diags["filled_points"] = int(sum(map(np.count_nonzero, filled.values())))
    out = replace(sol, derivs=fs, filled=filled, diagnostics=diags)
    if max(fs) >= p:
        scale = 1.0 + float(np.max(np.abs(htilde)))
        res = residual_norm(out)
        diags["residual"] = res
        if not res <= 1e-5 * scale:  # a NaN residual fails too
            raise NumericError(f"unstable propagation detected: residual {res:.2e}")
    return out
