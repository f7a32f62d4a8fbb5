"""Stein-equation solver.

Computes the distinguished (bounded) solution of each 1-D Stein equation
for a given test function through the family's explicit integral
representation, then walks derivative values up through the iterated
equations (spec.operator.level(k)) by pointwise algebra rather than
repeated numerical differentiation.  The variance-gamma solve returns the
first derivative analytically, and PRR seeds it once with sixth-order
central differences (Richardson extrapolated); every higher order is
exact algebra on the level equations.

Grids are quantile-based: they cover [q(1e-8), q(1 - 1e-8)] plus a 20%
margin clipped to the support, with a fixed DEFAULT_POINTS = 20001 points.
catalog.quantile gives each end from its own tail (closed-form inverses
for the Pearson laws, a tabulated CDF for the others), and an end that
meets a finite support end stops one double inside it.

Everything that depends on the law but not on the test function lives in
a ``Mesh``, built once per spec by ``build_mesh``: the grid, the median
at which the first-order and PRR representations switch forms, the
Gauss-Legendre panel nodes and a memo of every h-independent array of a
solve, at the nodes or on the grid.  Each is evaluated once per mesh,
and a part that depends on |x| only (the vg Bessel functions) once per
distinct |x|: the vg grid is symmetric steps about the origin, so a
symmetric law needs half the evaluations.  The map h -> f is linear, so
each solve multiplies the shared factors by h - E h(Z); a sweep solves
every test function of a spec on one mesh.

One rule covers the adaptive integrals (the tails beyond the grid and the
panels next to a delicate point d, an integrable singularity or a kink):
each goes through ``special.integrate``, from d where d is near, so
QUADPACK meets d at an endpoint; each is done once per solve, and their
error estimates sum to ``diagnostics["quad_error"]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import special as _sp
from scipy.interpolate import CubicSpline

from . import special as sf
from .catalog import DistributionSpec, quantile
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
GL_ORDER = 12  # Gauss-Legendre nodes per grid panel
# A grid point is excluded from algebraic propagation once the cumulative
# error amplification across all divisions by the leading coefficient
# exceeds this cap (base solution accuracy ~1e-11, so the propagated noise
# stays ~1e-5 at worst).
_CUMULATIVE_AMPLIFICATION_CAP = 1.0e6
_INTERIOR_EXCLUSION = 1.0e-3  # band excluded around a delicate point inside the grid
_FILL_DEGREE = 6  # degree of the polynomial extension over masked bands
_RESIDUAL_TRIM = 10  # grid points left out at either end of the residual check


# ---------------------------------------------------------------------------
# Test functions with analytic derivatives and norms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SineTest:
    """h(x) = sin(a x); every derivative norm over the real line is a^j."""

    freq: float = 1.0
    wave = staticmethod(np.sin)
    prefix = "sine"

    def value(self, x):
        return self.wave(self.freq * np.asarray(x, dtype=float))

    def deriv(self, x, order: int):
        a = self.freq
        return a ** order * self.wave(a * np.asarray(x, dtype=float) + order * math.pi / 2.0)

    def norm(self, order: int) -> float:
        return self.freq ** order if order else 1.0

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
        return npoly.polyval(np.asarray(x, dtype=float), self.coeffs)

    def deriv(self, x, order: int):
        c = npoly.polyder(self.coeffs, order) if order else self.coeffs
        return npoly.polyval(np.asarray(x, dtype=float), c)

    def norm(self, order: int) -> float:
        raise ValueError("polynomial probes are unbounded; no analytic sup-norms")

    def centered_norm(self, mean_value: float) -> float:
        raise ValueError("polynomial probes are unbounded; no analytic sup-norms")

    @property
    def name(self) -> str:
        return f"probe:{self.label}"


def parse_test_function(token: str):
    """Parse a CLI selector: sine:a or cosine:a."""
    kind, _, arg = token.partition(":")
    if kind == "sine":
        return SineTest(float(arg or 1.0))
    if kind == "cosine":
        return CosineTest(float(arg or 1.0))
    raise ValueError(f"unknown test function {token!r}")


# ---------------------------------------------------------------------------
# Quadrature helpers.
# ---------------------------------------------------------------------------


def expectation(spec: DistributionSpec, h) -> float:
    """E h(Z) by adaptive quadrature over the support (abs error <= 1e-10)."""

    def integrand(t):
        return float(spec.density(t)) * float(np.asarray(h.value(t)))

    lo, hi = spec.support
    total, err = sf.integrate(integrand, lo, hi, spec.delicate_points, epsabs=1e-12, epsrel=1e-11)
    if err > 1e-8:
        raise NumericError(f"expectation quadrature error estimate {err:.2e} too large")
    return total


class _Integral:
    """The integral of one integrand of a solve over the mesh.

    Each grid panel is summed by Gauss-Legendre from the integrand's
    values at the mesh nodes; near a delicate point d (integrable
    singularity, kink) it is F(b) - F(a) instead, F(x) being the adaptive
    integral from d to x, so QUADPACK meets d at an end.  Each adaptive
    range is integrated once, and every error estimate is kept.
    """

    def __init__(self, mesh, fn, node_values, delicate):
        self.grid = grid = mesh.grid
        self.fn = fn
        self.done: dict[tuple[float, float], tuple[float, float]] = {}
        self.panels = (node_values @ mesh.weights) * mesh.half
        a, b = grid[:-1], grid[1:]
        radius = 4.0 * np.max(b - a)
        for d in delicate:
            for i in np.nonzero((a - radius <= d) & (d <= b + radius))[0]:
                self.panels[i] = self._over(d, b[i]) - self._over(d, a[i])

    def _over(self, a: float, b: float) -> float:
        """The adaptive integral from a to b (either may be the larger)."""
        if (a, b) not in self.done:
            self.done[a, b] = sf.integrate(lambda t: float(self.fn(t)), a, b, epsabs=1e-14, epsrel=1e-10)
        return self.done[a, b][0]

    @property
    def error(self) -> float:
        return sum(err for _, err in self.done.values())

    def from_anchor(self, anchor: float) -> np.ndarray:
        """The integral from anchor to x at every grid point x.  anchor is
        a grid point or lies beyond the grid (a support end, maybe
        infinite), and the panel sums run outward from it, so the small
        integrals next to it keep their digits."""
        grid, panels = self.grid, self.panels
        k = min(int(np.searchsorted(grid, anchor)), len(grid) - 1)
        out = np.empty_like(grid)
        out[k] = self._over(anchor, grid[k])
        out[k + 1:] = out[k] + np.cumsum(panels[k:])
        out[:k] = out[k] - np.cumsum(panels[:k][::-1])[::-1]
        return out


# ---------------------------------------------------------------------------
# Grid construction.
# ---------------------------------------------------------------------------


def build_grid(spec: DistributionSpec) -> np.ndarray:
    lo_s, hi_s = spec.support
    qlo = quantile(spec, COVERAGE_TAIL)
    qhi = quantile(spec, 1.0 - COVERAGE_TAIL)
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

    xs holds the GL_ORDER Gauss-Legendre nodes of every grid panel (one
    row per panel), half the panel half-widths and weights the rule's
    weights.  Every h-independent array of a solve, at the nodes or on
    the grid, is a mesh factor: ``factor`` evaluates it once per mesh,
    and its parts that depend on |x| only go through ``by_abs``, once per
    distinct |x|.  The arrays are shared by every solve on the mesh (the
    grid also by their solutions), so they are read-only.
    """

    spec: DistributionSpec
    grid: np.ndarray
    xs: np.ndarray
    half: np.ndarray
    weights: np.ndarray
    _memo: dict = field(default_factory=dict, repr=False)

    @functools.cached_property
    def median(self) -> float:
        """The law's median, where the split integral switches from the
        lower to the upper support end (computed on first use)."""
        return quantile(self.spec, 0.5)

    def factor(self, name: str, fn, at: str = "nodes") -> np.ndarray:
        """fn at the panel nodes xs (at="nodes") or on the grid
        (at="grid"), evaluated on the first request for name only."""
        if name not in self._memo:
            factor = fn(self._points(at))
            factor.flags.writeable = False
            self._memo[name] = factor
        return self._memo[name]

    def by_abs(self, fn, at: str = "nodes") -> np.ndarray:
        """fn(|x|) at every point x of the nodes or the grid, fn evaluated
        once per distinct |x|.  The grids that straddle the origin are
        symmetric steps dx * k, and so are the Gauss-Legendre nodes of
        mirrored panels, so about half the points need no evaluation."""
        key = ("|x|", at)
        if key not in self._memo:
            points = self._points(at)
            distinct, inverse = np.unique(np.abs(points), return_inverse=True)
            self._memo[key] = distinct, inverse.reshape(points.shape)
        distinct, inverse = self._memo[key]
        return fn(distinct)[inverse]

    def _points(self, at: str) -> np.ndarray:
        return {"nodes": self.xs, "grid": self.grid}[at]


def build_mesh(spec: DistributionSpec) -> Mesh:
    """Grid and panel nodes of spec, shared by every solve on it."""
    if not spec.solvable:
        raise ValidityError(f"family {spec.family} has no 1-D solver support")
    grid = build_grid(spec)
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    a, b = grid[:-1], grid[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * nodes[None, :]
    for arr in (grid, half, xs):
        arr.flags.writeable = False
    return Mesh(spec=spec, grid=grid, xs=xs, half=half, weights=weights)


# ---------------------------------------------------------------------------
# Solution container.
# ---------------------------------------------------------------------------


@dataclass
class SteinSolution:
    """Distinguished solution of spec's Stein equation for the test
    function h, sampled on a grid, with derivative values propagated
    through the iterated equations."""

    grid: np.ndarray
    derivs: dict[int, np.ndarray]
    spec: DistributionSpec
    h: object
    diagnostics: dict

    @property
    def max_order(self) -> int:
        return max(self.derivs)


def empirical_sup(sol: SteinSolution, order: int) -> tuple[float, bool]:
    """Grid sup of |f^(order)| plus a flag when the maximizer sits within
    1% of a grid boundary (the sup may not be captured)."""
    if order not in sol.derivs:
        raise ValueError(f"order {order} has not been propagated")
    vals = np.abs(sol.derivs[order])
    idx = int(np.argmax(vals))
    n = len(vals)
    edge = max(1, int(0.01 * n))
    return float(vals[idx]), bool(idx < edge or idx >= n - edge)


def residual_norm(sol: SteinSolution) -> float:
    """Max residual of the order-0 equation on the grid less its
    _RESIDUAL_TRIM points at either end, using the propagated derivative
    values."""
    spec = sol.spec
    inner = slice(_RESIDUAL_TRIM, -_RESIDUAL_TRIM)
    x = sol.grid[inner]
    f = sol.derivs[0][inner]
    htilde = np.asarray(sol.h.value(x)) - sol.diagnostics["mean_value"]
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
    (on mesh's grid when one is given: it must have been built for spec)."""
    if mesh is None:
        mesh = build_mesh(spec)
    elif mesh.spec is not spec:
        raise ValueError("the mesh was built for a different spec")
    mean_value = expectation(spec, h)
    if spec.operator_order == 1:
        f, diags = _solve_first_order(mesh, h, mean_value)
        derivs = {0: f}
    elif spec.family == "vg":
        derivs, diags = _solve_vg(mesh, h, mean_value)
    elif spec.family == "prr":
        f, diags = _solve_prr(mesh, h, mean_value)
        derivs = {0: f}
    else:
        raise ValueError(f"no solver for family {spec.family}")
    diags["mean_value"] = mean_value
    return SteinSolution(grid=mesh.grid, derivs=derivs, spec=spec, h=h, diagnostics=diags)


def _split_integral(mesh, h, eh):
    """The integral of p * (h - E h) at every grid point: from the lower
    support end up to x left of the median, minus the one from x to the
    upper end on its right (the two agree, as E[h - E h] = 0, and each
    side integrates its own tail).  Returns the values and the error
    estimate of its adaptive integrals."""
    spec, grid = mesh.spec, mesh.grid

    def weighted(x):
        return spec.density(x) * (np.asarray(h.value(x)) - eh)

    fac = mesh.factor("density", spec.density)
    integral = _Integral(mesh, weighted, fac * (np.asarray(h.value(mesh.xs)) - eh), spec.delicate_points)
    from_ends = [integral.from_anchor(end) for end in spec.support]
    return np.where(grid <= mesh.median, *from_ends), integral.error


def _solve_first_order(mesh, h, eh):
    spec = mesh.spec
    numer, err = _split_integral(mesh, h, eh)
    f = numer / mesh.factor("s_density", lambda x: npoly.polyval(x, spec.operator.a1) * spec.density(x), at="grid")
    return f, {"quad_error": err, "form_split": mesh.median}


def _solve_vg(mesh, h, eh):
    spec, grid = mesh.spec, mesh.grid
    r, theta, sigma = spec.params["r"], spec.params["theta"], spec.params["sigma"]
    nu = (r - 1.0) / 2.0
    s2 = sigma * sigma
    alpha = math.sqrt(theta * theta + s2) / s2
    beta = theta / s2

    def htilde(x):
        return np.asarray(h.value(x)) - eh

    # Scaled kernels: exp(beta y) I_nu(alpha |y|) = ive * exp(beta y + alpha |y|)
    # and exp(beta y) K_nu(alpha |y|) = kve * exp(beta y - alpha |y|).  The
    # K-kernel exponent is <= 0 whenever |beta| < alpha, so the tail
    # quadratures cannot overflow.  The Bessel parts depend on |y| only:
    # at the nodes they are evaluated once per distinct |y|.
    def ive(ay):
        return _sp.ive(nu, alpha * ay)

    def kve(ay):
        return _sp.kve(nu, alpha * np.maximum(ay, 1e-300))

    def factor_i(y, bessel=None):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        return np.exp(beta * y + alpha * ay) * ay ** nu * (ive(ay) if bessel is None else bessel)

    def factor_k(y, bessel=None):
        y = np.asarray(y, dtype=float)
        ay = np.maximum(np.abs(y), 1e-300)
        return np.exp(beta * y - alpha * ay) * ay ** nu * (kve(ay) if bessel is None else bessel)

    def kernel_i(y):
        return factor_i(y) * htilde(y)

    def kernel_k(y):
        return factor_k(y) * htilde(y)

    def prefactors(x):
        """exp(-beta x) / (s2 |x|^nu) times K_nu(alpha |x|) and I_nu(alpha
        |x|), and their exact derivatives (the first-derivative cross
        terms of the two integrals cancel identically)."""
        safe = np.maximum(np.abs(x), 1e-300)
        sgn = np.where(x >= 0, 1.0, -1.0)
        expf = np.exp(-beta * x) / (s2 * safe ** nu)
        kv_n = mesh.by_abs(lambda a: sf.bessel_k(nu, alpha * np.maximum(a, 1e-300)), "grid")
        kv_n1 = mesh.by_abs(lambda a: sf.bessel_k(nu + 1.0, alpha * np.maximum(a, 1e-300)), "grid")
        iv_n = mesh.by_abs(lambda a: sf.bessel_i(nu, alpha * a), "grid")
        iv_n1 = mesh.by_abs(lambda a: sf.bessel_i(nu + 1.0, alpha * a), "grid")
        return np.stack([
            expf * kv_n,
            expf * iv_n,
            -expf * (beta * kv_n + sgn * alpha * kv_n1),
            expf * (sgn * alpha * iv_n1 - beta * iv_n),
        ])

    i0 = int(np.argmin(np.abs(grid)))
    if abs(grid[i0]) > 1e-12:
        raise NumericError("vg grid must contain the origin")
    # factors first: their evaluation is the memory peak of a vg solve
    fac_i = mesh.factor("vg_i", lambda xs: factor_i(xs, mesh.by_abs(ive)))
    fac_k = mesh.factor("vg_k", lambda xs: factor_k(xs, mesh.by_abs(kve)))
    h_nodes = htilde(mesh.xs)
    int_i = _Integral(mesh, kernel_i, fac_i * h_nodes, (0.0,))
    int_k = _Integral(mesh, kernel_k, fac_k * h_nodes, (0.0,))
    # the I-kernel integral is anchored at the origin: anchoring it at a
    # grid edge would difference huge tail values and destroy the small
    # near-origin integrals.  The K-kernel integral runs to +inf for
    # x >= 0 and to -inf for x < 0.
    pos = grid >= 0
    a_int = int_i.from_anchor(0.0)
    b_side = np.where(pos, int_k.from_anchor(math.inf), int_k.from_anchor(-math.inf))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k_part, i_part, dk_part, di_part = mesh.factor("vg_grid", prefactors, at="grid")
        f = -k_part * a_int + i_part * b_side
        f1 = -dk_part * a_int + di_part * b_side
    # exactly at the origin only the I-branch survives (plus the finite
    # K-branch limit in the derivative)
    i_part0 = (alpha / 2.0) ** nu / (sf.gamma_fn(nu + 1.0) * s2)
    f[i0] = i_part0 * b_side[i0]
    f1[i0] = (h.value(0.0) - eh) / (s2 * r) - (theta / s2) * f[i0]
    return {0: f, 1: f1}, {"quad_error": int_i.error + int_k.error, "origin_index": i0}


def _solve_prr(mesh, h, eh):
    """f = v/s * (integral of g / (v kappa)) from 0, where g is the split
    integral of kappa * (h - E h), kappa being the density."""
    spec, grid = mesh.spec, mesh.grid
    s = spec.params["s"]
    kappa = spec.density
    v_fn = spec.kernel_v
    # U is evaluated once at the nodes: the density factor of the split
    # integral is density_over_v * U, and v * kappa is U times that
    u = mesh.factor("v_nodes", v_fn)
    mesh.factor("density", lambda xs: spec.density_over_v(xs) * u)
    g_vals, err_g = _split_integral(mesh, h, eh)
    g_spline = CubicSpline(grid, g_vals)

    def v_kappa(y):
        return v_fn(y) * kappa(y)

    def outer(y):
        y = np.asarray(y, dtype=float)
        return g_spline(y) / v_kappa(y)

    fac = mesh.factor("v_kappa", lambda xs: u * mesh.factor("density", kappa))
    integral = _Integral(mesh, outer, g_spline(mesh.xs) / fac, spec.delicate_points)
    f = mesh.factor("v", v_fn, at="grid") * integral.from_anchor(0.0) / s
    return f, {"quad_error": err_g + integral.error, "form_split": mesh.median}


# ---------------------------------------------------------------------------
# Derivative propagation through the iterated equations.
# ---------------------------------------------------------------------------

_FD6_CENTRAL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_FD6_FORWARD = np.array([-49.0 / 20.0, 6.0, -15.0 / 2.0, 20.0 / 3.0, -15.0 / 4.0, 6.0 / 5.0, -1.0 / 6.0])


def _fd6(y: np.ndarray, dx: float, stride: int = 1) -> np.ndarray:
    """Sixth-order first derivative on a uniform grid (central stencil,
    one-sided at the edges)."""
    n = len(y)
    out = np.full(n, np.nan)
    w = 3 * stride
    if n < 7 * stride:
        raise NumericError("grid too short for sixth-order differencing")
    acc = np.zeros(n - 2 * w)
    for c, off in zip(_FD6_CENTRAL, range(-3, 4)):
        if c != 0.0:
            acc += c * y[w + off * stride: n - w + off * stride]
    out[w:n - w] = acc / (dx * stride)
    for i in range(w):
        out[i] = np.dot(_FD6_FORWARD, y[i: i + 7]) / dx
        out[n - 1 - i] = -np.dot(_FD6_FORWARD, y[n - 1 - i: n - 8 - i: -1]) / dx
    return out


def _seed_first_derivative(grid: np.ndarray, f: np.ndarray) -> np.ndarray:
    dx = grid[1] - grid[0]
    d1 = _fd6(f, dx, stride=1)
    d2 = _fd6(f, dx, stride=2)
    out = d1.copy()
    good = ~np.isnan(d2)
    out[good] = (64.0 * d1[good] - d2[good]) / 63.0
    return out


def _fill_masked(grid, vals, mask, split_points=()):
    """One-sided polynomial extension (least squares, degree _FILL_DEGREE)
    over masked runs; runs are split at any interior split point so each
    side is extended from its own neighbours."""
    if not mask.any():
        return vals, 0
    vals = vals.copy()
    n = len(grid)
    idx = np.nonzero(mask)[0]
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
    pieces = []
    for run in runs:
        cut = None
        for p in split_points:
            inside = (grid[run[0]] < p) & (p < grid[run[-1]])
            if inside:
                cut = p
                break
        if cut is None:
            pieces.append(run)
        else:
            pieces.append(run[grid[run] <= cut])
            pieces.append(run[grid[run] > cut])
    filled = 0
    for run in pieces:
        if len(run) == 0:
            continue
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
        filled += len(run)
    return vals, filled


def propagate_derivatives(sol: SteinSolution, max_order: int) -> SteinSolution:
    """Extend sol.derivs up to max_order by solving each level equation
    pointwise for its top derivative.

    Points where the top-derivative coefficient is too small relative to
    the other operator coefficients (vanishing leading coefficient at a
    support edge, or at a delicate point inside the grid: the interior
    zero of the vg operator) are excluded
    from the algebra and filled by one-sided degree-6 polynomial
    extension.  diagnostics["filled_by_order"][k] counts the filled
    points of order k, and diagnostics["filled_points"] their total.
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
    fs = dict(sol.derivs)
    if p == 2 and 1 not in fs:
        fs[1] = _seed_first_derivative(grid, fs[0])
    filled = {k: 0 for k in fs} | sol.diagnostics.get("filled_by_order", {})
    amp_prod = np.ones_like(grid)
    near_singular = np.zeros(len(grid), dtype=bool)
    interior = np.zeros(len(grid), dtype=bool)
    span = grid[-1] - grid[0]
    for d in spec.delicate_points:
        near_singular |= np.abs(grid - d) < 0.15 * span
        if grid[0] < d < grid[-1]:
            interior |= np.abs(grid - d) < _INTERIOR_EXCLUSION
    for k in range(0, max(0, max_order - p + 1)):
        level = spec.operator.level(k)
        rhs = (np.asarray(h.value(grid)) - eh) if k == 0 else np.asarray(h.deriv(grid, k))
        for off, c in level.rhs:
            rhs = rhs + npoly.polyval(grid, c) * fs[k + off]
        # the top coefficient, on f^(k+p), divides; the rest act on f^(k+p-1), ..., f^(k)
        denom, *rest = (npoly.polyval(grid, c) for c in level.operator[2 - p:])
        terms = [c * fs[k + p - 1 - i] for i, c in enumerate(rest)]
        lower = sum(terms[1:], terms[0])
        numer_scale = sum(map(np.abs, rest[1:]), np.abs(rest[0]))
        with np.errstate(divide="ignore", invalid="ignore"):
            top = (rhs - lower) / denom
            amp_prod = amp_prod * np.maximum(numer_scale / np.abs(denom), 1.0)
        if k + p in fs:
            continue
        mask = ((amp_prod > _CUMULATIVE_AMPLIFICATION_CAP) & near_singular) | ~np.isfinite(top) | interior
        fs[k + p], filled[k + p] = _fill_masked(grid, top, mask, split_points=spec.delicate_points)
    diags = dict(sol.diagnostics)
    diags["filled_by_order"] = filled
    diags["filled_points"] = sum(filled.values())
    out = replace(sol, derivs=fs, diagnostics=diags)
    if max(fs) >= p:
        scale = 1.0 + float(np.max(np.abs(np.asarray(h.value(grid)) - eh)))
        res = residual_norm(out)
        diags["residual"] = res
        if not res <= 1e-5 * scale:  # a NaN residual fails too
            raise NumericError(f"unstable propagation detected: residual {res:.2e}")
    return out
