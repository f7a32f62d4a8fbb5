"""Numerical verification of bounds and auxiliary analytic inequalities.

``verify`` evaluates a coefficient bound against a test function's
analytic norms and compares it with the empirical grid supremum of the
solved, propagated solution.  The bound side is analytic, so the pass
tolerance absorbs quadrature error on the empirical side only: a report
passes iff margin >= -1e-9 * bound.

Also here: grid checks of the Gaussian Mill's-ratio sandwich, the four
Bessel-kernel integral inequalities, the quartic-density identities, and
the finite-difference check of the operator-splitting identity
d/dx[L_k f] = L_{k+1} f' - T_k f that underlies the whole iteration, and
the check that each density solves its operator's adjoint equation (the
identity holds for any polynomials, as T_k is derived from L_k and
L_{k+1}; a wrong operator coefficient fails the adjoint check).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import ive as _sp_ive, kve as _sp_kve

from . import special as sf
from .catalog import DEFAULT_SPECS, DistributionSpec, bessel_tail_constant, make_spec, quantiles, quartic_normalizer
from .closedform import bound_for, derivative_order, resolve_mode
from .engine import BoundCoefficients, NormSymbol
from .errors import ValidityError
from .solver import (
    CosineTest,
    SineTest,
    SteinSolution,
    build_mesh,
    empirical_sup,
    propagate_derivatives,
    solve,
)

__all__ = [
    "VerificationReport",
    "norms_for",
    "verify",
    "sweep",
    "default_sweep_specs",
    "check_mills_ratio",
    "check_bessel_inequalities",
    "check_quartic_identities",
    "check_operator_identity",
    "check_adjoint_density",
    "reports_to_json",
    "reports_to_csv",
]

PASS_TOLERANCE = 1e-9  # margin >= -tol * bound absorbs empirical-side error


@dataclass
class VerificationReport:
    family: str
    param_string: str
    n: int
    mode: str
    test_fn: str
    bound_value: float | None = None
    empirical_sup: float | None = None
    margin: float | None = None
    passed: bool | None = None
    boundary_flag: bool = False
    residual: float | None = None
    filled_points: int = 0
    error: str | None = None
    coefficients: list | None = None

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.param_string,
            "n": self.n,
            "mode": self.mode,
            "test_fn": self.test_fn,
            "coefficients": self.coefficients,
            "bound": self.bound_value,
            "empirical": self.empirical_sup,
            "margin": self.margin,
            "pass": self.passed,
            "boundary_flag": self.boundary_flag,
            "residual": self.residual,
            "filled_points": self.filled_points,
            "error": self.error,
        }


def norms_for(h, coeffs: BoundCoefficients, mean_value: float) -> dict[NormSymbol, float]:
    """Analytic norm values for every slot a bound needs.

    Centered norms use 1 + |E h(Z)| (exact on full-period supports,
    conservative on short ones -- never anti-conservative).
    """
    norms: dict[NormSymbol, float] = {}
    for sym in coeffs.symbols:
        if sym.kind == "h~":
            norms[sym] = h.centered_norm(mean_value)
        elif sym.kind == "h":
            norms[sym] = h.norm(0)
        elif sym.kind == "h^":
            norms[sym] = h.norm(sym.order)
        else:
            raise ValidityError(
                f"bound retains a symbolic {sym.label} term; supply a base substitution"
            )
    return norms


def _coefficient_rows(coeffs: BoundCoefficients) -> list[dict]:
    """One {symbol, order, centered, value} row per term of a bound."""
    return [
        {"symbol": sym.slot, "order": sym.order, "centered": sym.kind == "h~", "value": c}
        for sym, c in coeffs.items()
    ]


def verify(spec: DistributionSpec, n: int, h, mode: str | None = None) -> VerificationReport:
    """Bound vs. empirical sup-norm for one (family, order, test function):
    the one row of _sweep_spec, whose rejection raises ValidityError.

    The solve starts only once the bound is known to be priceable.
    """
    (report,) = _sweep_spec(spec, resolve_mode(spec, mode), [n], [h])
    if report.error is not None:
        raise ValidityError(report.error)
    return report


def _cell(n: int, mode: str, coeffs: BoundCoefficients, solution: SteinSolution) -> VerificationReport:
    """The report of one cell: coeffs, the order-n bound of mode, priced
    at the solution's E h(Z) against the grid sup of its n-th derivative
    (propagated up to n)."""
    spec, h = solution.spec, solution.h
    bound = coeffs.evaluate(norms_for(h, coeffs, solution.diagnostics["mean_value"]))
    emp, _, _, near_edge = empirical_sup(solution, n)
    margin = bound - emp
    return VerificationReport(
        family=spec.family, param_string=spec.param_string(), n=n, mode=mode, test_fn=h.name,
        bound_value=bound, empirical_sup=emp, margin=margin, passed=margin >= -PASS_TOLERANCE * bound,
        boundary_flag=near_edge, residual=solution.diagnostics["residual"],
        filled_points=int(np.count_nonzero(solution.filled[n])), coefficients=_coefficient_rows(coeffs),
    )


def default_sweep_specs() -> list[DistributionSpec]:
    """The solvable entries of catalog.DEFAULT_SPECS, in its order."""
    specs = [make_spec(fam, **params) for fam, params in DEFAULT_SPECS]
    return [spec for spec in specs if spec.solvable]


def sweep(specs=None, orders=range(5), test_fns=None) -> list[VerificationReport]:
    """Cartesian verification sweep of each spec's default mode (by
    default of the default sweep specs); validity violations become table
    rows rather than crashes.  One bound per (spec, order), one mesh per
    spec, one solve per (spec, test function), reused across orders."""
    if specs is None:
        specs = default_sweep_specs()
    if test_fns is None:
        test_fns = [SineTest(1.0), SineTest(2.0), CosineTest(1.0)]
    orders = list(orders)
    reports: list[VerificationReport] = []
    for spec in specs:
        reports.extend(_sweep_spec(spec, spec.default_mode, orders, test_fns))
    reports.sort(key=lambda r: (r.family, r.param_string, r.test_fn, r.n))
    return reports


def _sweep_spec(spec, mode, orders, test_fns) -> list[VerificationReport]:
    """The rows of one spec under mode: verify's one row and a sweep's
    rows.  The mesh lives only as long as this call, so a sweep holds one
    spec's mesh at a time."""
    bounds, rejected = [], []
    for n in orders:
        try:
            n = derivative_order(n)
            coeffs = bound_for(spec, n, mode)
            # whether a norm slot can be priced does not depend on E h(Z), so
            # an unpriceable bound is rejected before any solve
            for h in test_fns:
                norms_for(h, coeffs, 0.0)
        except ValidityError as exc:
            rejected.append((n, str(exc)))
        else:
            bounds.append((n, coeffs))
    mesh = build_mesh(spec) if bounds else None
    reports = []
    for h in test_fns:
        for n, error in rejected:
            reports.append(
                VerificationReport(
                    family=spec.family, param_string=spec.param_string(), n=n, mode=mode,
                    test_fn=h.name, error=error,
                )
            )
        if bounds:
            solution = solve(spec, h, mesh=mesh)
            solution = propagate_derivatives(solution, max(max(n for n, _ in bounds), spec.operator_order))
            reports.extend(_cell(n, mode, coeffs, solution) for n, coeffs in bounds)
    return reports


# ---------------------------------------------------------------------------
# Analytic inequality grids.
# ---------------------------------------------------------------------------


def check_mills_ratio() -> dict:
    """Sandwich t/(1+t^2) <= mills(t) <= min(sqrt(pi/2), 1/t) at 10,000
    even steps of (0, 50]."""
    n_points, t_max = 10_000, 50.0
    t = np.linspace(t_max / n_points, t_max, n_points)
    mills = sf.mills_ratio(t)
    lower = t / (1.0 + t * t)
    upper = np.minimum(math.sqrt(math.pi / 2.0), 1.0 / t)
    ok = bool(np.all(lower <= mills) and np.all(mills <= upper))
    return {
        "pass": ok,
        "min_lower_margin": float(np.min(mills - lower)),
        "min_upper_margin": float(np.min(upper - mills)),
        "points": n_points,
    }


def _bessel_lhs(nu: float, alpha: float, beta: float, x: float) -> tuple[float, float, float, float]:
    """The four kernel expressions at one x > 0 (integrals by quadrature).

    Integrands are assembled in log space: the rule probes far into the
    tails where the plain exponential factors overflow before the Bessel
    decay cancels them.
    """

    def kernel(y, rate, scaled_bessel):
        with np.errstate(divide="ignore"):  # a Bessel factor that underflows to 0
            expo = rate * y + nu * np.log(y) + np.log(scaled_bessel(nu, alpha * y))
        return np.exp(np.where(expo > -700.0, expo, -np.inf))

    def grow(y):
        return kernel(y, beta + alpha, _sp_ive)

    def decay(y):
        return kernel(y, beta - alpha, _sp_kve)

    up, _ = sf.integrate(grow, 0.0, x, epsabs=1e-13, epsrel=1e-10)
    down, _ = sf.integrate(decay, x, math.inf, epsabs=1e-13, epsrel=1e-10)
    k_fac = math.exp(-beta * x) * sf.bessel_k(nu, alpha * x) / x ** nu
    i_fac = math.exp(-beta * x) * sf.bessel_i(nu, alpha * x) / x ** nu
    dk_fac = -math.exp(-beta * x) / x ** nu * (beta * sf.bessel_k(nu, alpha * x) + alpha * sf.bessel_k(nu + 1.0, alpha * x))
    di_fac = math.exp(-beta * x) / x ** nu * (alpha * sf.bessel_i(nu + 1.0, alpha * x) - beta * sf.bessel_i(nu, alpha * x))
    return (abs(k_fac * up), abs(i_fac * down), abs(dk_fac * up), abs(di_fac * down))


def check_bessel_inequalities(nu: float, alpha: float, beta: float) -> dict:
    """Check of the four uniform bounds on the Bessel-kernel integrals at
    50 geometric steps of [0.01, 30].

    Requires nu > -1/2 and 0 < |beta| < alpha.  Bounds:
    2/(alpha (2 nu + 1)), K(nu, gamma)/alpha, 2 (gamma + 1)/(2 nu + 1),
    and K(nu, gamma), with gamma = beta / alpha.
    """
    if not (nu > -0.5 and 0.0 < abs(beta) < alpha):
        raise ValueError("need nu > -1/2 and 0 < |beta| < alpha")
    grid = np.geomspace(0.01, 30.0, 50)
    gamma = beta / alpha
    k_const = bessel_tail_constant(nu, gamma)
    rhs = (
        2.0 / (alpha * (2.0 * nu + 1.0)),
        k_const / alpha,
        2.0 * (gamma + 1.0) / (2.0 * nu + 1.0),
        k_const,
    )
    margins = [math.inf] * 4
    violations = [0] * 4
    for x in grid:
        lhs = _bessel_lhs(nu, alpha, beta, float(x))
        for i in range(4):
            margins[i] = min(margins[i], rhs[i] - lhs[i])
            if lhs[i] >= rhs[i]:
                violations[i] += 1
    return {
        "pass": all(v == 0 for v in violations),
        "violations": violations,
        "min_margins": margins,
        "rhs": list(rhs),
        "points": len(grid),
    }


def check_quartic_identities() -> dict:
    """Quartic-density identities: the Gaussian-reparameterized density and
    partial-mass formulas, plus the two weighted-min inequalities, on 201
    even steps of [-4, 4]."""
    c1 = quartic_normalizer()
    grid = np.linspace(-4.0, 4.0, 201)

    density = c1 * np.exp(-grid ** 4 / 12.0)
    gauss_form = c1 * math.sqrt(2.0 * math.pi) * sf.norm_pdf(grid ** 2 / math.sqrt(6.0))
    density_err = float(np.max(np.abs(density - gauss_form)))

    def quartic(t):
        with np.errstate(over="ignore"):  # t^4 overflows far out, where the density is 0
            return c1 * np.exp(-t ** 4 / 12.0)

    tail_err = 0.0
    for x in grid[:: max(1, len(grid) // 40)]:
        direct, _ = sf.integrate(lambda t: t * quartic(t), float(x), math.inf, epsabs=1e-13, epsrel=1e-12)
        closed = c1 * math.sqrt(3.0 * math.pi) * (1.0 - sf.norm_cdf(float(x) ** 2 / math.sqrt(6.0)))
        tail_err = max(tail_err, abs(direct - closed))

    with np.errstate(divide="ignore"):
        weighted = np.minimum(1.0 / (2.0 * c1), 3.0 / np.abs(grid) ** 3)
    first = np.abs(grid) * weighted - 3.0 / (6.0 * c1) ** (2.0 / 3.0)
    second = grid ** 2 * weighted - 3.0 / (6.0 * c1) ** (1.0 / 3.0)
    min_ineq_margin = float(-max(np.max(first), np.max(second)))

    total, _ = sf.integrate(quartic, -math.inf, math.inf, epsabs=1e-13, epsrel=1e-12)
    ok = density_err <= 1e-12 and tail_err <= 1e-10 and min_ineq_margin >= 0.0 and abs(total - 1.0) <= 1e-10
    return {
        "pass": bool(ok),
        "density_identity_error": density_err,
        "partial_mass_error": tail_err,
        "min_inequality_margin": min_ineq_margin,
        "normalization_error": abs(total - 1.0),
    }


# ---------------------------------------------------------------------------
# Operator-splitting identity d/dx[L_k f] = L_{k+1} f' - T_k f.
# ---------------------------------------------------------------------------

_FD_STEP = (2.0 ** -52) ** (1.0 / 7.0)  # standard eps^(1/7) step for 6th order
# The sixth-order central first-derivative stencil at offsets -3..3: the
# identity and adjoint checks' independent differentiation.
_FD6_CENTRAL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


class _GaussProbe:
    """exp(-x^2/4) with derivatives up to order 8 via the polynomial
    recursion P_{n+1} = P_n' - (x/2) P_n."""

    name = "gauss"

    def __init__(self):
        self._polys = [(1.0,)]
        for _ in range(8):
            p = self._polys[-1]
            der = npoly.polyder(p) if len(p) > 1 else (0.0,)
            shifted = npoly.polysub(der, npoly.polymul((0.0, 0.5), p))
            self._polys.append(tuple(np.atleast_1d(shifted)))

    def deriv(self, x, order):
        x = np.asarray(x, dtype=float)
        return npoly.polyval(x, self._polys[order]) * np.exp(-x * x / 4.0)


def _apply_operator(coeffs, probe, x, shift: int = 0):
    """The operator with coefficients (c2, c1, c0) of (D^2, D, 1) applied
    to the probe's shift-th derivative, evaluated at x."""
    c2, c1, c0 = (npoly.polyval(x, c) for c in coeffs)
    return c1 * probe.deriv(x, shift + 1) + c0 * probe.deriv(x, shift) + c2 * probe.deriv(x, shift + 2)


def check_operator_identity(spec: DistributionSpec, k: int, probe, grid) -> float:
    """Max residual of d/dx[L_k f] = L_{k+1} f' - T_k f over the grid,
    with the left side differentiated by a sixth-order stencil."""
    grid = np.asarray(grid, dtype=float)
    h = _FD_STEP
    level = spec.operator.level(k)
    lhs = np.zeros_like(grid)
    for w, off in zip(_FD6_CENTRAL, range(-3, 4)):
        if w != 0.0:
            lhs += w * _apply_operator(level.operator, probe, grid + off * h)
    lhs /= h
    rhs = _apply_operator(spec.operator.level(k + 1).operator, probe, grid, shift=1) - _apply_operator(
        level.coupling, probe, grid
    )
    return float(np.max(np.abs(lhs - rhs)))


def default_identity_probes():
    return [SineTest(1.0), _GaussProbe()]


def identity_grid(spec: DistributionSpec) -> np.ndarray:
    """100 points across a plausibility window for the identity check
    (the identity is algebraic, so the grid just needs moderate
    coefficient sizes)."""
    lo, hi = spec.support
    if not spec.solvable:
        raise ValueError("the operator identity check is for 1-D families")
    a, b = quantiles(spec, (0.02, 0.98))
    pad = 0.05 * (b - a)
    a = max(a - pad, lo + 1e-6) if np.isfinite(lo) else a - pad
    b = min(b + pad, hi - 1e-6) if np.isfinite(hi) else b + pad
    return np.linspace(a, b, 100)


ADJOINT_TOLERANCE = 1e-8  # relative residual of the density's adjoint equation


def check_adjoint_density(spec: DistributionSpec, grid) -> float:
    """Worst residual of (a2 p)'' - (a1 p)' + a0 p = 0 over the grid (the
    density p solves the adjoint of its order-0 operator, as E L f(Z) = 0
    for every f), relative to the size of its three terms.

    The derivatives are sixth-order central stencils with a step well
    inside the law's spread and the distance to a support end or to an
    interior delicate point, so the stencil resolves the density; grid
    points next to an interior delicate point (the vg origin, where the
    density is not smooth) drop.
    """
    op = spec.operator
    lo, hi = spec.support
    q05, q95 = quantiles(spec, (0.05, 0.95))
    spread = q95 - q05
    xs = np.asarray(grid, dtype=float)
    near = np.array([min([abs(x - d) for d in spec.delicate_points if lo < d < hi], default=np.inf) for x in xs])
    xs, near = xs[near > 0.05 * spread], near[near > 0.05 * spread]
    scale = np.minimum.reduce([np.full_like(xs, spread), xs - lo, hi - xs, near])
    step = (1e-2 if spec.operator_order == 2 else 1e-3) * scale
    step = (xs + step) - xs  # a multiple of the ulp of x: the stencil points are exact

    def d(fn, x):
        return sum(w * fn(x + off * step) for w, off in zip(_FD6_CENTRAL, range(-3, 4)) if w != 0.0) / step

    def times_p(c):
        return lambda x: npoly.polyval(x, c) * spec.density(x)

    lhs = d(lambda x: d(times_p(op.a2), x) - times_p(op.a1)(x), xs)
    rhs = -times_p(op.a0)(xs)
    size = sum(np.abs(times_p(c)(xs)) / scale ** (2 - i) for i, c in enumerate((op.a2, op.a1, op.a0)))
    return float(np.max(np.abs(lhs - rhs) / size))


# ---------------------------------------------------------------------------
# Report serialization.
# ---------------------------------------------------------------------------


def _round10(v):
    """v with every float, also inside dicts, lists and tuples, rounded
    to 10 significant digits (tuples become lists)."""
    if isinstance(v, float):
        return float(f"{v:.10g}")
    if isinstance(v, dict):
        return {k: _round10(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_round10(x) for x in v]
    return v


def reports_to_json(reports: list[VerificationReport]) -> str:
    payload = [_round10(r.as_dict()) for r in reports]
    return json.dumps(payload, indent=2)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["family", "param_string", "n", "mode", "test_fn", "bound", "empirical", "margin", "pass", "error"]
    )
    for r in reports:
        writer.writerow(
            [
                r.family,
                r.param_string,
                r.n,
                r.mode,
                r.test_fn,
                "" if r.bound_value is None else f"{r.bound_value:.10g}",
                "" if r.empirical_sup is None else f"{r.empirical_sup:.10g}",
                "" if r.margin is None else f"{r.margin:.10g}",
                "" if r.passed is None else str(r.passed).lower(),
                r.error or "",
            ]
        )
    return buf.getvalue()
