"""Numerical verification of bounds and auxiliary analytic inequalities.

``verify`` evaluates a coefficient bound against a test function's
analytic norms and compares it with the empirical grid supremum of the
solved, propagated solution.  The bound side is analytic, so the pass
tolerance absorbs quadrature error on the empirical side only: a report
passes iff margin >= -1e-9 * bound.

Also here: grid checks of the Gaussian Mill's-ratio sandwich, the four
Bessel-kernel integral inequalities, the quartic-density identities, and
the finite-difference check of the operator-splitting identity
d/dx[L_k f] = L_{k+1} f' - T_k f that underlies the whole iteration.
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
from .catalog import DistributionSpec, bessel_tail_constant, make_spec, quantile, quartic_normalizer
from .closedform import bound_for
from .engine import BoundCoefficients, NormSymbol
from .errors import ValidityError
from .solver import (
    _FD6_CENTRAL,
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
    "DEFAULT_SWEEP_FAMILIES",
    "check_mills_ratio",
    "check_bessel_inequalities",
    "check_quartic_identities",
    "check_operator_identity",
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


def verify(
    spec: DistributionSpec,
    n: int,
    h,
    mode: str | None = None,
    solution: SteinSolution | None = None,
) -> VerificationReport:
    """Bound vs. empirical sup-norm for one (family, order, test function).

    E h(Z) comes from the solution's diagnostics; without a solution, one
    is solved, but only after the bound is known to be priceable.
    """
    mode = mode or spec.default_mode
    report = VerificationReport(
        family=spec.family, param_string=spec.param_string(), n=n, mode=mode, test_fn=h.name
    )
    coeffs = bound_for(spec, n, mode)
    report.coefficients = _coefficient_rows(coeffs)
    # whether a norm slot can be priced does not depend on E h(Z), so a
    # bound that cannot be priced fails here, before a solve starts
    norms_for(h, coeffs, 0.0)
    if solution is None:
        solution = solve(spec, h)
    report.bound_value = coeffs.evaluate(norms_for(h, coeffs, solution.diagnostics["mean_value"]))
    if solution.max_order < max(n, spec.operator_order):
        solution = propagate_derivatives(solution, spec, h, max(n, spec.operator_order))
    emp, flag = empirical_sup(solution, n)
    report.empirical_sup = emp
    report.boundary_flag = flag
    report.margin = report.bound_value - emp
    report.passed = report.margin >= -PASS_TOLERANCE * report.bound_value
    report.residual = solution.diagnostics["residual"]
    report.filled_points = solution.diagnostics["filled_by_order"][n]
    return report


DEFAULT_SWEEP_FAMILIES: tuple[tuple[str, dict], ...] = (
    ("normal", {}),
    ("gamma", {"r": 2.0, "lam": 1.0}),
    ("exponential", {"lam": 1.0}),
    ("beta", {"alpha": 2.0, "beta": 3.0}),
    ("arcsine", {}),
    ("student_t", {"d": 9.0, "delta": 3.0}),
    ("inverse_gamma", {"alpha": 9.0, "beta": 2.0}),
    ("prr", {"s": 1.0}),
    ("vg", {"r": 3.0, "theta": 0.0, "sigma": 1.0}),
    ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0}),
    ("quartic", {}),
)


def sweep(specs=None, orders=range(5), test_fns=None) -> list[VerificationReport]:
    """Cartesian verification sweep of each spec's default mode; validity
    violations become table rows rather than crashes.  One mesh per spec,
    one solve per (spec, test function), reused across orders."""
    if specs is None:
        specs = [make_spec(fam, **params) for fam, params in DEFAULT_SWEEP_FAMILIES]
    if test_fns is None:
        test_fns = [SineTest(1.0), SineTest(2.0), CosineTest(1.0)]
    orders = list(orders)
    reports: list[VerificationReport] = []
    for spec in specs:
        reports.extend(_sweep_spec(spec, orders, test_fns))
    reports.sort(key=lambda r: (r.family, r.param_string, r.test_fn, r.n))
    return reports


def _sweep_spec(spec, orders, test_fns) -> list[VerificationReport]:
    """The sweep rows of one spec.  The mesh lives only as long as this
    call, so a sweep holds one spec's mesh at a time."""
    mode = spec.default_mode
    valid_orders, rejected = [], []
    for n in orders:
        try:
            bound_for(spec, n, mode)
            valid_orders.append(n)
        except ValidityError as exc:
            rejected.append((n, str(exc)))
    mesh = build_mesh(spec) if valid_orders else None
    reports = []
    for h in test_fns:
        for n, error in rejected:
            reports.append(
                VerificationReport(
                    family=spec.family, param_string=spec.param_string(), n=n, mode=mode,
                    test_fn=h.name, error=error,
                )
            )
        if valid_orders:
            solution = solve(spec, h, mesh=mesh)
            solution = propagate_derivatives(
                solution, spec, h, max(max(valid_orders), spec.operator_order)
            )
            reports.extend(verify(spec, n, h, mode=mode, solution=solution) for n in valid_orders)
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

    Integrands are assembled in log space: quad probes far into the tails
    where the plain exponential factors overflow before the Bessel decay
    cancels them.
    """

    def grow(y):
        if y <= 0.0:
            return 0.0
        expo = (beta + alpha) * y + nu * math.log(y) + float(np.log(_sp_ive(nu, alpha * y)))
        return math.exp(expo) if expo > -700.0 else 0.0

    def decay(y):
        if y <= 0.0:
            return 0.0
        expo = (beta - alpha) * y + nu * math.log(y) + float(np.log(_sp_kve(nu, alpha * y)))
        return math.exp(expo) if expo > -700.0 else 0.0

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

    tail_err = 0.0
    for x in grid[:: max(1, len(grid) // 40)]:
        direct, _ = sf.integrate(
            lambda t: t * c1 * math.exp(-t ** 4 / 12.0), float(x), math.inf, epsabs=1e-13
        )
        closed = c1 * math.sqrt(3.0 * math.pi) * (1.0 - sf.norm_cdf(float(x) ** 2 / math.sqrt(6.0)))
        tail_err = max(tail_err, abs(direct - closed))

    with np.errstate(divide="ignore"):
        weighted = np.minimum(1.0 / (2.0 * c1), 3.0 / np.abs(grid) ** 3)
    first = np.abs(grid) * weighted - 3.0 / (6.0 * c1) ** (2.0 / 3.0)
    second = grid ** 2 * weighted - 3.0 / (6.0 * c1) ** (1.0 / 3.0)
    min_ineq_margin = float(-max(np.max(first), np.max(second)))

    total, _ = sf.integrate(lambda t: c1 * math.exp(-t ** 4 / 12.0), -math.inf, math.inf)
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


def _apply_operator(spec: DistributionSpec, k: int, probe, x, shift: int = 0):
    """L_k applied to the probe's shift-th derivative, evaluated at x."""
    a2, a1, a0 = spec.op_coeffs(k)
    out = a1(x) * probe.deriv(x, shift + 1) + a0(x) * probe.deriv(x, shift)
    if spec.operator_order == 2:
        out = out + a2(x) * probe.deriv(x, shift + 2)
    return out


def check_operator_identity(spec: DistributionSpec, k: int, probe, grid) -> float:
    """Max residual of d/dx[L_k f] = L_{k+1} f' - T_k f over the grid,
    with the left side differentiated by a sixth-order stencil."""
    grid = np.asarray(grid, dtype=float)
    h = _FD_STEP
    lhs = np.zeros_like(grid)
    for w, off in zip(_FD6_CENTRAL, range(-3, 4)):
        if w != 0.0:
            lhs += w * _apply_operator(spec, k, probe, grid + off * h)
    lhs /= h
    t0, t1 = spec.t_coeffs(k)
    rhs = _apply_operator(spec, k + 1, probe, grid, shift=1) - (
        t0(grid) * probe.deriv(grid, 0) + t1(grid) * probe.deriv(grid, 1)
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
    a = quantile(spec, 0.02)
    b = quantile(spec, 0.98)
    pad = 0.05 * (b - a)
    a = max(a - pad, lo + 1e-6) if np.isfinite(lo) else a - pad
    b = min(b + pad, hi - 1e-6) if np.isfinite(hi) else b + pad
    return np.linspace(a, b, 100)


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
