"""Closed-form chain bounds and the bound front end.

Every chain family stores BOTH an engine scheme in its mode table (see
:mod:`catalog`) and the explicit product/double-factorial formula for the
same chain, evaluated here by :func:`closed_form_bound` without touching
the generic engine.  Their coefficient-by-coefficient agreement is a
test, not an assumption.

:func:`bound_for` is the one public route to every bound, the
family-specific rows included: it checks the order against the row's
window, resolves the default mode token (:func:`resolve_mode`, which the
verifier and the CLI share) and evaluates the family's mode-table row.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import catalog as cat
from . import special as sf
from .engine import BoundCoefficients, NormSymbol, index_set
from .errors import ValidityError

__all__ = [
    "closed_form_bound",
    "bound_for",
    "derivative_order",
    "resolve_mode",
    "MODE_TOKENS",
]

_sym = NormSymbol.test_norm


def _rising(lo: int, hi: int) -> float:
    """Product lo * (lo+1) * ... * hi (1 when empty)."""
    return sf.product(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Family closed forms.
# ---------------------------------------------------------------------------


def _normal_closed(n: int, mode: str) -> BoundCoefficients:
    out = {}
    if mode == "i":
        for j in range(n + 1):
            out[_sym(j)] = (math.pi / 2.0) ** ((n - j + 1) / 2.0) * _rising(j + 1, n)
    elif mode == "ii" and n % 2 == 1:
        k = (n - 1) // 2
        for j in range(k + 1):
            out[_sym(2 * j)] = 2.0 ** (k - j + 1) * sf.double_factorial(2 * k) / sf.double_factorial(2 * j)
    elif mode == "ii":
        k = n // 2
        for j in range(1, k + 1):
            out[_sym(2 * j - 1)] = (
                2.0 ** (k - j + 1) * sf.double_factorial(2 * k - 1) / sf.double_factorial(2 * j - 1)
            )
        out[NormSymbol.centered()] = out.get(NormSymbol.centered(), 0.0) + (
            sf.SQRT_PI_OVER_2 * 2.0 ** k * sf.double_factorial(2 * k - 1)
        )
    else:
        raise ValueError(f"normal closed form: unknown mode {mode!r}")
    return BoundCoefficients(out)


def _gamma_closed(n: int, r: float, lam: float) -> BoundCoefficients:
    log_c = [(r + i) + sf.log_gamma(r + i) - (r + i) * math.log(r + i) for i in range(n + 1)]
    out = {}
    for j in range(n + 1):
        out[_sym(j)] = lam ** (n - j) * _rising(j + 1, n) * math.exp(math.fsum(log_c[j:]))
    return BoundCoefficients(out)


def _beta_closed(n: int, mode: str, alpha: float, beta: float) -> BoundCoefficients:
    out = {}
    if mode == "i":
        consts = [cat.beta_solution_constant(alpha + i, beta + i) for i in range(n + 1)]
        for j in range(n + 1):
            out[_sym(j)] = sf.product(consts[j:]) * _rising(j + 1, n) * sf.pochhammer(alpha + beta + j, n - j)
    elif mode == "iii":
        if n < 1:
            raise ValidityError("the Lipschitz chain starts at order 1")
        consts = [cat.beta_lipschitz_constant(alpha + i, beta + i) for i in range(n)]
        for j in range(1, n + 1):
            out[_sym(j)] = (
                sf.product(consts[j - 1:])
                * _rising(j, n - 1)
                * sf.pochhammer(alpha + beta + j - 1, n - j)
            )
    else:
        raise ValueError(f"beta closed form: unknown mode {mode!r}")
    return BoundCoefficients(out)


def _student_t_closed(n: int, mode: str, d: float, delta: float) -> BoundCoefficients:
    out = {}
    if mode == "i":
        if d - 2 * n <= 0:
            raise ValidityError(f"student-t needs d - 2n > 0 (d={d}, n={n})")
        log_ratio = [sf.log_gamma(d / 2.0 - i) - sf.log_gamma((d + 1.0) / 2.0 - i) for i in range(n + 1)]
        for j in range(n + 1):
            a_j = math.exp(math.fsum(log_ratio[j:]))
            out[_sym(j)] = (
                (math.sqrt(math.pi) / (2.0 * delta)) ** (n + 1 - j)
                * _rising(j + 1, n)
                * sf.pochhammer(d - n, n - j)
                * a_j
            )
    elif mode == "ii":
        if d - 2 * (n - 1) <= 0:
            raise ValidityError(f"student-t needs d - 2(n-1) > 0 (d={d}, n={n})")
        q = 2.0 / (delta * delta)
        if n % 2 == 1:
            k = (n - 1) // 2
            for j in range(k + 1):
                out[_sym(2 * j)] = (
                    q ** (k - j + 1)
                    * sf.double_factorial(2 * k) / sf.double_factorial(2 * j)
                    * sf.pochhammer_k(d - 2 * k, k - j, 2.0)
                )
        else:
            k = n // 2
            for j in range(1, k + 1):
                out[_sym(2 * j - 1)] = (
                    q ** (k - j + 1)
                    * sf.double_factorial(2 * k - 1) / sf.double_factorial(2 * j - 1)
                    * sf.pochhammer_k(d - 2 * k + 1, k - j, 2.0)
                )
            out[NormSymbol.centered()] = out.get(NormSymbol.centered(), 0.0) + (
                cat.student_t_solution_constant(d, delta)
                * q ** k
                * sf.double_factorial(2 * k - 1)
                * sf.pochhammer_k(d - 2 * k + 1, k, 2.0)
            )
    else:
        raise ValueError(f"student-t closed form: unknown mode {mode!r}")
    return BoundCoefficients(out)


def _inverse_gamma_closed(n: int, alpha: float, beta: float) -> BoundCoefficients:
    if alpha <= 2 * n + 1:
        raise ValidityError(f"inverse-gamma needs alpha > 2n + 1 (alpha={alpha}, n={n})")
    log_c = [
        sf.log_gamma(alpha - 2 * i) - math.log(beta)
        + (alpha - 2 * i - 1.0) * (1.0 - math.log(alpha - 2 * i - 1.0))
        for i in range(n + 1)
    ]
    out = {}
    for j in range(n + 1):
        out[_sym(j)] = _rising(j + 1, n) * sf.pochhammer(alpha - n, n - j) * math.exp(math.fsum(log_c[j:]))
    return BoundCoefficients(out)


def _prr_closed(n: int, mode: str, s: float) -> BoundCoefficients:
    if n < 1:
        raise ValidityError("the derivative-coupled chains start at order 1")
    out = {}
    if mode == "i":
        if s < 1.0:
            raise ValidityError("prr first-derivative chain requires s >= 1")
        for j in range(n):
            out[_sym(j, centered=False)] = _rising(j + 1, n - 1) * (2.0 * math.pi) ** ((n - j) / 2.0)
    elif mode == "ii":
        c = cat.prr_second_derivative_constant(s)
        if n % 2 == 1:
            k = (n - 1) // 2
            for j in range(1, k + 1):
                out[_sym(2 * j - 1)] = (
                    c ** (k - j + 1) * sf.double_factorial(2 * k - 1) / sf.double_factorial(2 * j - 1)
                )
            tail = c ** k * sf.double_factorial(2 * k - 1)
            if s >= 1.0:
                out[NormSymbol.plain()] = out.get(NormSymbol.plain(), 0.0) + sf.SQRT_2PI * tail
            else:
                out[NormSymbol.solution_deriv()] = tail
        else:
            k = n // 2
            for j in range(k):
                out[_sym(2 * j, centered=False)] = (
                    c ** (k - j) * sf.double_factorial(2 * k - 2) / sf.double_factorial(2 * j)
                )
    else:
        raise ValueError(f"prr closed form: unknown mode {mode!r}")
    return BoundCoefficients(out)


def _vg_symmetric_closed(n: int, r: float, sigma: float) -> BoundCoefficients:
    """theta = 0 variance-gamma chain (first-derivative base constants)."""
    q = 2.0 / (sigma * sigma)
    out = {}
    if n % 2 == 1:
        k = (n - 1) // 2
        for j in range(k + 1):
            out[_sym(2 * j)] = (
                q ** (k - j + 1)
                * sf.double_factorial(2 * k) / sf.double_factorial(2 * j)
                / sf.pochhammer_k(r + 2 * j, k - j + 1, 2.0)
            )
    else:
        k = n // 2
        for j in range(1, k + 1):
            out[_sym(2 * j - 1)] = (
                q ** (k - j + 1)
                * sf.double_factorial(2 * k - 1) / sf.double_factorial(2 * j - 1)
                / sf.pochhammer_k(r + 2 * j - 1, k - j + 1, 2.0)
            )
        out[NormSymbol.centered()] = out.get(NormSymbol.centered(), 0.0) + (
            cat.vg_symmetric_solution_constant(r, sigma)
            * q ** k
            * sf.double_factorial(2 * k - 1)
            / sf.pochhammer_k(r + 1, k, 2.0)
        )
    return BoundCoefficients(out)


def _vg_general_subsets(m: int, j: int, l: int):
    """Brute-force subset families (independent of the engine's enumerator)."""
    lo, hi = m - j, m
    for combo in itertools.combinations(range(lo, hi + 1), l):
        members = set(combo)
        if lo not in members or hi not in members:
            continue
        if all(i in members or (i + 1) in members for i in range(lo, hi)):
            yield members


def _vg_general_closed(n: int, r: float, theta: float, sigma: float) -> BoundCoefficients:
    """General-theta variance-gamma bound on ||f^(n)||, evaluated straight
    from the displayed subset-family formula (n >= 2) and the base bounds
    b_0/sqrt(theta^2 + sigma^2), b_0/sigma^2 it starts from (n = 0, 1)."""
    s2 = sigma * sigma
    root = math.sqrt(theta * theta + sigma * sigma)
    if n < 2:
        b0 = 2.0 / r + cat.vg_scale_constant(r, theta, sigma)
        return BoundCoefficients({NormSymbol.centered(): b0 / (root if n == 0 else s2)})
    m = n - 1
    b = [2.0 / (r + i) + cat.vg_scale_constant(r + i, theta, sigma) for i in range(m + 1)]

    def a_sum(j: int) -> float:
        total = 0.0
        for l in index_set(j):
            for members in _vg_general_subsets(m, j, l):
                prod = 1.0
                for i in members:
                    if i == m - j:
                        continue
                    prod *= (abs(theta) if (i - 1) in members else 1.0) * i * b[i] / s2
                total += prod
        return total

    out = {}
    for j in range(m):
        out[NormSymbol.test_deriv(m - j)] = b[m - j] / s2 * a_sum(j)
    out[NormSymbol.centered()] = (b[0] / s2) * (a_sum(m) + (b[1] / root) * a_sum(m - 1))
    return BoundCoefficients(out)


def closed_form_bound(spec: cat.DistributionSpec, n: int, mode: str) -> BoundCoefficients:
    """Explicit product-formula evaluation of a family chain bound.

    mode is the engine letter of the chain ("i", "ii", "iii", "mixed").
    Raises ValidityError outside the family window.
    """
    fam, p = spec.family, spec.params
    if fam == "normal":
        return _normal_closed(n, mode)
    if fam in ("gamma", "exponential"):
        r = p.get("r", 1.0)
        return _gamma_closed(n, r, p["lam"])
    if fam in ("beta", "arcsine"):
        alpha = p.get("alpha", 0.5)
        beta = p.get("beta", 0.5)
        return _beta_closed(n, mode, alpha, beta)
    if fam == "student_t":
        return _student_t_closed(n, mode, p["d"], p["delta"])
    if fam == "inverse_gamma":
        return _inverse_gamma_closed(n, p["alpha"], p["beta"])
    if fam == "prr":
        return _prr_closed(n, mode, p["s"])
    if fam == "vg":
        if mode == "mixed":
            return _vg_general_closed(n, p["r"], p["theta"], p["sigma"])
        if p["theta"] != 0.0:
            raise ValidityError("the theta = 0 variance-gamma chain requires theta = 0")
        return _vg_symmetric_closed(n, p["r"], p["sigma"])
    raise ValueError(f"no closed form for family {fam!r}")


# ---------------------------------------------------------------------------
# Mode-token dispatch (shared by the verifier and the CLI).
# ---------------------------------------------------------------------------

MODE_TOKENS = (
    "default",
    "lemma23i",
    "lemma23ii",
    "lemma23iii",
    "lemma24i",
    "lemma24ii",
    "lemma25",
    "onestep",
    "bounded",
    "iterated",
    "lipschitz",
    "lipschitz_iterated",
    "partial",
    "first",
    "lower",
    "next-over-n",
    "gamma-ratio",
    "two-prev",
)


def resolve_mode(spec: cat.DistributionSpec, token: str | None) -> str:
    """The mode token a request names: None and "default" select the
    family's default mode, every other token names itself."""
    return spec.default_mode if token is None or token == "default" else token


def derivative_order(n) -> int:
    """n as an int: an integer or an integral float (2.0, as JSON may give
    it); a bool, a non-integral value or a negative one raises
    ValidityError."""
    try:
        order = operator.index(n)
    except TypeError:
        order = int(n) if isinstance(n, float) and n.is_integer() else None
    if order is None or isinstance(n, bool) or order < 0:
        raise ValidityError(f"derivative order must be an integer >= 0, got {n!r}")
    return order


def bound_for(spec: cat.DistributionSpec, n: int, mode: str | None = None) -> BoundCoefficients:
    """Bound on ||f^(n)|| for a catalog family under a mode token.

    None or "default" selects the family's default mode.  The order is
    read by derivative_order; a token the family's mode table lacks or an
    order outside the row's window raises ValidityError; a string that is
    no mode token raises ValueError.
    """
    n = derivative_order(n)
    mode = resolve_mode(spec, mode)
    row = spec.modes.get(mode)
    if row is None:
        if mode in MODE_TOKENS:
            raise ValidityError(f"{spec.family} does not support mode {mode}")
        raise ValueError(f"unknown mode token {mode!r}")
    if row.last is not None and n > row.last:
        raise ValidityError(
            f"{spec.family}{spec.params}: order {n} exceeds the validity "
            f"window for mode {mode!r} (max {row.last})"
        )
    return row.bound(n)
