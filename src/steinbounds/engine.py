"""Generic iterative bounding engine.

A Stein-type equation whose iterated levels are linked by a coupling
operator T (acting on the solution as c*f, c*f', or c0*f + c1*f') admits
sup-norm bounds for derivatives of any order once per-level base bounds
are known.  This module turns an :class:`IterationScheme` (the cumulative
coupling sequences a_j, b_j plus per-level base constants) into a
:class:`BoundCoefficients` object: a nonnegative linear functional over
test-function norm symbols.

One product kernel, :func:`_chain`, pushes a top level's base bound down
through the couplings to order 0, and the chains of the first two coupling
shapes are relabellings of it:

* :func:`value_coupled_bound`   -- T f = c f: each of the modes "i", "ii"
  and "iii" is a choice of levels and norm symbols for the kernel
* :func:`deriv_coupled_bound`   -- T f = c f' (modes "i", "ii"): the value
  chain of f' one order down, read against ||h|| and ||f'||
* :func:`mixed_coupled_bound`   -- T f = c0 f + c1 f'

The mixed case carries a combinatorial closed form (sum over constrained
subset families) and an O(m) three-term recursion.  The recursion is the
only production evaluator; :func:`enumerated_mixed_bound` evaluates the
subset sums explicitly and is kept as an independent oracle (their
agreement is a test, not an assumption).

Orders below a chain's first order raise :class:`ValidityError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import ValidityError
from .special import product

__all__ = [
    "NormSymbol",
    "BoundCoefficients",
    "IterationScheme",
    "value_coupled_bound",
    "deriv_coupled_bound",
    "mixed_coupled_bound",
    "enumerated_mixed_bound",
    "index_set",
    "enumerate_subsets",
    "a_coefficient",
    "recursion_oracle",
]


_KIND_ORDER = {"h~": 0, "h": 1, "h^": 2, "f": 3, "f'": 4}
_ALLCLOSE_RTOL = 1e-10  # relative tolerance of BoundCoefficients.allclose


@dataclass(frozen=True)
class NormSymbol:
    """One supremum-norm slot: a test-function norm or a solution norm.

    kind is one of "h~" (centered test), "h" (plain test), "h^" (j-th
    test derivative, j >= 1), "f" (solution) or "f'" (solution
    derivative).  Order-0 test norms are always "h~" or "h", never a
    zeroth derivative.
    """

    kind: str
    order: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "h^" and self.order < 1:
            raise ValueError("test-derivative symbols require order >= 1")
        if self.kind != "h^" and self.order != 0:
            raise ValueError(f"kind {self.kind!r} carries no order")

    @staticmethod
    def centered() -> "NormSymbol":
        return NormSymbol("h~")

    @staticmethod
    def plain() -> "NormSymbol":
        return NormSymbol("h")

    @staticmethod
    def test_deriv(j: int) -> "NormSymbol":
        return NormSymbol("h^", j)

    @staticmethod
    def test_norm(j: int, centered: bool = True) -> "NormSymbol":
        """Order-j test norm: ||h~|| (or ||h||) at j = 0, else ||h^(j)||."""
        if j == 0:
            return NormSymbol.centered() if centered else NormSymbol.plain()
        return NormSymbol.test_deriv(j)

    @staticmethod
    def solution() -> "NormSymbol":
        return NormSymbol("f")

    @staticmethod
    def solution_deriv() -> "NormSymbol":
        return NormSymbol("f'")

    @property
    def slot(self) -> str:
        """Short name used by the CLI norm vectors and serialized output."""
        if self.kind == "h^":
            return f"h{self.order}"
        return self.kind

    @property
    def label(self) -> str:
        if self.kind == "h^":
            return f"||h^({self.order})||"
        return {"h~": "||h~||", "h": "||h||", "f": "||f||", "f'": "||f'||"}[self.kind]

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.order)


def parse_slot(slot: str) -> NormSymbol:
    """Inverse of :attr:`NormSymbol.slot` (h~, h, h1, h2, ..., f, f')."""
    if slot in ("h~", "h", "f", "f'"):
        return NormSymbol(slot)
    if slot.startswith("h") and slot[1:].isdigit():
        return NormSymbol.test_deriv(int(slot[1:]))
    raise ValueError(f"unknown norm slot {slot!r}")


@dataclass(frozen=True)
class BoundCoefficients:
    """Nonnegative linear functional over norm symbols.

    Evaluating against a vector of norm values is linear and monotone in
    each norm; negative coefficients are rejected at construction.
    """

    terms: Mapping[NormSymbol, float]

    def __post_init__(self):
        clean = {}
        for sym, c in self.terms.items():
            c = float(c)
            if c < 0.0 or math.isnan(c):
                raise ValueError(f"coefficient on {sym.label} must be >= 0, got {c}")
            if c != 0.0:
                clean[sym] = c
        object.__setattr__(self, "terms", dict(clean))

    def items(self):
        """Deterministically ordered (symbol, coefficient) pairs."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def get(self, sym: NormSymbol) -> float:
        return self.terms.get(sym, 0.0)

    @property
    def symbols(self):
        return [s for s, _ in self.items()]

    def evaluate(self, norms: Mapping[NormSymbol, float]) -> float:
        """Substitute norm values; a missing slot is an error, never zero."""
        total = 0.0
        for sym, c in self.items():
            if sym not in norms:
                raise KeyError(f"no norm value supplied for {sym.label}")
            total += c * float(norms[sym])
        return total

    def substitute(self, subs: Mapping[NormSymbol, "BoundCoefficients"]) -> "BoundCoefficients":
        """Replace solution-norm symbols by their own bound functionals."""
        out: dict[NormSymbol, float] = {}
        for sym, c in self.terms.items():
            if sym in subs:
                for s2, c2 in subs[sym].terms.items():
                    out[s2] = out.get(s2, 0.0) + c * c2
            else:
                out[sym] = out.get(sym, 0.0) + c
        return BoundCoefficients(out)

    def allclose(self, other: "BoundCoefficients") -> bool:
        """Every coefficient of either agrees with the other's to _ALLCLOSE_RTOL relative."""
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            a, b = self.get(k), other.get(k)
            if abs(a - b) > _ALLCLOSE_RTOL * max(abs(a), abs(b)):
                return False
        return True


def coefficients(**slots: float) -> BoundCoefficients:
    """Convenience constructor keyed by slot names (h~, h, h1, ..., f, f')."""
    return BoundCoefficients({parse_slot(k): v for k, v in slots.items()})


@dataclass(frozen=True)
class IterationScheme:
    """Coupling sequences and per-level base constants for one distribution.

    a / b are the cumulative coupling magnitudes (absolute values of the
    partial sums of the per-level coefficients).  Each constant family
    corresponds to one base-bound shape, h~_l = h_l - E h_l(Z_l) being the
    level-l right-hand side centred under the level-l law:

    * c_level(l):  ||f_l||  <= C_l ||h~_l||
    * d_level(l):  ||f'_l|| <= D_l ||h~_l||   (chain on f' against h)
    * e_level(l):  ||f'_l|| <= E_l ||h'_l||   (Lipschitz chain)
    * k_level(l):  ||f_l||  <= K_l ||h~_l||   (mixed-coupling companion)

    The centring matters: with the uncentred ||h_l|| the gamma C_0 =
    e^r Gamma(r)/r^r fails at r = 0.320687, where the exact sup is 5.93
    against 5.54.

    base_substitutions optionally resolves leftover ||f|| / ||f'|| terms;
    substitution is opt-in, never automatic.
    """

    a: Callable[[int], float]
    b: Callable[[int], float] | None = None
    c_level: Callable[[int], float] | None = None
    d_level: Callable[[int], float] | None = None
    e_level: Callable[[int], float] | None = None
    k_level: Callable[[int], float] | None = None
    base_substitutions: Mapping[NormSymbol, BoundCoefficients] = field(default_factory=dict)

    def _need(self, name: str) -> Callable[[int], float]:
        fn = getattr(self, name)
        if fn is None:
            raise ValueError(f"scheme does not define the {name} constant family")
        return fn

    def _maybe_substitute(self, coeffs: BoundCoefficients) -> BoundCoefficients:
        if self.base_substitutions:
            return coeffs.substitute(self.base_substitutions)
        return coeffs


def _chain(consts: list[float], links: list[float]) -> list[float]:
    """Weights [w_0, ..., w_m] of one chain of base bounds.

    consts[l] is the base constant of level l and links[l] the coupling
    from level l + 1 into level l.  The top level's bound is pushed down
    one level at a time, so w_j = consts[m] * prod_{i=j}^{m-1} consts[i]
    * links[i] is the weight of level j's test norm.
    """
    m = len(consts) - 1
    return [consts[m] * product(consts[i] * links[i] for i in range(j, m)) for j in range(m + 1)]


def _value_terms(scheme: IterationScheme, mode: str, n: int) -> dict[NormSymbol, float]:
    """Unsubstituted terms of the value-coupled chain at order n: the
    levels and symbols of each mode, fed to :func:`_chain`."""
    a = scheme.a
    if mode == "i":
        c = scheme._need("c_level")
        w = _chain([c(l) for l in range(n + 1)], [a(l) for l in range(n)])
        return {NormSymbol.test_norm(j): w[j] for j in range(n + 1)}
    if mode == "ii":
        d = scheme._need("d_level")
        k = n // 2
        if n % 2 == 1:
            w = _chain([d(2 * l) for l in range(k + 1)], [a(2 * l + 1) for l in range(k)])
            return {NormSymbol.test_norm(2 * j): w[j] for j in range(k + 1)}
        consts = [d(2 * l + 1) for l in range(k)]
        evens = [a(2 * l) for l in range(k)]
        w = _chain(consts, evens[1:])
        terms = {NormSymbol.test_deriv(2 * j + 1): w[j] for j in range(k)}
        terms[NormSymbol.solution()] = product(consts[l] * evens[l] for l in range(k))
        return terms
    if mode == "iii":
        if n < 1:
            raise ValidityError("the Lipschitz chain starts at order 1")
        e = scheme._need("e_level")
        w = _chain([e(l) for l in range(n)], [a(l) for l in range(n - 1)])
        return {NormSymbol.test_deriv(j + 1): w[j] for j in range(n)}
    raise ValueError(f"unknown mode {mode!r} (expected 'i', 'ii' or 'iii')")


def value_coupled_bound(scheme: IterationScheme, mode: str, n: int) -> BoundCoefficients:
    """Bound on ||f^(n)|| when the level coupling acts as T f = c f.

    mode "i" chains the solution-norm base constants C_l, mode "ii" the
    first-derivative constants D_l (every other level: odd orders end on
    the even test norms, even orders on the odd ones plus a symbolic
    ||f|| term unless substituted), mode "iii" the Lipschitz constants
    E_l, which is chain "i" one derivative up.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return scheme._maybe_substitute(BoundCoefficients(_value_terms(scheme, mode, n)))


_DERIV_RELABEL = {NormSymbol.centered(): NormSymbol.plain(), NormSymbol.solution(): NormSymbol.solution_deriv()}


def deriv_coupled_bound(scheme: IterationScheme, mode: str, n: int) -> BoundCoefficients:
    """Bound on ||f^(n)|| when the level coupling acts as T f = c f'.

    f' obeys the value-coupled chain one order down, so this is that
    chain's terms at order n - 1 with the plain ||h|| for ||h~|| and
    ||f'|| for ||f||: mode "i" chains ||f'_l|| <= C_l ||h_l||, mode "ii"
    chains ||f''_l|| <= D_l ||h_l||, leaving a symbolic ||f'|| term in
    the odd case unless substituted.
    """
    if n < 1:
        raise ValidityError("the derivative-coupled chains start at order 1")
    if mode not in ("i", "ii"):
        raise ValueError(f"unknown mode {mode!r} (expected 'i' or 'ii')")
    terms = {_DERIV_RELABEL.get(s, s): c for s, c in _value_terms(scheme, mode, n - 1).items()}
    return scheme._maybe_substitute(BoundCoefficients(terms))


# ---------------------------------------------------------------------------
# Mixed coupling T f = c0 f + c1 f': subset-family combinatorics + recursion.
# ---------------------------------------------------------------------------


def index_set(j: int) -> range:
    """Admissible subset sizes I_j = {j + 1 - floor(j/2), ..., j + 1}."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return range(j + 1 - j // 2, j + 2)


def enumerate_subsets(m: int, j: int, l: int) -> list[tuple[int, ...]]:
    """All size-l subsets M of {m-j, ..., m} with m-j, m in M that meet
    every adjacent pair {i, i+1}, m-j <= i <= m-1.  Lexicographic order;
    empty list when no subset qualifies.
    """
    if not (0 <= j <= m):
        raise ValueError(f"need 0 <= j <= m, got j={j}, m={m}")
    lo, hi = m - j, m
    if j == 0:
        return [(m,)] if l == 1 else []
    if l < 2 or l > j + 1:
        return []
    interior = range(lo + 1, hi)
    out = []
    for mid in itertools.combinations(interior, l - 2):
        subset = (lo,) + mid + (hi,)
        members = set(subset)
        if all(i in members or (i + 1) in members for i in range(lo, hi)):
            out.append(subset)
    return out


def a_coefficient(m: int, j: int, l: int, scheme: IterationScheme) -> float:
    """Sum over the qualifying subsets of the mixed-coupling products.

    Each element i of a subset (other than the anchor m-j) contributes
    b_i*D_i when its predecessor i-1 is also in the subset, a_i*D_i
    otherwise.
    """
    a, b = scheme.a, scheme._need("b")
    d = scheme._need("d_level")
    anchor = m - j
    total = 0.0
    for subset in enumerate_subsets(m, j, l):
        members = set(subset)
        total += product(
            (b(i) if (i - 1) in members else a(i)) * d(i)
            for i in subset
            if i != anchor
        )
    return total


_ENUMERATION_CAP = 25  # explicit subset enumeration is exponential in j


def _chain_weights_enumerated(scheme: IterationScheme, m: int) -> list[float]:
    """[w_0, ..., w_m]: w_j multiplies ||h^(m-j)|| (w_m belongs to ||h||).

    Direct evaluation of the displayed subset-family sums; the terminal
    weight combines the D_0 and K_0 routes down to the base level.
    """
    a = scheme.a
    d = scheme._need("d_level")
    k0 = scheme._need("k_level")(0)
    weights = [d(m - j) * sum(a_coefficient(m, j, l, scheme) for l in index_set(j)) for j in range(m)]
    terminal = d(0) * sum(a_coefficient(m, m, l, scheme) for l in index_set(m))
    terminal += a(1) * k0 * d(1) * sum(a_coefficient(m, m - 1, l, scheme) for l in index_set(m - 1))
    weights.append(terminal)
    return weights


def recursion_oracle(m: int, scheme: IterationScheme) -> dict[str, dict[int, float]]:
    """Three-term backward recursion for the mixed-coupling chain.

    Returns {"C1": {...}, "C2": {...}, "C3": {...}} keyed by level, with
    C1 defined down to level 0.  Initial level m: C1 = D_m, C2 = b_m D_m,
    C3 = a_m D_m; then
        C1[k-1] = D_{k-1} C2[k]
        C2[k-1] = C3[k] + b_{k-1} D_{k-1} C2[k]
        C3[k-1] = a_{k-1} D_{k-1} C2[k]
    and C1[0] = D_0 C2[1] + K_0 C3[1].
    """
    if m < 1:
        raise ValueError("mixed-coupling chain requires m >= 1")
    a, b = scheme.a, scheme._need("b")
    d = scheme._need("d_level")
    k0 = scheme._need("k_level")(0)
    c1 = {m: d(m)}
    c2 = {m: b(m) * d(m)}
    c3 = {m: a(m) * d(m)}
    for k in range(m, 1, -1):
        c1[k - 1] = d(k - 1) * c2[k]
        c2[k - 1] = c3[k] + b(k - 1) * d(k - 1) * c2[k]
        c3[k - 1] = a(k - 1) * d(k - 1) * c2[k]
    c1[0] = d(0) * c2[1] + k0 * c3[1]
    return {"C1": c1, "C2": c2, "C3": c3}


def _mixed_functional(scheme: IterationScheme, weights: list[float]) -> BoundCoefficients:
    """[w_0, ..., w_m] as a functional: w_j on ||h^(m-j)||, w_m on ||h~||."""
    m = len(weights) - 1
    out = {NormSymbol.test_deriv(m - j): weights[j] for j in range(m)}
    out[NormSymbol.centered()] = weights[m]
    return scheme._maybe_substitute(BoundCoefficients(out))


def mixed_coupled_bound(scheme: IterationScheme, m: int) -> BoundCoefficients:
    """Bound on ||f^(m+1)|| when the level coupling acts as T f = c0 f + c1 f'.

    The coefficient on ||h^(m-j)|| is D_{m-j} * sum_{l in I_j} A_{j,l};
    the order-0 term lands on the centered test norm.  Evaluated by the
    O(m) backward recursion of :func:`recursion_oracle`.
    """
    if m < 1:
        raise ValueError("mixed-coupling chain requires m >= 1")
    c1 = recursion_oracle(m, scheme)["C1"]
    return _mixed_functional(scheme, [c1[m - j] for j in range(m + 1)])


def enumerated_mixed_bound(scheme: IterationScheme, m: int) -> BoundCoefficients:
    """The :func:`mixed_coupled_bound` functional evaluated from the explicit
    subset-family sums instead of the recursion.

    Exponential in m and capped at m <= 25: an oracle for tests, not a
    production path.
    """
    if m < 1:
        raise ValueError("mixed-coupling chain requires m >= 1")
    if m > _ENUMERATION_CAP:
        raise ValueError(f"explicit enumeration capped at m <= {_ENUMERATION_CAP}")
    return _mixed_functional(scheme, _chain_weights_enumerated(scheme, m))
