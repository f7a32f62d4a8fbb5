"""The level-k algebra of catalog's Leibniz core, for every solvable family.

Each family states its order-0 operator L = a2 D^2 + a1 D + a0 as three
polynomials and a split, and SteinOperator.level(k) derives the level-k
operator L_k, the right-hand side and the coupling T_k from them.

Parameters are multiples of 1/8, so every coefficient below is computed
exactly and the identities hold with ==:

- d/dx[L_k g] = L_(k+1) g' - T_k g, coefficient by coefficient;
- differentiating the level-k equation L_k f^(k) = h^(k) + sum r f^(k+o)
  gives the level-(k+1) one, so the right-hand side of level k+1 is
  T_k f^(k) plus the derivative of the right-hand side of level k;
- PRR, vg and quartic give the level equations of the paper, as their
  hand-written tables had them before the core, and the Pearson laws the
  closed forms b_k = b0 + k q1, m_k = m - 2k q2, c_k = k (m - (k-1) q2).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from steinbounds import catalog as cat
from steinbounds.catalog import _pearson

EIGHTHS = st.integers(-400, 400).map(lambda n: n / 8.0)
MAX_LEVEL = 6
SRC = Path(cat.__file__).parent


def _positive(lo, hi):
    return st.integers(int(8 * lo), int(8 * hi)).map(lambda n: n / 8.0)


# dyadic parameters inside each family's window
DYADIC = {
    "normal": {},
    "gamma": {"r": _positive(0.125, 8.0), "lam": _positive(0.125, 4.0)},
    "exponential": {"lam": _positive(0.125, 4.0)},
    "beta": {"alpha": _positive(0.125, 6.0), "beta": _positive(0.125, 6.0)},
    "arcsine": {},
    "student_t": {"d": _positive(0.125, 30.0), "delta": _positive(0.125, 4.0)},
    "inverse_gamma": {"alpha": _positive(0.125, 24.0), "beta": _positive(0.125, 4.0)},
    "prr": {"s": st.one_of(st.just(0.5), _positive(1.0, 20.0))},
    "vg": {"r": _positive(0.125, 8.0), "theta": _positive(-2.0, 2.0), "sigma": _positive(0.125, 2.0)},
    "quartic": {},
}


def _same(p, q) -> bool:
    """Equal polynomials (trailing zero coefficients ignored)."""
    return np.array_equal(npoly.polytrim(np.asarray(p, dtype=float)), npoly.polytrim(np.asarray(q, dtype=float)))


def _same_terms(got, want) -> bool:
    """Equal {offset: polynomial} maps, a zero polynomial counting as absent."""
    def nonzero(terms):
        return {o: c for o, c in terms.items() if np.any(c)}

    got, want = nonzero(got), nonzero(want)
    return got.keys() == want.keys() and all(_same(got[o], want[o]) for o in got)


def _add(terms, offset, poly):
    terms[offset] = npoly.polyadd(terms.get(offset, [0.0]), poly)


def test_every_solvable_family_has_dyadic_parameters():
    assert sorted(DYADIC) == sorted({fam for fam, params in cat.DEFAULT_SPECS if cat.make_spec(fam, **params).solvable})


@pytest.mark.parametrize("family", sorted(DYADIC))
def test_differentiating_level_k_gives_level_k_plus_one(family):
    @settings(max_examples=25, deadline=None)
    @given(params=st.fixed_dictionaries(DYADIC[family]))
    def check(params):
        operator = cat.make_spec(family, **params).operator
        for k in range(MAX_LEVEL + 1):
            level, up = operator.level(k), operator.level(k + 1)
            (c2, c1, c0), (n2, n1, n0), (t2, t1, t0) = level.operator, up.operator, level.coupling
            # D L_k g = c2 g''' + (c2' + c1) g'' + (c1' + c0) g' + c0' g
            assert _same(n2, c2)
            assert _same(npoly.polysub(n1, t2), npoly.polyadd(npoly.polyder(c2), c1))
            assert _same(npoly.polysub(n0, t1), npoly.polyadd(npoly.polyder(c1), c0))
            assert _same(-t0, npoly.polyder(c0))
            # L_(k+1) f^(k+1) = h^(k+1) + T_k f^(k) + d/dx[sum r f^(k+o)]
            want = {}
            for offset, t in zip((1, 0, -1), level.coupling):
                _add(want, offset, t)
            for offset, r in level.rhs:
                _add(want, offset - 1, npoly.polyder(r))
                _add(want, offset, r)
            assert _same_terms(dict(up.rhs), want), (k, up.rhs, want)
        assert operator.level(0).rhs == ()

    check()


@given(q2=EIGHTHS, q1=EIGHTHS, q0=EIGHTHS, b0=EIGHTHS, m=EIGHTHS)
def test_pearson_levels_are_the_closed_forms(q2, q1, q0, b0, m):
    a, fields = _pearson(q2, q1, q0, b0, m, (0.0, math.inf), np.exp)
    operator = fields["operator"]
    assert fields["operator_order"] == 1 and fields["coupling_kind"] == "value"
    assert fields["support"] == (0.0, math.inf) and fields["delicate_points"] == (0.0,)
    assert fields["pdf"](-1.0) == 0.0 and fields["pdf"](1.0) == float(np.exp(1.0))
    for k in range(MAX_LEVEL + 1):
        level = operator.level(k)
        c_k = k * (m - (k - 1) * q2)
        assert _same(level.operator[0], [0.0])
        assert _same(level.operator[1], [q0, q1, q2])  # tau at every level
        assert _same(level.operator[2], [b0 + k * q1, -(m - 2 * k * q2)])
        assert _same_terms(dict(level.rhs), {-1: [c_k]})
        t2, t1, t0 = level.coupling
        assert _same(t2, [0.0]) and _same(t1, [0.0]) and _same(t0, [m - 2 * k * q2])
        assert a(k) == abs((k + 1) * (m - k * q2))


# The level equations of PRR, vg and quartic as the catalog wrote them by
# hand before the Leibniz core: ((a2, a1, a0), {offset: rhs}, (t2, t1, t0)).
def _prr_table(s, k):
    return ((s,), (0.0, -1.0), (-2.0 * (s - 1.0),)), {0: (float(k),)}, ((0.0,), (1.0,), (0.0,))


def _vg_table(r, theta, sigma, k):
    s2 = sigma * sigma
    operator = ((0.0, s2), (s2 * (r + k), 2.0 * theta), ((r + k) * theta, -1.0))
    return operator, {-1: (float(k),), 0: (-k * theta,)}, ((0.0,), (-theta,), (1.0,))


def _quartic_table(k):
    rhs = {-1: (0.0, 0.0, float(k))}
    if k >= 2:
        rhs[-2] = (0.0, k * (k - 1.0))
    if k >= 3:
        rhs[-3] = (k * (k - 1.0) * (k - 2.0) / 3.0,)
    return ((0.0,), (1.0,), (0.0, 0.0, 0.0, -1.0 / 3.0)), rhs, ((0.0,), (0.0,), (0.0, 0.0, 1.0))


def _check_table(spec, table):
    for k in range(MAX_LEVEL + 1):
        operator, rhs, coupling = table(k)
        level = spec.operator.level(k)
        assert all(_same(got, want) for got, want in zip(level.operator, operator)), (k, level.operator)
        assert _same_terms(dict(level.rhs), rhs if k else {}), (k, level.rhs)
        assert all(_same(got, want) for got, want in zip(level.coupling, coupling)), (k, level.coupling)


@given(s=DYADIC["prr"]["s"])
def test_prr_levels_are_the_papers(s):
    _check_table(cat.make_spec("prr", s=s), lambda k: _prr_table(s, k))


@given(params=st.fixed_dictionaries(DYADIC["vg"]))
def test_vg_levels_are_the_papers(params):
    _check_table(cat.make_spec("vg", **params), lambda k: _vg_table(params["r"], params["theta"], params["sigma"], k))


def test_quartic_levels_are_the_papers():
    _check_table(cat.make_spec("quartic"), _quartic_table)


def test_default_specs_keep_their_splits():
    splits = {fam: cat.make_spec(fam, **params).operator.split for fam, params in cat.DEFAULT_SPECS if fam != "mvn"}
    assert splits == {fam: 0.0 for fam in splits} | {"prr": 1.0, "vg": 0.5}


class TestOneLeibnizCore:
    """Every level-k operator, coupling and right-hand side comes from the
    core: no family writes its own level table."""

    GONE = ("op_coeffs", "t_coeffs", "rhs_terms", "level_rhs", "weight_s", "_constf")

    def test_hand_written_level_names_are_gone(self):
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text()
            assert not [name for name in self.GONE if name in text], path.name

    def test_one_function_differentiates_polynomials(self):
        # _derivatives differentiates the three polynomials (each coefficient
        # times its index), and the binomials of Leibniz's rule appear in
        # _leibniz alone; numpy's polyder would be a second route
        tree = ast.parse((SRC / "catalog.py").read_text())
        users = {"differentiates": set(), "comb": set()}

        def differentiates(node):
            if isinstance(node, ast.Attribute) and node.attr == "polyder":
                return True
            if not isinstance(node, ast.ListComp) or not isinstance(node.elt, ast.BinOp):
                return False
            (gen,) = node.generators
            names = {n.id for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
            operands = {getattr(node.elt.left, "id", None), getattr(node.elt.right, "id", None)}
            return (
                isinstance(gen.iter, ast.Call)
                and getattr(gen.iter.func, "id", None) == "enumerate"
                and isinstance(node.elt.op, ast.Mult)
                and len(names) == 2
                and operands == names
            )

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if differentiates(node):
                users["differentiates"].add(func)
            if isinstance(node, ast.Attribute) and node.attr == "comb":
                users["comb"].add(func)
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
        assert users == {"differentiates": {"_derivatives"}, "comb": {"_leibniz"}}
