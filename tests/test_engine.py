"""Bounding engine: chain evaluators, subset combinatorics, recursion oracle."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinbounds.engine import (
    BoundCoefficients,
    IterationScheme,
    NormSymbol,
    a_coefficient,
    coefficients,
    deriv_coupled_bound,
    enumerate_subsets,
    enumerated_mixed_bound,
    index_set,
    mixed_coupled_bound,
    parse_slot,
    recursion_oracle,
    value_coupled_bound,
)

SQ = math.sqrt(math.pi / 2.0)


def normal_like_scheme():
    return IterationScheme(
        a=lambda j: float(j + 1),
        c_level=lambda l: SQ,
        d_level=lambda l: 2.0,
    )


def random_mixed_scheme(rng):
    a = rng.uniform(0.05, 2.0, 32)
    b = rng.uniform(0.05, 2.0, 32)
    d = rng.uniform(0.05, 2.0, 32)
    k0 = float(rng.uniform(0.05, 2.0))
    return IterationScheme(
        a=lambda j: float(a[j]),
        b=lambda j: float(b[j]),
        d_level=lambda l: float(d[l]),
        k_level=lambda l: k0,
    ), a, b, d, k0


class TestNormSymbol:
    def test_zero_order_derivative_rejected(self):
        with pytest.raises(ValueError):
            NormSymbol("h^", 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NormSymbol("g")

    def test_slot_roundtrip(self):
        for sym in (NormSymbol.centered(), NormSymbol.plain(), NormSymbol.test_deriv(3),
                    NormSymbol.solution(), NormSymbol.solution_deriv()):
            assert parse_slot(sym.slot) == sym

    def test_bad_slot(self):
        with pytest.raises(ValueError):
            parse_slot("h~2")


class TestBoundCoefficients:
    def test_nonnegative_invariant(self):
        with pytest.raises(ValueError):
            BoundCoefficients({NormSymbol.centered(): -0.1})

    def test_missing_norm_is_an_error(self):
        bc = coefficients(**{"h~": 1.0, "h1": 2.0})
        with pytest.raises(KeyError):
            bc.evaluate({NormSymbol.centered(): 1.0})

    def test_evaluation_linear_monotone(self):
        bc = coefficients(**{"h~": 1.5, "h1": 0.5})
        norms = {NormSymbol.centered(): 1.0, NormSymbol.test_deriv(1): 2.0}
        assert bc.evaluate(norms) == pytest.approx(2.5)
        bumped = dict(norms)
        bumped[NormSymbol.test_deriv(1)] = 3.0
        assert bc.evaluate(bumped) > bc.evaluate(norms)

    def test_substitution(self):
        bc = BoundCoefficients({NormSymbol.solution(): 2.0, NormSymbol.test_deriv(1): 1.0})
        subbed = bc.substitute({NormSymbol.solution(): coefficients(**{"h~": SQ})})
        assert subbed.get(NormSymbol.centered()) == pytest.approx(2.0 * SQ)
        assert NormSymbol.solution() not in subbed.terms


class TestValueCoupledChain:
    def test_order_zero_is_base_case(self):
        bc = value_coupled_bound(normal_like_scheme(), "i", 0)
        assert bc.items() == [(NormSymbol.centered(), pytest.approx(SQ, rel=1e-12))]

    def test_order_one_closed_values(self):
        bc = value_coupled_bound(normal_like_scheme(), "i", 1)
        assert bc.get(NormSymbol.centered()) == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(SQ, rel=1e-12)

    def test_first_derivative_base_recovered(self):
        bc = value_coupled_bound(normal_like_scheme(), "ii", 1)
        assert bc.items() == [(NormSymbol.centered(), pytest.approx(2.0))]

    def test_even_chain_keeps_symbolic_solution_norm(self):
        bc = value_coupled_bound(normal_like_scheme(), "ii", 2)
        assert bc.get(NormSymbol.solution()) == pytest.approx(2.0)  # D_1 a_0
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(2.0)

    def test_telescoping_recursion(self):
        # one chain step transfers every lower coefficient through the new
        # level: coef_n(j) = C_n a_{n-1} coef_{n-1}(j) for j < n
        rng = np.random.default_rng(3)
        c = rng.uniform(0.2, 2.0, 12)
        a = rng.uniform(0.2, 2.0, 12)
        scheme = IterationScheme(a=lambda j: float(a[j]), c_level=lambda l: float(c[l]))
        for n in range(1, 9):
            cur = value_coupled_bound(scheme, "i", n)
            prev = value_coupled_bound(scheme, "i", n - 1)
            for j in range(n):
                sym = NormSymbol.centered() if j == 0 else NormSymbol.test_deriv(j)
                expect = c[n] * a[n - 1] * prev.get(sym)
                assert cur.get(sym) == pytest.approx(expect, rel=1e-12)

    def test_lipschitz_chain_starts_at_one(self):
        scheme = IterationScheme(a=lambda j: float(j + 1), e_level=lambda l: 1.5)
        with pytest.raises(ValueError):
            value_coupled_bound(scheme, "iii", 0)
        bc = value_coupled_bound(scheme, "iii", 1)
        assert bc.items() == [(NormSymbol.test_deriv(1), pytest.approx(1.5))]

    def test_missing_constant_family(self):
        scheme = IterationScheme(a=lambda j: 1.0)
        with pytest.raises(ValueError):
            value_coupled_bound(scheme, "i", 1)


class TestDerivCoupledChain:
    def test_first_order_base(self):
        scheme = IterationScheme(a=lambda j: float(j + 1), c_level=lambda l: math.sqrt(2.0 * math.pi))
        bc = deriv_coupled_bound(scheme, "i", 1)
        assert bc.items() == [(NormSymbol.plain(), pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12))]

    def test_order_two_values(self):
        scheme = IterationScheme(a=lambda j: float(j + 1), c_level=lambda l: math.sqrt(2.0 * math.pi))
        bc = deriv_coupled_bound(scheme, "i", 2)
        assert bc.get(NormSymbol.plain()) == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_even_second_derivative_chain_single_term(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(0.2, 2.0, 8)
        scheme = IterationScheme(a=lambda j: float(j + 1), d_level=lambda l: float(d[l]))
        bc = deriv_coupled_bound(scheme, "ii", 2)
        assert bc.items() == [(NormSymbol.plain(), pytest.approx(float(d[0]), rel=1e-13))]

    def test_odd_chain_keeps_symbolic_derivative_norm(self):
        scheme = IterationScheme(a=lambda j: float(j + 1), d_level=lambda l: 3.0)
        bc = deriv_coupled_bound(scheme, "ii", 3)
        assert bc.get(NormSymbol.solution_deriv()) == pytest.approx(3.0)  # D_1 a_0
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(3.0)  # D_1


# 21 positive level values (levels 0..20) per constant family
_LEVELS = st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=21, max_size=21)
_DERIV_RELABEL = {NormSymbol.centered(): NormSymbol.plain(), NormSymbol.solution(): NormSymbol.solution_deriv()}


class TestChainRelabellings:
    """Every chain is the one value-coupled product kernel with its own
    levels and symbols."""

    @given(a=_LEVELS, c=_LEVELS, d=_LEVELS, n=st.integers(1, 20))
    def test_derivative_chain_is_value_chain_one_order_down(self, a, c, d, n):
        scheme = IterationScheme(a=a.__getitem__, c_level=c.__getitem__, d_level=d.__getitem__)
        for mode in ("i", "ii"):
            got = deriv_coupled_bound(scheme, mode, n).terms
            value = value_coupled_bound(scheme, mode, n - 1).terms
            want = {_DERIV_RELABEL.get(sym, sym): coef for sym, coef in value.items()}
            if mode == "ii" and n % 2 == 0:
                # the same products, possibly grouped differently
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
            else:
                assert got == want

    @given(a=_LEVELS, e=_LEVELS, n=st.integers(1, 20))
    def test_lipschitz_chain_is_chain_i_one_derivative_up(self, a, e, n):
        lipschitz = value_coupled_bound(IterationScheme(a=a.__getitem__, e_level=e.__getitem__), "iii", n)
        chain_i = value_coupled_bound(IterationScheme(a=a.__getitem__, c_level=e.__getitem__), "i", n - 1)
        shifted = {NormSymbol.test_deriv(sym.order + 1): coef for sym, coef in chain_i.terms.items()}
        assert lipschitz.terms == shifted

    @pytest.mark.parametrize(
        "chain,mode",
        [(value_coupled_bound, "i"), (value_coupled_bound, "ii"), (value_coupled_bound, "iii"),
         (deriv_coupled_bound, "i"), (deriv_coupled_bound, "ii")],
    )
    def test_each_level_constant_is_evaluated_once(self, chain, mode):
        counts = Counter()

        def counted(name):
            def level(l):
                counts[name, l] += 1
                return 1.5

            return level

        scheme = IterationScheme(
            a=counted("a"), c_level=counted("c"), d_level=counted("d"), e_level=counted("e")
        )
        for n in range(1, 13):
            counts.clear()
            chain(scheme, mode, n)
            assert all(k == 1 for k in counts.values()), (n, counts)


class TestSubsetFamilies:
    def test_examples(self):
        assert enumerate_subsets(3, 0, 1) == [(3,)]
        assert enumerate_subsets(3, 2, 2) == [(1, 3)]
        assert enumerate_subsets(3, 2, 3) == [(1, 2, 3)]

    def test_lexicographic_order(self):
        subs = enumerate_subsets(6, 4, 4)
        assert subs == sorted(subs)

    def test_emptiness_matches_index_set(self):
        for m in range(1, 8):
            for j in range(m + 1):
                for l in range(0, j + 3):
                    nonempty = len(enumerate_subsets(m, j, l)) > 0
                    assert nonempty == (l in index_set(j)), (m, j, l)

    def test_a_coefficient_hand_values(self):
        rng = np.random.default_rng(5)
        scheme, a, b, d, _ = random_mixed_scheme(rng)
        assert a_coefficient(4, 0, 1, scheme) == pytest.approx(1.0)
        assert a_coefficient(3, 2, 2, scheme) == pytest.approx(a[3] * d[3], rel=1e-13)
        assert a_coefficient(3, 2, 3, scheme) == pytest.approx(b[2] * d[2] * b[3] * d[3], rel=1e-13)


class TestMixedChain:
    def test_hand_unrolled_order_one(self):
        rng = np.random.default_rng(9)
        scheme, a, b, d, k0 = random_mixed_scheme(rng)
        bc = mixed_coupled_bound(scheme, 1)
        assert bc.get(NormSymbol.test_deriv(1)) == pytest.approx(d[1], rel=1e-13)
        assert bc.get(NormSymbol.centered()) == pytest.approx(
            d[0] * b[1] * d[1] + a[1] * k0 * d[1], rel=1e-13
        )

    def test_recursion_initial_and_terminal_values(self):
        rng = np.random.default_rng(13)
        scheme, a, b, d, k0 = random_mixed_scheme(rng)
        m = 5
        seq = recursion_oracle(m, scheme)
        assert seq["C1"][m] == pytest.approx(d[m])
        assert seq["C2"][m] == pytest.approx(b[m] * d[m])
        assert seq["C3"][m] == pytest.approx(a[m] * d[m])
        assert seq["C1"][0] == pytest.approx(d[0] * seq["C2"][1] + k0 * seq["C3"][1], rel=1e-13)

    def test_pure_value_coupling_pattern(self):
        # all b_j = 0, a_j = 1, D_j = d: the first-derivative weights
        # alternate, C1 at level m-2 equals d^2 (hand unroll; verified
        # against the independent enumeration path below)
        dval = 1.3
        scheme = IterationScheme(
            a=lambda j: 1.0, b=lambda j: 0.0, d_level=lambda l: dval, k_level=lambda l: 0.7
        )
        m = 6
        seq = recursion_oracle(m, scheme)
        assert seq["C1"][m - 1] == 0.0
        assert seq["C1"][m - 2] == pytest.approx(dval ** 2, rel=1e-13)
        enum = enumerated_mixed_bound(scheme, m)
        assert enum.get(NormSymbol.test_deriv(m - 2)) == pytest.approx(dval ** 2, rel=1e-13)

    def test_degenerate_all_a_zero(self):
        rng = np.random.default_rng(17)
        b = rng.uniform(0.1, 2.0, 16)
        d = rng.uniform(0.1, 2.0, 16)
        scheme = IterationScheme(
            a=lambda j: 0.0, b=lambda j: float(b[j]), d_level=lambda l: float(d[l]),
            k_level=lambda l: 0.5,
        )
        for m in (2, 4, 6):
            bc = mixed_coupled_bound(scheme, m)
            expect = d[0] * math.prod(b[i] * d[i] for i in range(1, m + 1))
            assert bc.get(NormSymbol.centered()) == pytest.approx(expect, rel=1e-12)

    def test_central_identity_enumeration_vs_recursion(self):
        rng = np.random.default_rng(23)
        for m in range(1, 9):
            for _ in range(5):
                scheme, a, b, d, k0 = random_mixed_scheme(rng)
                seq = recursion_oracle(m, scheme)
                for j in range(m):
                    closed = d[m - j] * sum(a_coefficient(m, j, l, scheme) for l in index_set(j))
                    assert seq["C1"][m - j] == pytest.approx(closed, rel=1e-10)

    def test_per_term_homogeneity_in_level_constants(self):
        rng = np.random.default_rng(29)
        scheme, a, b, d, k0 = random_mixed_scheme(rng)
        lam = 1.7
        scaled = IterationScheme(
            a=scheme.a, b=scheme.b,
            d_level=lambda l: lam * d[l],
            k_level=scheme.k_level,
        )
        m = 6
        for j in range(m + 1):
            for l in index_set(j):
                base = a_coefficient(m, j, l, scheme)
                if base == 0.0:
                    continue
                # A-products carry l - 1 level constants
                assert a_coefficient(m, j, l, scaled) == pytest.approx(
                    lam ** (l - 1) * base, rel=1e-12
                )

    def test_monotone_in_every_input(self):
        rng = np.random.default_rng(31)
        scheme, a, b, d, k0 = random_mixed_scheme(rng)
        m = 5
        base = mixed_coupled_bound(scheme, m)
        bump_sets = [
            IterationScheme(a=lambda j: float(a[j]) * (1.3 if j == 2 else 1.0), b=scheme.b,
                            d_level=scheme.d_level, k_level=scheme.k_level),
            IterationScheme(a=scheme.a, b=lambda j: float(b[j]) * (1.3 if j == 3 else 1.0),
                            d_level=scheme.d_level, k_level=scheme.k_level),
            IterationScheme(a=scheme.a, b=scheme.b,
                            d_level=lambda l: float(d[l]) * (1.3 if l == 1 else 1.0),
                            k_level=scheme.k_level),
            IterationScheme(a=scheme.a, b=scheme.b, d_level=scheme.d_level,
                            k_level=lambda l: k0 * 1.3),
        ]
        for bumped_scheme in bump_sets:
            bumped = mixed_coupled_bound(bumped_scheme, m)
            for sym in base.symbols:
                assert bumped.get(sym) >= base.get(sym) * (1.0 - 1e-12)

    def test_enumeration_cap(self):
        scheme = IterationScheme(a=lambda j: 1.0, b=lambda j: 1.0,
                                 d_level=lambda l: 1.0, k_level=lambda l: 1.0)
        with pytest.raises(ValueError):
            enumerated_mixed_bound(scheme, 26)
