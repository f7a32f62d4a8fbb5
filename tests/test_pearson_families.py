"""The level-k operators of the first-order Pearson families.

Each of these laws solves the Pearson equation (a1 p)' = a0 p, where
(a1, a0) are the level-0 operator coefficients; and the level operators
satisfy the iterated identity d/dx[L_k f] = L_{k+1} f' - T_k f.  Both are
checked over the parameter windows of perfbench's verify_draws workload
(selftest criterion 2), not just at criterion 6's one spec per family.
The identity alone would not catch a wrong constant term in the leading
coefficient (delta in place of delta^2 for Student t, say); the Pearson
equation does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbounds import catalog as cat
from steinbounds.solver import _FD6_CENTRAL
from steinbounds.verifier import check_operator_identity, default_identity_probes, identity_grid

PEARSON_WINDOWS = {
    "normal": {},
    "gamma": {"r": (0.3, 6.0), "lam": (0.3, 3.0)},
    "exponential": {"lam": (0.3, 3.0)},
    "beta": {"alpha": (0.3, 4.0), "beta": (0.3, 4.0)},
    "arcsine": {},
    "student_t": {"d": (5.0, 25.0), "delta": (0.5, 4.0)},
    "inverse_gamma": {"alpha": (4.0, 22.0), "beta": (0.3, 4.0)},
}

IDENTITY_BOUND = 1e-6  # selftest criterion 6


def _params(family):
    window = PEARSON_WINDOWS[family]
    return st.fixed_dictionaries({name: st.floats(lo, hi) for name, (lo, hi) in window.items()})


@pytest.mark.parametrize("family", sorted(PEARSON_WINDOWS))
def test_level_zero_operator_solves_the_pearson_equation(family):
    @settings(max_examples=20)
    @given(params=_params(family))
    def check(params):
        spec = cat.make_spec(family, **params)
        a2, a1, a0 = spec.op_coeffs(0)
        assert a2 is None and spec.operator_order == 1
        lo, hi = spec.support
        q05, q95 = cat.quantile(spec, 0.05), cat.quantile(spec, 0.95)
        xs = np.linspace(q05, q95, 9)
        # a step well inside the spread of the law and the distance to a
        # finite support edge, so the stencil resolves the density
        scale = np.minimum(q95 - q05, np.minimum(xs - lo, hi - xs))
        step = 1e-3 * scale
        lhs = sum(
            w * a1(xs + off * step) * spec.density(xs + off * step)
            for w, off in zip(_FD6_CENTRAL, range(-3, 4))
            if w != 0.0
        ) / step
        rhs = a0(xs) * spec.density(xs)
        size = np.abs(a1(xs) * spec.density(xs)) / scale + np.abs(rhs)
        assert np.all(np.abs(lhs - rhs) <= 1e-8 * size), (params, np.max(np.abs(lhs - rhs) / size))

    check()


@pytest.mark.parametrize("family", sorted(PEARSON_WINDOWS))
def test_iterated_operator_identity_over_the_parameter_window(family):
    @settings(max_examples=10)
    @given(params=_params(family))
    def check(params):
        spec = cat.make_spec(family, **params)
        grid = identity_grid(spec)
        for k in range(4):
            for probe in default_identity_probes():
                res = check_operator_identity(spec, k, probe, grid)
                assert res <= IDENTITY_BOUND, (params, k, probe.name, res)

    check()
