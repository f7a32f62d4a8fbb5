"""The operators of the solvable families over the parameter windows.

Each law's density p solves the adjoint equation (a2 p)'' - (a1 p)' +
a0 p = 0 of its order-0 operator (for the first-order Pearson laws the
Pearson equation (a1 p)' = a0 p); and the level operators satisfy the
iterated identity d/dx[L_k f] = L_{k+1} f' - T_k f.  Both are checked over
the parameter windows of perfbench's verify_draws workload (selftest
criterion 2), not just at criterion 6's one spec per family.  The identity
holds for any polynomials, because T_k is derived from L_k and L_{k+1}: a
wrong coefficient (delta in place of delta^2 for Student t, or a wrong vg
drift) only the adjoint equation catches (here, and in criterion 6 at the
default specs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbounds import catalog as cat
from steinbounds.verifier import (
    ADJOINT_TOLERANCE,
    check_adjoint_density,
    check_operator_identity,
    default_identity_probes,
    identity_grid,
)

PEARSON_WINDOWS = {
    "normal": {},
    "gamma": {"r": (0.3, 6.0), "lam": (0.3, 3.0)},
    "exponential": {"lam": (0.3, 3.0)},
    "beta": {"alpha": (0.3, 4.0), "beta": (0.3, 4.0)},
    "arcsine": {},
    "student_t": {"d": (5.0, 25.0), "delta": (0.5, 4.0)},
    "inverse_gamma": {"alpha": (4.0, 22.0), "beta": (0.3, 4.0)},
}

# the second-order families and quartic, prr and vg as in criterion 2
WINDOWS = PEARSON_WINDOWS | {
    "prr": {"s": (1.0, 20.0)},
    "vg": {"r": (0.5, 6.0), "theta": (-1.5, 1.5), "sigma": (0.5, 2.0)},
    "quartic": {},
}

IDENTITY_BOUND = 1e-6  # selftest criterion 6


def _params(family):
    window = WINDOWS[family]
    return st.fixed_dictionaries({name: st.floats(lo, hi) for name, (lo, hi) in window.items()})


@pytest.mark.parametrize("family", sorted(WINDOWS))
def test_density_solves_the_adjoint_equation(family):
    # E L f(Z) = 0 for every f makes (a2 p)'' - (a1 p)' + a0 p = 0, which
    # for a first-order law is the Pearson equation (a1 p)' = a0 p
    @settings(max_examples=20, deadline=None)
    @given(params=_params(family))
    def check(params):
        spec = cat.make_spec(family, **params)
        xs = np.linspace(cat.quantile(spec, 0.05), cat.quantile(spec, 0.95), 9)
        res = check_adjoint_density(spec, xs)
        assert res <= ADJOINT_TOLERANCE, (params, res)

    check()


@pytest.mark.parametrize("family", sorted(WINDOWS))
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
