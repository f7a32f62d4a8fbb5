"""Quantiles and the scalar density callbacks they integrate.

The solver grids of every verification come from q(1e-8), q(0.5) and
q(1 - 1e-8), so the quantiles are pinned bit for bit
(tests/golden/quantiles.json), and every scalar density branch (Python
float, numpy scalar or 0-d array) must return exactly what the array
branch returns at the same point.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinbounds import catalog as cat
from steinbounds import special as sf
from steinbounds.errors import NumericError

GOLDEN = json.loads((Path(__file__).parent / "golden" / "quantiles.json").read_text())

# The families whose density has a Python-float branch, over the parameter
# ranges of perfbench's verify_draws workload (selftest criterion 2).
SCALAR_BRANCH_WINDOWS = {
    "gamma": {"r": (0.3, 6.0), "lam": (0.3, 3.0)},
    "exponential": {"lam": (0.3, 3.0)},
    "student_t": {"d": (5.0, 25.0), "delta": (0.5, 4.0)},
    "inverse_gamma": {"alpha": (4.0, 22.0), "beta": (0.3, 4.0)},
    "vg": {"r": (0.5, 6.0), "theta": (-1.5, 1.5), "sigma": (0.5, 2.0)},
}

POINTS = st.one_of(
    st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
    st.floats(min_value=1e-300, max_value=1e-3),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12]),
)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_quantiles_are_bit_identical_to_golden(key):
    entry = GOLDEN[key]
    spec = cat.make_spec(entry["family"], **entry["params"])
    got = {p: cat.quantile(spec, float(p)).hex() for p in entry["quantiles"]}
    assert got == entry["quantiles"]


@pytest.mark.parametrize("family", sorted(SCALAR_BRANCH_WINDOWS))
def test_scalar_density_branch_equals_array_branch(family):
    window = SCALAR_BRANCH_WINDOWS[family]
    params = st.fixed_dictionaries({name: st.floats(lo, hi) for name, (lo, hi) in window.items()})

    @given(params=params, x=POINTS)
    def check(params, x):
        spec = cat.make_spec(family, **params)
        scalar = spec.density(x)
        assert type(scalar) is float
        assert scalar == float(spec.density(np.array([x]))[0])
        for zero_d in (np.float64(x), np.array(x)):
            value = spec.density(zero_d)
            assert type(value) is float and value == scalar

    check()


def test_quantile_beyond_the_mass_raises():
    # a density of mass 0.5: its CDF never reaches 0.75, so no bracket exists
    half = replace(cat.make_spec("normal"), pdf=lambda x: 0.5 * sf.norm_pdf(x))
    assert cat.quantile(half, 0.25) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(NumericError, match="no right bracket"):
        cat.quantile(half, 0.75)
