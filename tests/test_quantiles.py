"""Quantiles and the scalar density callbacks they integrate.

The solver grids of every verification come from q(1e-8), q(0.5) and
q(1 - 1e-8), asked of catalog.quantiles in one call, so those of the
mesh and those of single quantile calls are pinned bit for bit
(tests/golden/quantiles.json), and every scalar density branch (Python
float, numpy scalar or 0-d array) must return exactly what the array
branch returns at the same point.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinbounds import catalog as cat
from steinbounds import special as sf
from steinbounds.errors import NumericError

GOLDEN = json.loads((Path(__file__).parent / "golden" / "quantiles.json").read_text())

# The parameter window of every solvable family: those of perfbench's
# verify_draws workload (selftest criterion 2), beta's [0.3, 4] for both
# parameters, and none for the laws without parameters.
SCALAR_BRANCH_WINDOWS = {
    "normal": {},
    "gamma": {"r": (0.3, 6.0), "lam": (0.3, 3.0)},
    "exponential": {"lam": (0.3, 3.0)},
    "beta": {"alpha": (0.3, 4.0), "beta": (0.3, 4.0)},
    "arcsine": {},
    "student_t": {"d": (5.0, 25.0), "delta": (0.5, 4.0)},
    "inverse_gamma": {"alpha": (4.0, 22.0), "beta": (0.3, 4.0)},
    "vg": {"r": (0.5, 6.0), "theta": (-1.5, 1.5), "sigma": (0.5, 2.0)},
    "prr": {"s": (1.0, 20.0)},
    "quartic": {},
}
SOLVABLE = sorted({fam for fam, params in cat.DEFAULT_SPECS if cat.make_spec(fam, **params).solvable})

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


MESH_PS = (1e-8, 0.5, 1.0 - 1e-8)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_mesh_quantiles_are_bit_identical_to_golden(key):
    entry = GOLDEN[key]
    spec = cat.make_spec(entry["family"], **entry["params"])
    assert {str(p): q.hex() for p, q in zip(MESH_PS, cat.quantiles(spec, MESH_PS))} == entry["mesh"]
    # a p's quantile depends on the table's bracket, not on the other ps
    assert cat.quantiles(spec, (MESH_PS[0], MESH_PS[2])) == cat.quantiles(spec, MESH_PS)[::2]


@pytest.mark.parametrize("key", [k for k in sorted(GOLDEN) if GOLDEN[k]["family"] in ("vg", "prr", "quartic")])
def test_one_table_agrees_with_single_calls(key):
    # one table for all three against one table each: the measured worst
    # is 1.7e-16 of the span, vg(0.7, -1.2, 0.6)
    entry = GOLDEN[key]
    spec = cat.make_spec(entry["family"], **entry["params"])
    together = cat.quantiles(spec, MESH_PS)
    alone = [cat.quantile(spec, p) for p in MESH_PS]
    span = together[2] - together[0]
    assert max(abs(a - b) for a, b in zip(together, alone)) <= 1e-15 * span


def test_quantiles_checks_every_p():
    spec = cat.make_spec("quartic")
    for ps in ((0.5, 1.0), (0.0, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="0 < p < 1"):
            cat.quantiles(spec, ps)


def test_scalar_branch_windows_cover_every_solvable_family():
    assert {fam for fam, _ in cat.DEFAULT_SPECS} == set(cat.REGISTRY)
    assert sorted(SCALAR_BRANCH_WINDOWS) == SOLVABLE


@pytest.mark.parametrize("family", SOLVABLE)
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
        # an array inside the support takes the expression as it is (the
        # mesh route, 2-D like the mesh nodes); one that also reaches
        # outside takes the mask, and reads 0.0 there.  A law on the whole
        # line has no point outside its support.
        assert spec.density(np.full((2, 3), x)).tobytes() == np.full((2, 3), scalar).tobytes()
        lo, hi = spec.support
        if math.isfinite(lo) or math.isfinite(hi):
            outside = lo - 1.0 if math.isfinite(lo) else hi + 1.0
            assert spec.density(np.array([x, outside])).tobytes() == np.array([scalar, 0.0]).tobytes()

    check()


def test_non_finite_cdf_integral_raises():
    nan_tail = replace(cat.make_spec("normal"), pdf=lambda x: np.where(x < 1.0, sf.norm_pdf(x), np.nan), ppf=None)
    assert cat.numeric_cdf(nan_tail, 0.5) == pytest.approx(0.6914624612740131)
    with pytest.raises(NumericError, match="CDF integral"):
        cat.numeric_cdf(nan_tail, 2.0)


def test_quantile_of_a_density_without_unit_mass_raises():
    # a density of mass 0.5 has no quantiles: the tabulated CDF checks the
    # mass (ppf=None makes the normal law take the tabulated route)
    half = replace(cat.make_spec("normal"), pdf=lambda x: 0.5 * sf.norm_pdf(x), ppf=None)
    for p in (0.25, 0.75):
        with pytest.raises(NumericError, match="integrates to 0.5"):
            cat.quantile(half, p)


def test_table_quantile_of_the_normal_law_matches_ndtri():
    # the tabulated route against the closed form, both tails and the middle
    spec = cat.make_spec("normal")
    table = replace(spec, ppf=None)
    for p in (1e-8, 0.025, 0.5, 0.975, 1.0 - 1e-8):
        assert cat.quantile(table, p) == pytest.approx(cat.quantile(spec, p), rel=1e-13, abs=1e-15)


# A skewed vg law of perfbench's verify_draws stream whose mass lies right
# of the origin: one QAGI call over (-inf, x] misses it for x >= 64 unless
# the range is split at the origin, the density's kink.
SKEWED_VG = {"r": 3.12572, "theta": 0.522933, "sigma": 0.733409}
DOUBLINGS = [2.0 ** k for k in range(11)]  # 1, 2, ..., 1024: the bracket search


class TestVgCdfSplitAtTheOrigin:
    def test_cdf_is_monotone_and_reaches_the_mass(self):
        spec = cat.make_spec("vg", **SKEWED_VG)
        cdf = [cat.numeric_cdf(spec, x) for x in DOUBLINGS]
        assert cdf == sorted(cdf)
        assert cat.numeric_cdf(spec, 64.0) >= 1.0 - 1e-8

    def test_bracket_stops_at_the_mass(self):
        spec = cat.make_spec("vg", **SKEWED_VG)
        assert cat._bracket(spec, 1.0 - 1e-8, 1.0 - 1e-8)[1] <= 64.0

    @settings(max_examples=25)
    @given(params=st.fixed_dictionaries(
        {name: st.floats(lo, hi) for name, (lo, hi) in SCALAR_BRANCH_WINDOWS["vg"].items()}
    ))
    @example(params=SKEWED_VG)
    def test_cdf_is_monotone_over_the_draws_window(self, params):
        # each value is good to QUADPACK's default 1.49e-8, so two of them
        # may cross by twice that once the CDF has reached 1 (vg(1, 0, 1)
        # reads 1.0 at 32 and 1 - 4.6e-14 at 64); a missed mass drops ~1
        spec = cat.make_spec("vg", **params)
        cdf = [cat.numeric_cdf(spec, x) for x in DOUBLINGS]
        assert all(b >= a - 3e-8 for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] >= 1.0 - 1e-8


class TestVgFarTail:
    """kve is NaN for arguments beyond about 1e9, where the exponential
    factor of the density has long underflowed to 0: the density is 0
    there, in both branches, and so is the CDF's last piece."""

    FAR = [-1e12, -1.07e9, -1e9, 1e9, 1.07e9, 1e12]

    def test_scalar_branch(self):
        spec = cat.make_spec("vg", **SKEWED_VG)
        assert [spec.density(x) for x in self.FAR] == [0.0] * len(self.FAR)

    def test_array_branch(self):
        spec = cat.make_spec("vg", **SKEWED_VG)
        assert spec.density(np.array(self.FAR)).tolist() == [0.0] * len(self.FAR)

    def test_cdf_stays_finite(self):
        spec = cat.make_spec("vg", **SKEWED_VG)
        assert 1.0 - 1e-8 <= cat.numeric_cdf(spec, 1.07e9) <= 1.0


@pytest.mark.parametrize("family,params", [(f, p) for f, p in cat.DEFAULT_SPECS if f != "mvn"])
def test_cdf_reaches_the_mass_far_from_the_bulk(family, params):
    # one QUADPACK piece from the lower end to 1e6 finds no mass (it read 0
    # for gamma(2, 1) and prr(1)): the range is split at the doublings
    spec = cat.make_spec(family, **params)
    for x in (64.0, 1e6, 1.07e9):
        assert 1.0 - 1e-8 <= cat.numeric_cdf(spec, x) <= 1.0, x
