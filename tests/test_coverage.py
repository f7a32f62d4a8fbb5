"""Grids that cover what they claim.

build_grid covers [q(1e-8), q(1 - 1e-8)], so each of those quantiles must
leave its tail's mass beyond it: 1e-8 below the lower one and the exact
tail 1 - p of the double p = 1 - 1e-8 above the upper one.  The masses
come from routes independent of the package: scipy.stats for the Pearson
laws, 30-digit mpmath quadrature for vg, prr and quartic.
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from steinbounds import catalog as cat
from steinbounds import solver as sv
from steinbounds import verifier as vf

LOWER, UPPER = sv.COVERAGE_TAIL, 1.0 - sv.COVERAGE_TAIL
TAILS = {"lower": LOWER, "upper": 1.0 - UPPER}  # 1 - p is exact for p >= 1/2
RTOL = 1e-9

GOLDEN = json.loads((Path(__file__).parent / "golden" / "quantiles.json").read_text())
SPECS = list(dict.fromkeys(
    [(fam, tuple(sorted(params.items()))) for fam, params in cat.DEFAULT_SPECS if fam != "mvn"]
    + [(e["family"], tuple(sorted(e["params"].items()))) for e in GOLDEN.values()]
))


def scipy_law(spec):
    p = spec.params
    return {
        "normal": lambda: stats.norm(),
        "gamma": lambda: stats.gamma(p["r"], scale=1.0 / p["lam"]),
        "exponential": lambda: stats.gamma(1.0, scale=1.0 / p["lam"]),
        "beta": lambda: stats.beta(p["alpha"], p["beta"]),
        "arcsine": lambda: stats.beta(0.5, 0.5),
        "student_t": lambda: stats.t(p["d"], scale=p["delta"] / math.sqrt(p["d"])),
        "inverse_gamma": lambda: stats.invgamma(p["alpha"], scale=p["beta"]),
    }[spec.family]()


def mp_density(spec):
    """The prr or quartic density in mpmath arithmetic, from its formula."""
    if spec.family == "prr":
        s = mp.mpf(spec.params["s"])
        c = mp.gamma(s) * mp.sqrt(2 / (s * mp.pi))
        return lambda x: c * mp.exp(-x * x / (2 * s)) * mp.hyperu(s - 1, mp.mpf(1) / 2, x * x / (2 * s))
    c1 = mp.sqrt(2) / (mp.mpf(3) ** mp.mpf(0.25) * mp.gamma(mp.mpf(1) / 4))
    return lambda x: c1 * mp.exp(-x ** 4 / 12)


def vg_tail(spec):
    """The vg tails through the law's normal variance-mean mixture X =
    theta V + sigma sqrt(V) Z, V ~ gamma(r/2, scale 2): each is a quad of
    gamma-weighted normal tails.  (A quad of the density would need K_nu
    of integer order, which costs mpmath about 40 ms a point.)"""
    r, theta, sigma = (mp.mpf(spec.params[k]) for k in ("r", "theta", "sigma"))
    shape = r / 2

    def tail(x, side):
        sign = 1 if side == "lower" else -1

        def weighted(v):
            weight = v ** (shape - 1) * mp.exp(-v / 2) / (mp.gamma(shape) * 2 ** shape)
            return weight * mp.ncdf(sign * (x - theta * v) / (sigma * mp.sqrt(v)))

        return mp.quad(weighted, [0, 1, 10, 100, mp.inf])

    return tail


def tail_mass(spec):
    """tail(x, side): the mass below x ("lower") or above it ("upper")."""
    if spec.ppf is not None:
        law = scipy_law(spec)
        return lambda x, side: float(law.cdf(x) if side == "lower" else law.sf(x))
    if spec.family == "vg":
        exact = vg_tail(spec)
    else:
        density = mp_density(spec)
        lo, hi = spec.support

        def exact(x, side):
            return mp.quad(density, [lo, x] if side == "lower" else [x, hi])

    def tail(x, side):
        with mp.workdps(30):
            return float(exact(mp.mpf(x), side))

    return tail


@pytest.fixture(scope="module", params=SPECS, ids=[f"{f}{dict(p)}" for f, p in SPECS])
def spec(request):
    family, params = request.param
    return cat.make_spec(family, **dict(params))


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_quantile_leaves_its_tail_beyond_it(spec, side):
    check_tail(spec, side, cat.quantile(spec, LOWER if side == "lower" else UPPER))


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_mesh_quantile_leaves_its_tail_beyond_it(spec, side):
    # the mesh's one call for both ends and the median
    check_tail(spec, side, cat.quantiles(spec, (LOWER, 0.5, UPPER))[0 if side == "lower" else 2])


def check_tail(spec, side, q):
    tail, target = tail_mass(spec), TAILS[side]
    got = tail(q, side)
    if abs(got - target) <= RTOL * target:
        return
    # next to a finite support end the doubles may be too far apart to
    # pin the tail to RTOL (1 - 2.2e-16 leaves 0.95e-8 of the arcsine law
    # above it, 1 - 3.3e-16 leaves 1.16e-8): there q must be one of the
    # two doubles around the exact quantile
    near = [tail(np.nextafter(q, -math.inf), side), tail(np.nextafter(q, math.inf), side)]
    assert max(abs(m - got) for m in near) > RTOL * target, (q, got, target)
    assert min(near) <= target <= max(near), (q, got, near, target)


def test_grid_stays_inside_the_support(spec):
    grid = sv.build_mesh(spec).grid
    lo, hi = spec.support
    assert lo < grid[0] and grid[-1] < hi


@pytest.fixture(scope="module")
def traced_sweep():
    """The default sweep with every numeric_cdf call (by spec) and every
    solution recorded."""
    cdf_calls, solutions = {}, []
    numeric_cdf, solve = cat.numeric_cdf, vf.solve

    def counted_cdf(spec, x):
        key = f"{spec.family}({spec.param_string()})"
        cdf_calls[key] = cdf_calls.get(key, 0) + 1
        return numeric_cdf(spec, x)

    def recorded_solve(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(cat, "numeric_cdf", counted_cdf)
        mp_.setattr(vf, "solve", recorded_solve)
        vf.sweep()
    return cdf_calls, solutions


def test_sweep_quantiles_call_no_numeric_cdf(traced_sweep):
    # the Pearson laws invert in closed form and the others tabulate their
    # CDF once per quantile: neither route integrates the CDF point by
    # point, so the adaptive oracle is never called
    cdf_calls, _ = traced_sweep
    assert cdf_calls == {}


def test_sweep_order0_values_are_finite(traced_sweep):
    _, solutions = traced_sweep
    assert len(solutions) == 11 * 3
    for sol in solutions:
        assert np.all(np.isfinite(sol.derivs[0])), (sol.spec.family, sol.spec.params, sol.h.name)
