"""Workload inputs and output checks.

Every function here takes the ``steinbounds`` package as an argument, so a
pass imports the package exactly once, inside its timed set-up.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The eleven default specs of ``steinbounds catalog`` plus vg theta=0.5, the
# mixed-coupled (lemma25) family that dominates bound-algebra cost.
COEFF_SPECS = (
    ("normal", {}),
    ("gamma", {"r": 2.0, "lam": 1.0}),
    ("exponential", {"lam": 1.0}),
    ("beta", {"alpha": 2.0, "beta": 3.0}),
    ("arcsine", {}),
    ("student_t", {"d": 9.0, "delta": 3.0}),
    ("inverse_gamma", {"alpha": 9.0, "beta": 2.0}),
    ("prr", {"s": 1.0}),
    ("vg", {"r": 3.0, "theta": 0.0, "sigma": 1.0}),
    ("quartic", {}),
    ("mvn", {"dim": 2}),
    ("vg", {"r": 3.0, "theta": 0.5, "sigma": 1.0}),
)
COEFF_MAX_ORDER = 18

# verify_draws: parameter ranges of selftest criterion 2, restricted to the
# families with parameters so that no spec repeats (normal and arcsine have
# none; prr s=0.5 leaves a symbolic ||f'|| term that verify cannot price).
DRAW_CLASSES = {
    "gamma": ("gamma", {"r": (0.3, 6.0), "lam": (0.3, 3.0)}),
    "exponential": ("exponential", {"lam": (0.3, 3.0)}),
    "beta": ("beta", {"alpha": (0.3, 4.0), "beta": (0.3, 4.0)}),
    "student_t": ("student_t", {"d": (5.0, 25.0), "delta": (0.5, 4.0)}),
    "inverse_gamma": ("inverse_gamma", {"alpha": (4.0, 22.0), "beta": (0.3, 4.0)}),
    "prr": ("prr", {"s": (1.0, 20.0)}),
    "vg0": ("vg", {"r": (0.5, 6.0), "theta": (0.0, 0.0), "sigma": (0.5, 2.0)}),
    "vg": ("vg", {"r": (0.5, 6.0), "theta": (-1.5, 1.5), "sigma": (0.5, 2.0)}),
}
DRAW_ROUNDS = 3  # draws per class in one pass
DRAW_ORDERS = range(5)  # the orders of the default sweep
DRAW_FREQ = (0.5, 2.5)


def _strata(rng, k: int):
    """k points in [0, 1), one in each stratum [i/k, (i+1)/k), shuffled."""
    return (rng.permutation(k) + rng.uniform(size=k)) / k


def verify_draws(sb, seed: int) -> list:
    """The seeded stream of (spec, n, h) for single verify calls: a fresh
    spec per call, an order in the spec's window, a sine or cosine test
    function of random frequency.

    Draws are stratified (Latin hypercube per class: each parameter, the
    order and the frequency take one value from each of DRAW_ROUNDS equal
    slices of their range; sine and cosine alternate), so every seed gives
    the same mix of cheap and expensive cells and run times compare
    across seeds.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    by_class = []
    for family, ranges in DRAW_CLASSES.values():
        k = DRAW_ROUNDS
        params = {name: lo + (hi - lo) * _strata(rng, k) for name, (lo, hi) in ranges.items()}
        order_u, freq_u = _strata(rng, k), _strata(rng, k)
        sine = rng.permutation(k) % 2 == 0
        draws = []
        for i in range(k):
            spec = sb.make_spec(family, **{name: float(v[i]) for name, v in params.items()})
            # The window comes from the catalog, not from probing bound_for,
            # so that set-up does none of the timed calls' bound algebra.
            cap = spec.max_order(spec.default_mode)
            first = 1 if spec.coupling_kind == "deriv" else 0
            window = [n for n in DRAW_ORDERS if n >= first and (cap is None or n <= cap)]
            n = window[int(order_u[i] * len(window))]
            freq = DRAW_FREQ[0] + (DRAW_FREQ[1] - DRAW_FREQ[0]) * float(freq_u[i])
            draws.append((spec, n, sb.SineTest(freq) if sine[i] else sb.CosineTest(freq)))
        by_class.append(draws)
    return [d for round_ in zip(*by_class) for d in round_]


def coeff_specs(sb) -> list:
    return [sb.make_spec(fam, **params) for fam, params in COEFF_SPECS]


def cell_key(spec, token: str, n: int) -> str:
    return f"{spec.family}({spec.param_string()})|{token}|{n}"


def coeff_dict(coeffs) -> dict[str, float]:
    return {sym.label: value for sym, value in coeffs.items()}


def sweep_key(report) -> str:
    return f"{report.family}({report.param_string})|{report.test_fn}|{report.n}"


def sweep_row(report) -> dict:
    return {
        "skip": report.error is not None,
        "pass": report.passed,
        "bound": None if report.bound_value is None else f"{report.bound_value:.10g}",
        "empirical": report.empirical_sup,
    }


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def check_sweep(reports, reference: dict) -> tuple[int, int, list[str], float]:
    """(attempted, failed, problems, empirical drift) against the reference.

    A cell fails when it raised, did not pass, changed skip status or
    verdict, or changed its analytic bound at 10 significant digits.  The
    empirical column is only measured: its largest relative drift is
    reported, because numerical work on the solver may legitimately move it.
    """
    rows = {sweep_key(r): sweep_row(r) for r in reports}
    problems = []
    drift = 0.0
    for key in sorted(set(rows) | set(reference)):
        got, want = rows.get(key), reference.get(key)
        if got is None or want is None:
            problems.append(f"{key}: {'missing' if got is None else 'not in reference'}")
            continue
        if got["skip"] != want["skip"] or got["pass"] != want["pass"] or got["bound"] != want["bound"]:
            problems.append(f"{key}: got {got} want {want}")
        elif not got["skip"] and got["pass"] is not True:
            problems.append(f"{key}: did not pass")
        if got["empirical"] is not None and want["empirical"] is not None:
            drift = max(drift, abs(got["empirical"] - want["empirical"]) / max(abs(want["empirical"]), 1e-300))
    attempted = max(len(rows), len(reference))
    return attempted, len(problems), problems, drift


def coeff_mismatch(got: dict[str, float], want: dict[str, float], rtol: float = 1e-10) -> bool:
    """True when any coefficient differs by more than rtol (a missing norm
    symbol counts as 0)."""
    return any(
        not math.isclose(got.get(label, 0.0), want.get(label, 0.0), rel_tol=rtol, abs_tol=0.0)
        for label in set(got) | set(want)
    )
