"""The nine acceptance checks, shared by ``steinbounds selftest`` and the
pytest acceptance module.

Each criterion function returns (ok, detail); run_selftest prints one
pass/fail line per criterion and returns overall success.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import catalog as cat
from . import special as sf
from .closedform import bound_for, closed_form_bound
from .engine import (
    IterationScheme,
    NormSymbol,
    deriv_coupled_bound,
    enumerate_subsets,
    enumerated_mixed_bound,
    index_set,
    mixed_coupled_bound,
    value_coupled_bound,
)
from .errors import ValidityError
from .solver import PolyProbe, solve
from .verifier import (
    ADJOINT_TOLERANCE,
    check_adjoint_density,
    check_bessel_inequalities,
    check_mills_ratio,
    check_operator_identity,
    check_quartic_identities,
    default_identity_probes,
    default_sweep_specs,
    identity_grid,
    sweep,
)

RTOL = 1e-10


def _random_mixed_scheme(rng) -> IterationScheme:
    a = rng.uniform(0.05, 2.0, size=32)
    b = rng.uniform(0.05, 2.0, size=32)
    d = rng.uniform(0.05, 2.0, size=32)
    k0 = float(rng.uniform(0.05, 2.0))
    return IterationScheme(
        a=lambda j: float(a[j]),
        b=lambda j: float(b[j]),
        d_level=lambda l: float(d[l]),
        k_level=lambda l: k0,
    )


def criterion_1_oracle_equivalence() -> tuple[bool, str]:
    """Combinatorial chain weights equal the recursion output, m <= 10,
    200 random positive draws, relative error <= 1e-10."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for m in range(1, 11):
        for _ in range(20):
            scheme = _random_mixed_scheme(rng)
            enum = enumerated_mixed_bound(scheme, m)
            rec = mixed_coupled_bound(scheme, m)
            for sym in set(enum.terms) | set(rec.terms):
                x, y = enum.get(sym), rec.get(sym)
                rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
                worst = max(worst, rel)
    return worst <= RTOL, f"200 draws, m<=10, worst rel err {worst:.2e}"


def _compare(engine, closed) -> float:
    worst = 0.0
    for sym in set(engine.terms) | set(closed.terms):
        x, y = engine.get(sym), closed.get(sym)
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-300))
    return worst


def _within_window(fn, *args):
    try:
        return fn(*args)
    except ValidityError:
        return None


def criterion_2_engine_vs_closed_form() -> tuple[bool, str]:
    """Every chain row of every mode table equals the explicit product
    formula, and both routes accept the same orders, all n <= 8 inside the
    row's window, >= 5 draws."""
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = 0
    mismatched = []
    for _ in range(5):
        specs = [
            cat.make_spec("normal"),
            cat.make_spec("gamma", r=rng.uniform(0.3, 6.0), lam=rng.uniform(0.3, 3.0)),
            cat.make_spec("exponential", lam=rng.uniform(0.3, 3.0)),
            cat.make_spec("beta", alpha=rng.uniform(0.3, 4.0), beta=rng.uniform(0.3, 4.0)),
            cat.make_spec("arcsine"),
            cat.make_spec("student_t", d=rng.uniform(5.0, 25.0), delta=rng.uniform(0.5, 4.0)),
            cat.make_spec("inverse_gamma", alpha=rng.uniform(4.0, 22.0), beta=rng.uniform(0.3, 4.0)),
            cat.make_spec("prr", s=float(rng.uniform(1.0, 20.0))),
            cat.make_spec("prr", s=0.5),
            cat.make_spec("vg", r=rng.uniform(0.5, 6.0), theta=0.0, sigma=rng.uniform(0.5, 2.0)),
            cat.make_spec(
                "vg",
                r=rng.uniform(0.5, 6.0),
                theta=float(rng.uniform(-1.5, 1.5)) or 0.3,
                sigma=rng.uniform(0.5, 2.0),
            ),
        ]
        for spec in specs:
            for token, mode in spec.modes.items():
                if mode.chain is None:
                    continue
                for n in range(9 if mode.last is None else min(mode.last, 8) + 1):
                    engine = _within_window(bound_for, spec, n, token)
                    closed = _within_window(closed_form_bound, spec, n, mode.chain)
                    if engine is None and closed is None:
                        continue
                    if engine is None or closed is None:
                        mismatched.append((spec.family, spec.param_string(), token, n))
                        continue
                    worst = max(worst, _compare(engine, closed))
                    cases += 1
    detail = f"{cases} engine/closed-form cases, worst rel err {worst:.2e}"
    if mismatched:
        detail += f"; WINDOWS DIFFER {mismatched[:4]}"
    return worst <= RTOL and not mismatched, detail


def criterion_3_exact_constants() -> tuple[bool, str]:
    checks = []
    normal = cat.make_spec("normal")
    c_norm = value_coupled_bound(normal.scheme, "ii", 1).get(NormSymbol.centered())
    checks.append(("normal first-derivative 2", abs(c_norm - 2.0), 1e-14))
    vg = cat.make_spec("vg", r=3.0, theta=0.0, sigma=1.0)
    c_vg = value_coupled_bound(vg.scheme, "ii", 1).get(NormSymbol.centered())
    checks.append(("vg theta=0 first-derivative 2/(sigma^2 r)", abs(c_vg - 2.0 / 3.0), 1e-14))
    prr = cat.make_spec("prr", s=1.0)
    c_prr = deriv_coupled_bound(prr.scheme, "i", 1).get(NormSymbol.plain())
    checks.append(("prr first-derivative sqrt(2 pi)", abs(c_prr - math.sqrt(2.0 * math.pi)), 1e-14))
    c_gam = bound_for(cat.make_spec("gamma", r=1.0, lam=1.0), 1, "onestep").get(NormSymbol.test_deriv(1))
    checks.append(("gamma one-step e^2/2 at (1,1)", abs(c_gam - math.e ** 2 / 2.0) / (math.e ** 2 / 2.0), 1e-12))
    quartic = cat.make_spec("quartic")
    lip = [
        bound_for(quartic, n, token).get(NormSymbol.test_deriv(1))
        for n, token in ((0, "lipschitz"), (1, "lipschitz"), (2, "lipschitz"), (2, "lipschitz_iterated"))
    ]
    expect = [
        math.sqrt(3.0 * math.pi) / 2.0,
        math.sqrt(2.0) * 3.0 ** 0.25 * sf.gamma_fn(0.25),
        4.0,
        8.0,
    ]
    for i, (got, want) in enumerate(zip(lip, expect)):
        checks.append((f"quartic lipschitz[{i}]", abs(got - want) / want, 1e-14))
    mvn = bound_for(cat.make_spec("mvn", dim=2), 2, "iterated")
    checks.append(("mvn iterate sqrt(pi/2)", abs(mvn.get(NormSymbol.test_deriv(1)) - math.sqrt(math.pi / 2.0)), 1e-14))
    checks.append(("mvn iterate pi/2", abs(mvn.get(NormSymbol.centered()) - math.pi / 2.0), 1e-14))
    bad = [name for name, err, tol in checks if err > tol]
    worst = max(err for _, err, _ in checks)
    return not bad, f"{len(checks)} constants, worst err {worst:.2e}" + (f"; FAILED {bad}" if bad else "")


_EXPECTED_SWEEP_SKIPS = {
    ("inverse_gamma", 4),  # order window alpha > 2n + 1 at alpha = 9
    ("prr", 0),  # no order-0 estimate in the catalog
}


def criterion_4_sweep() -> tuple[bool, str]:
    reports = sweep()
    failures, bad_skips = [], []
    for r in reports:
        if r.error is not None:
            if (r.family, r.n) not in _EXPECTED_SWEEP_SKIPS:
                bad_skips.append((r.family, r.n, r.error))
        elif not r.passed:
            failures.append((r.family, r.param_string, r.n, r.test_fn, r.margin))
    checked = sum(1 for r in reports if r.error is None)
    detail = f"{checked} cells verified, {len(reports) - checked} window-skipped"
    if failures:
        detail += f"; VIOLATIONS {failures[:4]}"
    if bad_skips:
        detail += f"; UNEXPECTED SKIPS {bad_skips[:4]}"
    min_rel_margin = min(
        (r.margin / r.bound_value for r in reports if r.error is None), default=math.inf
    )
    detail += f", min margin/bound {min_rel_margin:.3e}"
    return not failures and not bad_skips, detail


def criterion_5_probe_regressions() -> tuple[bool, str]:
    errs = {}
    normal = cat.make_spec("normal")
    sol = solve(normal, PolyProbe((0.0, 1.0), "x"))
    errs["normal h=x"] = float(np.max(np.abs(sol.derivs[0] + 1.0)))
    sol = solve(normal, PolyProbe((-1.0, 0.0, 1.0), "x2-1"))
    errs["normal h=x^2-1"] = float(np.max(np.abs(sol.derivs[0] + sol.grid)))
    gam = cat.make_spec("gamma", r=2.0, lam=1.0)
    sol = solve(gam, PolyProbe((-2.0, 1.0), "x-r/lam"))
    errs["gamma h=x-r/lam"] = float(np.max(np.abs(sol.derivs[0] + 1.0)))
    worst = max(errs.values())
    return worst <= 1e-8, "max grid errors " + ", ".join(f"{k}: {v:.2e}" for k, v in errs.items())


def criterion_6_operator_identities() -> tuple[bool, str]:
    worst = worst_adjoint = 0.0
    worst_case = worst_adjoint_family = ""
    for spec in default_sweep_specs():
        grid = identity_grid(spec)
        for k in range(4):
            for probe in default_identity_probes():
                res = check_operator_identity(spec, k, probe, grid)
                if res > worst:
                    worst, worst_case = res, f"{spec.family} level {k} probe {probe.name}"
        adjoint = check_adjoint_density(spec, grid)
        if not adjoint <= worst_adjoint:  # a NaN residual is the worst
            worst_adjoint, worst_adjoint_family = adjoint, spec.family
    ok = worst <= 1e-6 and worst_adjoint <= ADJOINT_TOLERANCE
    detail = (
        f"worst residual {worst:.2e} ({worst_case}); "
        f"adjoint density equation worst {worst_adjoint:.2e} ({worst_adjoint_family})"
    )
    return ok, detail


def criterion_7_inequality_grids() -> tuple[bool, str]:
    mills = check_mills_ratio()
    triples = ((1.0, 1.0, 0.5), (0.25, 2.0, 1.0), (2.5, 1.5, -0.75))
    bessel = [check_bessel_inequalities(nu, a, b) for nu, a, b in triples]
    quart = check_quartic_identities()
    ok = mills["pass"] and all(b["pass"] for b in bessel) and quart["pass"]
    bessel_margins = ", ".join(f"{min(b['min_margins']):.2e}" for b in bessel)
    detail = (
        f"mills margins ({mills['min_lower_margin']:.2e}, {mills['min_upper_margin']:.2e}); "
        f"bessel min margins [{bessel_margins}]; "
        f"quartic: density {quart['density_identity_error']:.1e}, "
        f"mass {quart['partial_mass_error']:.1e}, min-ineq {quart['min_inequality_margin']:.2e}"
    )
    return ok, detail


def criterion_8_growth_rates() -> tuple[bool, str]:
    # Scaled one-step gamma coefficients: flat in n after multiplying by
    # sqrt(r + n).  The raw scaled level sits near 2 sqrt(2 pi) ~ 5.01; the
    # [0.3, 3] band is asserted on the sequence normalized at n = 1 (the
    # growth-rate content), with the raw range reported alongside.
    r = 1.0
    gamma = cat.make_spec("gamma", r=r, lam=1.0)
    gam = [bound_for(gamma, n, "onestep").get(NormSymbol.test_deriv(n)) * math.sqrt(r + n) for n in range(1, 51)]
    gam_ratios = [q / gam[0] for q in gam]
    gam_ok = all(0.3 <= q <= 3.0 for q in gam_ratios)

    # Symmetric vg: the top odd-order coefficient decays one full power
    # faster; scaled by (r + n) and normalized the same way.
    rv, sigma = 3.0, 1.0
    spec = cat.make_spec("vg", r=rv, theta=0.0, sigma=sigma)
    vg_scaled = []
    for n in range(1, 51, 2):
        coeffs = closed_form_bound(spec, n, "ii")
        top_sym = NormSymbol.centered() if n == 1 else NormSymbol.test_deriv(n - 1)
        vg_scaled.append(coeffs.get(top_sym) * (rv + n))
    vg_ratios = [q / vg_scaled[0] for q in vg_scaled]
    vg_ok = all(0.3 <= q <= 3.0 for q in vg_ratios)

    detail = (
        f"gamma scaled raw [{min(gam):.3f}, {max(gam):.3f}], normalized "
        f"[{min(gam_ratios):.3f}, {max(gam_ratios):.3f}]; vg scaled raw "
        f"[{min(vg_scaled):.3f}, {max(vg_scaled):.3f}], normalized "
        f"[{min(vg_ratios):.3f}, {max(vg_ratios):.3f}]"
    )
    return gam_ok and vg_ok, detail


def criterion_9_subset_emptiness() -> tuple[bool, str]:
    checked = 0
    for m in range(1, 11):
        for j in range(0, m + 1):
            lo = m - j
            pool = list(range(lo, m + 1))
            sizes_with_members = set()
            for mask in range(1 << len(pool)):
                members = {pool[i] for i in range(len(pool)) if mask >> i & 1}
                if lo not in members or m not in members:
                    continue
                if all(i in members or (i + 1) in members for i in range(lo, m)):
                    sizes_with_members.add(len(members))
            for l in range(0, j + 3):
                nonempty = len(enumerate_subsets(m, j, l)) > 0
                if nonempty != (l in index_set(j)):
                    return False, f"emptiness law fails at m={m}, j={j}, l={l}"
                if nonempty != (l in sizes_with_members):
                    return False, f"brute force disagrees at m={m}, j={j}, l={l}"
                checked += 1
    return True, f"{checked} (m, j, l) triples brute-forced"


CRITERIA = (
    ("1 oracle equivalence (mixed chain)", criterion_1_oracle_equivalence),
    ("2 engine vs closed forms", criterion_2_engine_vs_closed_form),
    ("3 exact constants", criterion_3_exact_constants),
    ("4 no-false-theorem sweep", criterion_4_sweep),
    ("5 probe regressions", criterion_5_probe_regressions),
    ("6 iterated-operator identities", criterion_6_operator_identities),
    ("7 analytic inequality grids", criterion_7_inequality_grids),
    ("8 growth-rate properties", criterion_8_growth_rates),
    ("9 subset-family emptiness law", criterion_9_subset_emptiness),
)


def run_selftest() -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        start = time.monotonic()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - start
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)")
    print("selftest:", "all criteria passed" if all_ok else "FAILURES present")
    return all_ok
