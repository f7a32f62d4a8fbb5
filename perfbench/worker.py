"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line.  The
set-up clock starts at the first statement, before ``steinbounds`` (and with
it numpy and scipy) is imported, and stops when the workload's specs and
inputs are built.  Output checks run after the timed region.

    python3 perfbench/worker.py --workload sweep --seed 1 [--trace] [--setup-only]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

MAX_PROBLEMS = 10  # failure descriptions kept per pass


def setup(sb, workload: str, seed: int):
    if workload == "sweep":
        return None  # sweep() builds its default specs itself
    if workload == "verify_draws":
        return wl.verify_draws(sb, seed)
    return wl.coeff_specs(sb)


def run_sweep(sb, _inputs, _tracer, clock) -> dict:
    """One sweep() call.  It has no operations visible from outside, so the
    host-speed probes wait for a boundary at its solve() calls, one per
    (spec, test function)."""
    import steinbounds.verifier as verifier

    solve = verifier.solve

    def solve_after_boundary(*args, **kwargs):
        clock.boundary()
        return solve(*args, **kwargs)

    verifier.solve = solve_after_boundary
    try:
        clock.start()
        reports = sb.sweep()
        run_s, run_scaled_s = clock.stop()
    finally:
        verifier.solve = solve
    attempted, failed, problems, drift = wl.check_sweep(reports, wl.load_reference("sweep"))
    return {
        "run_s": run_s,
        "run_scaled_s": run_scaled_s,
        "latencies": [],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "checks": {"empirical_max_rel_drift": drift, "cells": len(reports)},
    }


def run_verify_draws(sb, draws, tracer, clock) -> dict:
    latencies, problems = [], []
    failed = 0
    clock.start()
    for op, (spec, n, h) in enumerate(draws):
        clock.boundary()
        if tracer is not None:
            tracer.op = op
        t1 = time.perf_counter()
        try:
            ok = sb.verify(spec, n, h).passed is True
            why = "did not pass"
        except Exception as exc:  # a raised error is a failed operation
            ok, why = False, repr(exc)
        latencies.append(time.perf_counter() - t1)
        if not ok:
            failed += 1
            problems.append(f"{spec.family}({spec.param_string()}) n={n} {h.name}: {why}")
    run_s, run_scaled_s = clock.stop()
    return {
        "run_s": run_s,
        "run_scaled_s": run_scaled_s,
        "latencies": latencies,
        "attempted": len(draws),
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "checks": {},
    }


def run_coeff_table(sb, specs, tracer, clock) -> dict:
    """Probe bound_for on every (spec, mode token, n <= 18) cell; the
    accepted cells are the operations.  Rejected probes are cheap and not
    operations: a ValidityError is a window rejection, a plain ValueError
    is the untyped rejection noted in perfbench/README.md."""
    from steinbounds.closedform import MODE_TOKENS

    latencies, results, errors = [], {}, {}
    rejected = {"typed": 0, "untyped": 0}
    probe = 0  # operation id of the traced spans: one per probe
    clock.start()
    for spec in specs:
        for token in MODE_TOKENS:
            for n in range(wl.COEFF_MAX_ORDER + 1):
                if tracer is not None:
                    tracer.op = probe
                probe += 1
                clock.boundary()
                t1 = time.perf_counter()
                try:
                    coeffs = sb.bound_for(spec, n, token)
                except sb.ValidityError:
                    rejected["typed"] += 1
                    continue
                except ValueError:
                    rejected["untyped"] += 1
                    continue
                except Exception as exc:  # a raised error is a failed operation
                    errors[wl.cell_key(spec, token, n)] = repr(exc)
                    coeffs = None
                latencies.append(time.perf_counter() - t1)
                results[wl.cell_key(spec, token, n)] = coeffs
    run_s, run_scaled_s = clock.stop()
    reference = wl.load_reference("coeff_table")
    problems = []
    for key in sorted(set(results) | set(reference)):
        if key in errors:
            problems.append(f"{key}: {errors[key]}")
        elif key not in results:
            problems.append(f"{key}: rejected, but the reference accepts it")
        elif key not in reference:
            problems.append(f"{key}: accepted, but not in the reference")
        elif wl.coeff_mismatch(wl.coeff_dict(results[key]), reference[key]):
            problems.append(f"{key}: {wl.coeff_dict(results[key])} != {reference[key]}")
    return {
        "run_s": run_s,
        "run_scaled_s": run_scaled_s,
        "latencies": latencies,
        "attempted": max(len(results), len(reference)),
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS],
        "checks": {"accepted_cells": len(results), "rejected": rejected},
    }


RUNS = {"sweep": run_sweep, "verify_draws": run_verify_draws, "coeff_table": run_coeff_table}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(RUNS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file for the traced pass's spans")
    args = parser.parse_args()

    import steinbounds as sb

    inputs = setup(sb, args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    import calib  # after the set-up clock stops, before tracing wraps quad

    out = {"setup_s": setup_s, "setup_probe_s": calib.probe_s(), "steinbounds_file": sb.__file__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        out.update(RUNS[args.workload](sb, inputs, tracer, calib.HostClock()))
        if tracer is not None:
            out["trace"] = tracer.summary()
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
