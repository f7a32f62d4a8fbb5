"""steinbounds benchmark: one command, three workloads, correctness checked.

    python3 perfbench/run.py --workload sweep|verify_draws|coeff_table \\
        --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/steinbounds``.  Each
pass is one fresh interpreter (``worker.py``), because every CLI call pays
the import and every cache starts cold; passes run one after another in a
closed loop, on one BLAS thread.  Passes repeat until the next one would
end after ``--seconds`` (at least MIN_PASSES of each kind).  The reported
set-up and pass times are scaled by host-speed probes (``calib.py``), because
the shared host's speed drifts by more than the bounds allow.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, including the tracing
overhead.  Human-readable lines come first; the last stdout line is the
JSON result.  Full results, and the spans of traced passes, are written
under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "verify_draws", "coeff_table")
MIN_PASSES = 2
MIN_SETUPS = 7  # set-up samples per untraced run; set-up-only workers top up
RUN_LIMIT_S = 170  # a run must end within 180 s
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples beyond it

# Per-layer metric -> (kind, source, unit).  "calls" counts spans of a
# traced function, "self" sums their self time, "useful" is distinct inputs
# per call, "counter" is a counter taken at a wrapped boundary.
LAYER_METRICS = {
    "catalog.quantile.calls": ("calls", "catalog.quantile", "count"),
    "catalog.quantile.self_s": ("self", "catalog.quantile", "s"),
    "catalog.quantile.useful_ratio": ("useful", "catalog.quantile", "ratio"),
    "catalog.numeric_cdf.calls": ("calls", "catalog.numeric_cdf", "count"),
    "catalog.numeric_cdf.self_s": ("self", "catalog.numeric_cdf", "s"),
    "catalog.cdf_evals_per_quantile": ("per_quantile", "catalog.numeric_cdf", "evals/call"),
    "catalog.density.calls": ("counter", "catalog.density.calls", "count"),
    "catalog.density.points": ("counter", "catalog.density.points", "count"),
    "catalog.quad.calls": ("counter", "catalog.quad.calls", "count"),
    "solver.build_grid.calls": ("calls", "solver.build_grid", "count"),
    "solver.build_grid.self_s": ("self", "solver.build_grid", "s"),
    "solver.build_grid.useful_ratio": ("useful", "solver.build_grid", "ratio"),
    "solver.expectation.calls": ("calls", "solver.expectation", "count"),
    "solver.expectation.self_s": ("self", "solver.expectation", "s"),
    "solver.expectation.useful_ratio": ("useful", "solver.expectation", "ratio"),
    "solver.solve.calls": ("calls", "solver.solve", "count"),
    "solver.solve.self_s": ("self", "solver.solve", "s"),
    "solver.quad.calls": ("counter", "solver.quad.calls", "count"),
    "solver.propagate_derivatives.calls": ("calls", "solver.propagate_derivatives", "count"),
    "solver.propagate_derivatives.self_s": ("self", "solver.propagate_derivatives", "s"),
    "solver.filled_points": ("counter", "solver.filled_points", "count"),
    "solver.sup.calls": ("calls", ("solver.empirical_sup", "solver.residual_norm"), "count"),
    "solver.sup.self_s": ("self", ("solver.empirical_sup", "solver.residual_norm"), "s"),
    "engine.value_coupled_bound.calls": ("calls", "engine.value_coupled_bound", "count"),
    "engine.value_coupled_bound.self_s": ("self", "engine.value_coupled_bound", "s"),
    "engine.deriv_coupled_bound.calls": ("calls", "engine.deriv_coupled_bound", "count"),
    "engine.deriv_coupled_bound.self_s": ("self", "engine.deriv_coupled_bound", "s"),
    "engine.mixed_coupled_bound.calls": ("calls", "engine.mixed_coupled_bound", "count"),
    "engine.mixed_coupled_bound.self_s": ("self", "engine.mixed_coupled_bound", "s"),
    "closedform.bound_for.calls": ("calls", "closedform.bound_for", "count"),
    "closedform.bound_for.self_s": ("self", "closedform.bound_for", "s"),
    "verifier.verify.calls": ("calls", "verifier.verify", "count"),
    "verifier.verify.self_s": ("self", "verifier.verify", "s"),
}

# Exact span counts of one traced sweep pass at the commit that introduced
# the benchmark; printed as a cross-check of the wrappers' attribution.
SEED_SWEEP_COUNTS = {
    "catalog.quantile.calls": 93,
    "catalog.numeric_cdf.calls": 3465,
    "solver.expectation.calls": 192,
    "solver.build_grid.calls": 33,
    "solver.solve.calls": 33,
    "solver.propagate_derivatives.calls": 33,
    "closedform.bound_for.calls": 324,
    "verifier.verify.calls": 159,
}


class BenchError(RuntimeError):
    """A pass could not be run or produced no result."""


def _names(source):
    return source if isinstance(source, tuple) else (source,)


def layer_values(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for metric, (kind, source, _) in LAYER_METRICS.items():
        names = _names(source)
        n_calls = sum(calls.get(n, 0) for n in names)
        if kind == "calls":
            out[metric] = n_calls
        elif kind == "self":
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        elif kind == "useful":  # 0 when the layer is idle
            out[metric] = summary["distinct_inputs"].get(source, 0) / n_calls if n_calls else 0.0
        elif kind == "per_quantile":
            q = calls.get("catalog.quantile", 0)
            out[metric] = n_calls / q if q else 0.0
        else:
            out[metric] = summary["counters"].get(source, 0)
    return out


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads bytecode, as an installed package does
    return env


def run_worker(
    workload: str, seed: int, deadline: float, traced: bool = False, setup_only: bool = False, spans_out=None
) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"pass did not end within the {RUN_LIMIT_S} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not Path(result["steinbounds_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported steinbounds from {result['steinbounds_file']}, not from this tree")
    return result


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_latency(passes: list[dict]):
    """p50 and tail of the per-operation latencies pooled over passes; the
    tail is the highest percentile with TAIL_BEYOND samples beyond it."""
    samples = [x for p in passes for x in p["latencies"]]
    if len(samples) <= TAIL_BEYOND:
        return None
    tail_pct = 100.0 * (1.0 - TAIL_BEYOND / len(samples))
    return {
        "p50_s": percentile(samples, 50.0),
        "tail_s": percentile(samples, tail_pct),
        "tail_pct": tail_pct,
        "samples": len(samples),
    }


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "steinbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pinned": int(BLAS_THREADS),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tag: str) -> dict:
    """Run passes until the next one would overrun ``seconds``."""
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    deadline = time.perf_counter() + RUN_LIMIT_S
    # Untimed warm-up: compiles bytecode and fills the file cache, which an
    # installed package would already have.
    run_worker(workload, seed, deadline, setup_only=True)
    start = time.perf_counter()
    turn = 0
    while True:
        traced = kinds[turn % len(kinds)]
        spans_out = OUT_DIR / f"spans-{tag}-pass{len(passes[True])}.json" if traced else None
        t = time.perf_counter()
        passes[traced].append(run_worker(workload, seed, deadline, traced=traced, spans_out=spans_out))
        last = time.perf_counter() - t
        turn += 1
        enough = all(len(passes[k]) >= MIN_PASSES for k in kinds)
        if enough and turn % len(kinds) == 0 and time.perf_counter() - start + last * len(kinds) > seconds:
            break
    setups = [(p["setup_s"], p["setup_probe_s"]) for p in passes[False]]
    if not trace:
        while len(setups) < MIN_SETUPS:
            p = run_worker(workload, seed, deadline, setup_only=True)
            setups.append((p["setup_s"], p["setup_probe_s"]))
    return {"untraced": passes[False], "traced": passes[True], "setups": setups}


def summarize(workload: str, seed: int, trace: bool, m: dict) -> tuple[dict, list[str], dict]:
    untraced, traced = m["untraced"], m["traced"]
    every = untraced + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    # Host speed drifts by up to 1.7x, so the reported times are scaled by
    # host-speed probes (calib.py): a pass stretch by stretch, a set-up by
    # the probe that follows it in the same process.
    run_s = statistics.median(p["run_scaled_s"] for p in untraced)
    setup_s = statistics.median(s * calib.REFERENCE_S / probe for s, probe in m["setups"])
    wall_run_s = statistics.median(p["run_s"] for p in untraced)
    wall_setup_s = statistics.median(s for s, _ in m["setups"])
    lat = op_latency(untraced)
    lines = [
        f"workload={workload} seed={seed} trace={int(trace)} passes={len(untraced)} untraced"
        + (f" + {len(traced)} traced" if trace else ""),
        f"  setup_s      {setup_s:.6f} s   median of {len(m['setups'])} set-ups, scaled"
        f" (wall {wall_setup_s:.6f} s)",
        f"  run_s        {run_s:.6f} s   median of {len(untraced)} passes, scaled (wall {wall_run_s:.6f} s)",
    ]
    if lat is None:
        lines.append("  op_p50_s     n/a   (one sweep() call has no operations visible from outside)")
        lines.append("  op_tail_s    n/a")
    else:
        lines.append(f"  op_p50_s     {lat['p50_s']:.6f} s   {lat['samples']} operations")
        lines.append(f"  op_tail_s    {lat['tail_s']:.6f} s   p{lat['tail_pct']:.2f} of {lat['samples']} operations")
    lines.append(f"  fail_ratio   {failed / attempted:.6g} 1   {failed} of {attempted} operations")
    peak = statistics.median(p["peak_rss_mb"] for p in untraced)
    lines.append(f"  peak_rss_mb  {peak:.3f} MB   median over passes")
    problems = [problem for p in every for problem in p["problems"]]
    lines += [f"  FAILED {problem}" for problem in problems]
    checks = untraced[0]["checks"]
    if checks:
        lines.append(f"  checks       {json.dumps(checks)}")

    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    info = {
        "attempted": attempted,
        "failed": failed,
        "op_latency": lat,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "checks": checks,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setup_samples": m["setups"],
        "run_s_samples": [p["run_scaled_s"] for p in untraced],
        "wall_run_s_samples": [p["run_s"] for p in untraced],
    }
    if not trace:
        return end_to_end, lines, info

    per_pass = [layer_values(p["trace"]) for p in traced]
    layer = {}
    for metric, (kind, _, unit) in LAYER_METRICS.items():
        values = [v[metric] for v in per_pass]
        layer[metric] = {"value": statistics.median(values) if kind == "self" else values[0], "unit": unit}
    traced_run_s = min(p["run_s"] for p in traced)
    # Passes alternate untraced/traced; neighbours share the host's load, so
    # the median of paired differences is steadier than a difference of runs.
    overhead = statistics.median(t["run_s"] - u["run_s"] for u, t in zip(untraced, traced))
    layer["trace.run_s"] = {"value": traced_run_s, "unit": "s"}
    layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    layer["trace.spans"] = {"value": traced[0]["trace"]["spans"], "unit": "count"}
    counts_repeat = all(
        v[k] == per_pass[0][k] for v in per_pass for k, (kind, _, _) in LAYER_METRICS.items() if kind != "self"
    ) and all(p["trace"]["spans"] == traced[0]["trace"]["spans"] for p in traced)
    lines.append(f"  traced run_s {traced_run_s:.6f} s, tracing overhead {overhead:+.6f} s")
    lines.append(f"  counts repeat across {len(traced)} traced passes: {counts_repeat}")
    info["counts_repeat"] = counts_repeat
    if workload == "sweep":
        diff = {k: (layer[k]["value"], want) for k, want in SEED_SWEEP_COUNTS.items() if layer[k]["value"] != want}
        lines.append(f"  seed-count cross-check: {'match' if not diff else f'differs {diff}'}")
        info["seed_count_diff"] = diff
    for metric, v in layer.items():
        lines.append(f"  {metric:<38} {v['value']:.6g} {v['unit']}")
    return layer, lines, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "steinbounds" / "__init__.py").is_file():
        print(f"error: no steinbounds source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), tag)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, lines, info = summarize(args.workload, args.seed, bool(args.trace), m)
    facts = machine_facts()
    facts.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        passes=info["passes"],
        traced_passes=info["traced_passes"],
        setup_samples=len(info["setup_samples"]),
        op_samples=info["op_latency"]["samples"] if info["op_latency"] else 0,
    )
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "facts": facts, "info": info}, fh, indent=1)
    print("\n".join(lines))
    print(f"  facts        {json.dumps(facts)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
