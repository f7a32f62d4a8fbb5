"""The benchmark harness under perfbench/ drives the package by name: it
wraps the functions listed in perfbench/spans.py and patches
verifier.solve.  Traced passes of its three workloads check that every
one of those names still resolves, that the wrappers and the patch still
fit the signatures they wrap, and that the bound table, the verify cells
and the sweep rows still match their references."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

from steinbounds import catalog, solver, verifier

ROOT = Path(__file__).resolve().parents[1]


def _traced_pass(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "1", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _perfbench_module(name: str):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_traced_coeff_table_pass():
    out = _traced_pass("coeff_table")
    assert (out["attempted"], out["failed"]) == (626, 0), out["problems"]
    assert out["trace"]["calls"]["closedform.bound_for"] > 0


def test_traced_verify_draws_pass():
    # the one tier-1 run of the tracer's propagate_derivatives wrapper,
    # which reads the solution from the first positional argument
    out = _traced_pass("verify_draws")
    assert (out["attempted"], out["failed"]) == (24, 0), out["problems"]
    assert out["trace"]["calls"]["solver.propagate_derivatives"] == 24


def test_traced_sweep_pass():
    # the one tier-1 run of the patched verifier.solve: one solve per
    # (spec, test function), one bound per (spec, order)
    out = _traced_pass("sweep")
    assert (out["attempted"], out["failed"]) == (165, 0), out["problems"]
    calls = out["trace"]["calls"]
    assert (calls["solver.solve"], calls["closedform.bound_for"]) == (33, 55)
    assert "verifier.verify" not in calls


def test_benchmark_specs_are_the_default_specs():
    # the benchmark keeps its own copy of the default spec list
    assert _perfbench_module("workloads").COEFF_SPECS == catalog.DEFAULT_SPECS


def test_traced_names_resolve():
    spans = _perfbench_module("spans")
    for module, name, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"steinbounds.{module}"), name)), (module, name)
    # perfbench's sweep workload patches verifier.solve to time each solve
    assert verifier.solve is solver.solve
