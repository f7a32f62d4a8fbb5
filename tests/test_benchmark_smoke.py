"""The benchmark harness under perfbench/ drives the package by name: it
wraps the functions listed in perfbench/spans.py and patches
verifier.solve.  A pass of its cheapest workload, traced, checks that
every one of those names still resolves and that the bound table still
matches its reference."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

from steinbounds import solver, verifier

ROOT = Path(__file__).resolve().parents[1]


def test_traced_coeff_table_pass():
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", "coeff_table", "--seed", "1", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (out["attempted"], out["failed"]) == (626, 0), out["problems"]
    assert out["trace"]["calls"]["closedform.bound_for"] > 0


def test_traced_names_resolve():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for module, name, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"steinbounds.{module}"), name)), (module, name)
    # perfbench's sweep workload patches verifier.solve to time each solve
    assert verifier.solve is solver.solve
