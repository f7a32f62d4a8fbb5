"""Print one sha256 per solve of a source tree, over every array and
diagnostic the solve and its propagation return.

    python tests/solution_digest.py [SRC]

SRC is the directory that holds the ``steinbounds`` package (default
``./src``).  The solves are the 33 of the default sweep (each default
spec's three test functions on one mesh, propagated to order 4 or the
spec's cap) and one per cell of tests/golden/verify_cells.json and
tests/golden/prr_cells.json (propagated to the cell's order, as
``verify`` does).  Each line is a label and the digest of the solution's
``derivs`` and ``filled`` arrays, in order, and of every diagnostic as a
hex double, ``quad_error`` included.  Two trees whose outputs are
identical line for line solve bit for bit alike, so a refactor's
bit-identity claim is one ``diff`` of this script run on both trees:

    diff <(python tests/solution_digest.py PARENT/src) <(python tests/solution_digest.py src)

The file is not a test module (no ``test_`` prefix), so pytest does not
collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def digest(solution) -> str:
    """sha256 of the solution's derivs and filled arrays and diagnostics."""
    out = hashlib.sha256()
    for k in sorted(solution.derivs):
        out.update(f"{k}:".encode())
        out.update(solution.derivs[k].tobytes())
        out.update(solution.filled[k].tobytes())
    for name, value in sorted(solution.diagnostics.items()):
        out.update(f"{name}={float(value).hex()};".encode())
    return out.hexdigest()


def solves():
    """(label, solution) for every solve, in a fixed order."""
    from steinbounds import catalog, solver, verifier

    for spec in verifier.default_sweep_specs():
        mesh = solver.build_mesh(spec)
        cap = spec.propagation_cap()
        order = max(4 if cap is None else min(4, cap), spec.operator_order)
        for h in (solver.SineTest(1.0), solver.SineTest(2.0), solver.CosineTest(1.0)):
            label = f"sweep {spec.family}({spec.param_string()}) {h.name} n<={order}"
            yield label, solver.propagate_derivatives(solver.solve(spec, h, mesh=mesh), order)
    kinds = {"SineTest": solver.SineTest, "CosineTest": solver.CosineTest}
    for name in ("verify_cells", "prr_cells"):
        for i, cell in enumerate(json.loads((GOLDEN / f"{name}.json").read_text())):
            spec = catalog.make_spec(cell.get("family", "prr"), **cell["params"])
            h = kinds[cell["test_fn"]["kind"]](cell["test_fn"]["freq"])
            order = max(cell["n"], spec.operator_order)
            label = f"{name}[{i}] {spec.family}({spec.param_string()}) {h.name} n<={order}"
            yield label, solver.propagate_derivatives(solver.solve(spec, h), order)


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else "src").resolve()
    sys.path.insert(0, str(src))
    import steinbounds

    if Path(steinbounds.__file__).resolve().parent.parent != src:
        print(f"steinbounds came from {steinbounds.__file__}, not from {src}", file=sys.stderr)
        return 1
    for label, solution in solves():
        print(f"{digest(solution)}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
