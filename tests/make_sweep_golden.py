"""Rewrite tests/golden/sweep.json from ``steinbounds sweep --format json``
and tests/golden/verify_cells.json from a fresh ``verify`` of each of its
cells, and print every row that moved, old -> new.

    python tests/make_sweep_golden.py

Run it from the root of a source tree: the package is imported from
``src/``.  A sweep row is one (family, params, test function, order) cell;
a moved row prints each field that changed, and rows that appear or vanish
print whole.  A verify cell keeps its spec, order and test function and
prints its empirical sup (as a hex double) and verdict where they moved.
The file is not a test module (no ``test_`` prefix), so pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep.json"
VERIFY_CELLS = GOLDEN.parent / "verify_cells.json"


def _key(row: dict) -> str:
    params = f"({row['params']})"
    return f"{row['family']}{params} {row['test_fn']} n={row['n']}"


def moved_rows(old: list[dict], new: list[dict]) -> list[str]:
    """One line per row that differs between the two tables."""
    before = {_key(row): row for row in old}
    after = {_key(row): row for row in new}
    lines = []
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key), after.get(key)
        if was is None or now is None:
            lines.append(f"{key}: {'added' if was is None else 'removed'} {json.dumps(now or was)}")
        elif was != now:
            fields = [f"{name} {json.dumps(was.get(name))} -> {json.dumps(now.get(name))}"
                      for name in was.keys() | now.keys() if was.get(name) != now.get(name)]
            lines.append(f"{key}: " + "; ".join(sorted(fields)))
    return lines


def moved_cells(cells: list[dict]) -> tuple[list[dict], list[str]]:
    """The verify cells with a fresh empirical sup and verdict each, and
    one line per cell whose sup or verdict moved."""
    import steinbounds as sb

    kinds = {"SineTest": sb.SineTest, "CosineTest": sb.CosineTest}
    fresh, lines = [], []
    for i, cell in enumerate(cells):
        spec = sb.make_spec(cell["family"], **cell["params"])
        report = sb.verify(spec, cell["n"], kinds[cell["test_fn"]["kind"]](cell["test_fn"]["freq"]))
        now = cell | {"empirical": report.empirical_sup.hex(), "pass": report.passed}
        if now != cell:
            old, new = float.fromhex(cell["empirical"]), report.empirical_sup
            lines.append(
                f"verify cell {i} {cell['family']}({cell['params']}) n={cell['n']}: empirical {cell['empirical']} ->"
                f" {now['empirical']} ({abs(new - old) / abs(old):.2g} relative); pass {cell['pass']} -> {now['pass']}"
            )
        fresh.append(now)
    return fresh, lines


def main() -> int:
    sys.path.insert(0, str(GOLDEN.parents[2] / "src"))
    from steinbounds.cli import main as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(["sweep", "--format", "json"])
    if code != 0:
        print(f"steinbounds sweep exited with {code}; {GOLDEN.name} is left as it is", file=sys.stderr)
        return code
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    lines = moved_rows(old, json.loads(out.getvalue()))
    print("\n".join(lines))
    print(f"{len(lines)} rows moved")
    GOLDEN.write_text(out.getvalue())
    cells, lines = moved_cells(json.loads(VERIFY_CELLS.read_text()))
    print("\n".join(lines))
    print(f"{len(lines)} verify cells moved")
    VERIFY_CELLS.write_text(json.dumps(cells, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
