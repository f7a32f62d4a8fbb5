"""Rewrite tests/golden/sweep.json from ``steinbounds sweep --format json``
and tests/golden/verify_cells.json from a fresh ``verify`` of each of its
cells, and print every row that moved, old -> new.

    python tests/make_sweep_golden.py [PARENT_SRC]

Run it from the root of a source tree: the package is imported from
``src/``.  A sweep row is one (family, params, test function, order) cell;
a moved row prints each field that changed at the golden's 10 significant
digits, the relative move of its empirical sup and its filled points, and
rows that appear or vanish print whole.  PARENT_SRC, the ``src/`` of the
tree before the change (say a ``git archive`` of the parent commit), adds
the rows whose empirical sup moved below 10 digits: both trees' sweeps
run in fresh interpreters at full precision, and the relative moves are
taken from those values.  The last sweep line counts the rows moved at
full precision (without PARENT_SRC: not compared) and at 10 digits, and
gives the largest relative move on cells with filled points and on cells
without.  A verify cell keeps its spec, order and test function and prints
its empirical sup (as a hex double) and verdict where they moved.  The
file is not a test module (no ``test_`` prefix), so pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep.json"
VERIFY_CELLS = GOLDEN.parent / "verify_cells.json"


def _key(row: dict) -> str:
    params = f"({row['params']})"
    return f"{row['family']}{params} {row['test_fn']} n={row['n']}"


# the empirical sup of every default-sweep row at full precision, by row
# key, from the package in the directory argv[1]
_FULL_PRECISION = """
import json, sys
sys.path.insert(0, sys.argv[1])
from steinbounds.verifier import sweep
print(json.dumps({f"{r.family}({r.param_string}) {r.test_fn} n={r.n}": r.empirical_sup for r in sweep()}))
"""


def full_precision(src: Path) -> dict[str, float | None]:
    """Row key -> empirical sup of the default sweep of the package in src,
    run in a fresh interpreter (floats cross in JSON as their repr)."""
    run = subprocess.run([sys.executable, "-c", _FULL_PRECISION, str(src)], capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def _relative(old, new) -> float | None:
    if old is None or new is None:
        return None
    return abs(new - old) / abs(old) if old else abs(new)


def moved_rows(old: list[dict], new: list[dict], full: tuple[dict, dict] | None) -> tuple[list[str], str]:
    """One line per row that differs between the two tables, or whose
    empirical sup differs between full = (before, after) at full
    precision (None: not compared), and the summary line."""
    before = {_key(row): row for row in old}
    after = {_key(row): row for row in new}
    lines, moved_full, moved_10 = [], 0, 0
    largest = {True: 0.0, False: 0.0}  # by whether the cell has filled points
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key), after.get(key)
        if was is None or now is None:
            lines.append(f"{key}: {'added' if was is None else 'removed'} {json.dumps(now or was)}")
            continue
        exact = full is not None and full[0].get(key) != full[1].get(key)
        if was == now and not exact:
            continue
        moved_10 += was != now
        moved_full += exact
        fields = [f"{name} {json.dumps(was.get(name))} -> {json.dumps(now.get(name))}"
                  for name in was.keys() | now.keys() if was.get(name) != now.get(name)]
        move = _relative(*(side.get(key) for side in full)) if full else _relative(was["empirical"], now["empirical"])
        if move is not None:
            largest[now["filled_points"] > 0] = max(largest[now["filled_points"] > 0], move)
        lines.append(
            f"{key}: " + "; ".join(sorted(fields) or ["empirical below 10 digits"])
            + f" (relative move {'n/a' if move is None else f'{move:.2g}'}; filled_points {now['filled_points']})"
        )
    summary = (
        f"rows moved: {moved_full if full else 'not compared (no PARENT_SRC)'} at full precision, {moved_10} at 10 digits;"
        f" largest relative move {largest[True]:.2g} on cells with filled points, {largest[False]:.2g} on cells without"
    )
    return lines, summary


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


def main(argv: list[str]) -> int:
    src = GOLDEN.parents[2] / "src"
    sys.path.insert(0, str(src))
    from steinbounds.cli import main as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(["sweep", "--format", "json"])
    if code != 0:
        print(f"steinbounds sweep exited with {code}; {GOLDEN.name} is left as it is", file=sys.stderr)
        return code
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    full = (full_precision(Path(argv[0]).resolve()), full_precision(src)) if argv else None
    lines, summary = moved_rows(old, json.loads(out.getvalue()), full)
    print("\n".join(lines))
    print(summary)
    GOLDEN.write_text(out.getvalue())
    cells, lines = moved_cells(json.loads(VERIFY_CELLS.read_text()))
    print("\n".join(lines))
    print(f"{len(lines)} verify cells moved")
    VERIFY_CELLS.write_text(json.dumps(cells, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
