"""Regenerate the output references in perfbench/reference/.

    python3 perfbench/make_reference.py

reference/sweep.json: every cell of the default ``sweep()``: skip status,
verdict, analytic bound at 10 significant digits, and the empirical sup.

reference/coeff_table.json: the coefficients of every cell that
``bound_for`` accepts.  Chain modes (lemma23*, lemma24*, lemma25 at n >= 2,
and ``default`` where it resolves to one) take their values from the
independent ``closed_form_bound`` route; the family-specific tokens, which
have no second route, take the values ``bound_for`` gives at the commit the
reference is made from.

Regenerate only when a change to the bounds or the sweep is intended, and
say so where the change is described.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import steinbounds as sb  # noqa: E402
from steinbounds.closedform import MODE_TOKENS, closed_form_bound  # noqa: E402

import workloads as wl  # noqa: E402

CHAIN_MODES = {
    "lemma23i": "i",
    "lemma23ii": "ii",
    "lemma23iii": "iii",
    "lemma24i": "i",
    "lemma24ii": "ii",
    "lemma25": "mixed",
}


def coeff_reference() -> dict:
    table = {}
    for spec in wl.coeff_specs(sb):
        for token in MODE_TOKENS:
            for n in range(wl.COEFF_MAX_ORDER + 1):
                try:
                    coeffs = sb.bound_for(spec, n, token)
                except ValueError:  # ValidityError, or an untyped rejection
                    continue
                mode = spec.default_mode if token == "default" else token
                if mode in CHAIN_MODES and not (mode == "lemma25" and n < 2):
                    coeffs = closed_form_bound(spec, n, CHAIN_MODES[mode])
                table[wl.cell_key(spec, token, n)] = wl.coeff_dict(coeffs)
    return table


def sweep_reference() -> dict:
    return {wl.sweep_key(r): wl.sweep_row(r) for r in sb.sweep()}


def main() -> None:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for name, table in (("coeff_table", coeff_reference()), ("sweep", sweep_reference())):
        with open(out / f"{name}.json", "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(table)} cells")


if __name__ == "__main__":
    main()
