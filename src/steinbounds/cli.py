"""Command-line front end: bound, coeffs, verify, sweep, catalog, selftest.

Exit codes: 0 success, 1 parse error, 2 validity-window violation,
3 verification failure, 4 numeric failure.  JSON/CSV output is
deterministic: fixed field order, 10-significant-digit formatting.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import catalog as cat
from .closedform import MODE_TOKENS, bound_for, resolve_mode
from .engine import parse_slot
from .errors import NumericError, ValidityError
from .solver import parse_test_function
from .verifier import (
    _coefficient_rows,
    _round10,
    default_sweep_specs,
    reports_to_csv,
    reports_to_json,
    sweep,
    verify,
)

EXIT_PARSE = 1
EXIT_VALIDITY = 2
EXIT_VERIFICATION = 3
EXIT_NUMERIC = 4


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _numeric_params() -> tuple[str, ...]:
    """Every family parameter that takes one number, in registry order."""
    names = (name for fam in cat.REGISTRY for name in cat.param_names(fam))
    return tuple(dict.fromkeys(name for name in names if name != "row_norms"))


def _spec_from_args(args) -> cat.DistributionSpec:
    params = {k: getattr(args, k) for k in _numeric_params() if getattr(args, k) is not None}
    if args.row_norms is not None:
        if args.family != "mvn":
            raise ValidityError("--row-norms applies to the mvn family only")
        params["row_norms"] = tuple(_number(v, f"--row-norms entry {v!r}") for v in args.row_norms.split(","))
    # ValueError propagates to main and maps to the parse-error exit code
    return cat.make_spec(args.family, **params)


def _number(text: str, what: str) -> float:
    """float(text), or a ValueError (exit 1) that names what was given."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} is not a number") from None


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_norms(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        slot, _, value = item.partition("=")
        if not value:
            raise ValidityError(f"norm entry {item!r} is not slot=value")
        norm, sym = _number(value, f"norm entry {item!r}: value {value!r}"), parse_slot(slot.strip())
        if sym in out:
            raise ValidityError(f"norm slot {slot.strip()!r} is given twice")
        if not (math.isfinite(norm) and norm >= 0.0):
            raise ValidityError(f"norm entry {item!r} must be finite and >= 0")
        out[sym] = norm
    return out


def _emit(text: str, path: str | None) -> None:
    """text, ending in exactly one newline, to path or to stdout; a path
    that cannot be written is a ValueError (exit 1)."""
    text = text if text.endswith("\n") else text + "\n"
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_coeffs(args) -> int:
    """coeffs prints a bound's coefficient document; bound, which has
    --norms, adds the bound's value at those norms to it: a JSON key, a
    last CSV row, or the text form bound = value = its terms."""
    spec = _spec_from_args(args)
    mode = resolve_mode(spec, args.mode)
    coeffs = bound_for(spec, args.n, mode)
    doc = {
        "family": spec.family,
        "params": {k: float(v) for k, v in spec.params.items()},
        "n": args.n,
        "mode": mode,
        "coefficients": _coefficient_rows(coeffs),
    }
    rows = [(sym.slot, c) for sym, c in coeffs.items()]
    if args.norms is not None:
        norms = _parse_norms(args.norms)
        try:
            doc["bound"] = coeffs.evaluate(norms)
        except KeyError as exc:
            raise ValidityError(str(exc))
        rows.append(("bound", doc["bound"]))
    if args.format == "json":
        text = json.dumps(_round10(doc), indent=2)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "param_string", "n", "mode", "symbol", "value"])
        for symbol, value in rows:
            writer.writerow([spec.family, spec.param_string(), args.n, mode, symbol, _fmt(value)])
        text = buf.getvalue()
    elif args.norms is None:
        text = "\n".join(f"{sym.label}: {_fmt(c)}" for sym, c in coeffs.items())
    else:
        terms = " + ".join(f"{_fmt(c)}*{sym.label}" for sym, c in coeffs.items())
        text = f"bound = {_fmt(doc['bound'])}\n      = {terms}"
    _emit(text, args.output)
    return 0


def _emit_reports(reports, args, line) -> int:
    """reports in args.format (text: one line(report) per report) to
    args.output; exit 3 when a verified report failed."""
    if args.format == "json":
        text = reports_to_json(reports)
    elif args.format == "csv":
        text = reports_to_csv(reports)
    else:
        text = "\n".join(map(line, reports))
    _emit(text, args.output)
    return EXIT_VERIFICATION if any(r.passed is False for r in reports) else 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    report = verify(spec, args.n, parse_test_function(args.test), mode=args.mode)
    return _emit_reports([report], args, _verify_line)


def _verify_line(r) -> str:
    return (
        f"{r.family}({r.param_string}) n={r.n} {r.test_fn}: bound={_fmt(r.bound_value)} "
        f"empirical={_fmt(r.empirical_sup)} margin={_fmt(r.margin)} pass={r.passed}"
    )


def _sweep_line(r) -> str:
    head = f"{r.family}({r.param_string}) n={r.n} {r.test_fn}: "
    if r.error:
        return f"{head}skipped ({r.error})"
    return f"{head}bound={_fmt(r.bound_value)} empirical={_fmt(r.empirical_sup)} pass={r.passed}"


def _cmd_sweep(args) -> int:
    if args.max_order < 0:
        raise ValidityError("derivative order must be >= 0")
    specs = None
    if args.families:
        wanted = set(args.families.split(","))
        specs = [spec for spec in default_sweep_specs() if spec.family in wanted]
        unknown = wanted - {spec.family for spec in specs}
        if unknown:
            raise ValidityError(f"families not in the default sweep: {sorted(unknown)}")
    test_fns = None
    if args.tests:
        # a repeated test function (sine:1,sine:1.0) gives its rows once
        test_fns = list(dict.fromkeys(parse_test_function(t) for t in args.tests.split(",")))
    reports = sweep(specs=specs, orders=range(args.max_order + 1), test_fns=test_fns)
    return _emit_reports(reports, args, _sweep_line)


def _cmd_catalog(args) -> int:
    if args.family:
        spec = _spec_from_args(args)
        docs = cat.catalog_json(spec)
    else:
        docs = [cat.catalog_json(cat.make_spec(fam, **params)) for fam, params in cat.DEFAULT_SPECS]
    _emit(json.dumps(_round10(docs), indent=2), args.output)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest()
    return 0 if ok else EXIT_VERIFICATION


# Every option but --family and the law's parameters, declared once; a
# subcommand gets its listed options in their listed order (its --help order).
_OPTIONS = {
    "--n": dict(type=int, required=True),
    "--mode": dict(default="default", choices=MODE_TOKENS),
    "--norms": dict(required=True, help="comma list, e.g. h~=1,h1=1,h2=1"),
    "--test": dict(default="sine:1", help="sine:a, cosine:a"),
    "--families": dict(default=None, help="comma list (default: the full catalog sweep)"),
    "--max-order": dict(type=int, default=4),
    "--tests": dict(default=None, help="comma list of test selectors"),
    "--format": dict(default="text", choices=("text", "json", "csv")),
    "--output": dict(default=None),
}

_COMMANDS = (
    ("coeffs", _cmd_coeffs, "print a bound's coefficients, one norm per line",
     ("--family", "--n", "--mode", "--format", "--output")),
    ("bound", _cmd_coeffs, "evaluate a bound against supplied norm values",
     ("--family", "--n", "--mode", "--norms", "--format", "--output")),
    ("verify", _cmd_verify, "bound vs. empirical sup for one case",
     ("--family", "--n", "--mode", "--test", "--format", "--output")),
    ("sweep", _cmd_sweep, "full verification sweep",
     ("--families", "--max-order", "--tests", "--format", "--output")),
    ("catalog", _cmd_catalog, "dump catalog entries as JSON", ("--family", "--output")),
    ("selftest", _cmd_selftest, "run the oracle-equivalence and identity suites", ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="steinbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for option in options:
            if option == "--family":
                # --family and the law's parameters; catalog without a
                # family lists every default spec
                p.add_argument("--family", required=name != "catalog", choices=cat.FAMILIES)
                for param in _numeric_params():
                    p.add_argument(f"--{param}", type=float, default=None)
                p.add_argument("--row-norms", type=str, default=None, help="comma list (mvn only)")
            else:
                p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(fn=fn, norms=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidityError as exc:
        return _fail(EXIT_VALIDITY, str(exc))
    except (NumericError, FloatingPointError) as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
