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


def _add_param_args(p: argparse.ArgumentParser) -> None:
    for name in _numeric_params():
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--row-norms", type=str, default=None, help="comma list (mvn only)")


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=cat.FAMILIES)
    _add_param_args(p)


def _spec_from_args(args) -> cat.DistributionSpec:
    params = {k: getattr(args, k) for k in _numeric_params() if getattr(args, k) is not None}
    if args.row_norms is not None:
        if args.family != "mvn":
            raise ValidityError("--row-norms applies to the mvn family only")
        params["row_norms"] = tuple(float(v) for v in args.row_norms.split(","))
    # ValueError propagates to main and maps to the parse-error exit code
    return cat.make_spec(args.family, **params)


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
        out[parse_slot(slot.strip())] = float(value)
    return out


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _coeff_document(spec, n, mode, coeffs, extra=None) -> dict:
    doc = {
        "family": spec.family,
        "params": {k: float(v) for k, v in spec.params.items()},
        "n": n,
        "mode": mode,
        "coefficients": _coefficient_rows(coeffs),
    }
    if extra:
        doc.update(extra)
    return _round10(doc)


def _coeff_csv(spec, n, mode, rows) -> str:
    """One CSV row per (symbol, value) pair of rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "param_string", "n", "mode", "symbol", "value"])
    for symbol, value in rows:
        writer.writerow([spec.family, spec.param_string(), n, mode, symbol, _fmt(value)])
    return buf.getvalue()


def _coeff_rows(coeffs) -> list[tuple[str, float]]:
    return [(sym.slot, value) for sym, value in coeffs.items()]


def _cmd_coeffs(args) -> int:
    spec = _spec_from_args(args)
    mode = resolve_mode(spec, args.mode)
    coeffs = bound_for(spec, args.n, mode)
    if args.format == "json":
        _emit(json.dumps(_coeff_document(spec, args.n, mode, coeffs), indent=2), args.output)
    elif args.format == "csv":
        _emit(_coeff_csv(spec, args.n, mode, _coeff_rows(coeffs)), args.output)
    else:
        lines = [f"{sym.label}: {_fmt(value)}" for sym, value in coeffs.items()]
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_bound(args) -> int:
    spec = _spec_from_args(args)
    mode = resolve_mode(spec, args.mode)
    coeffs = bound_for(spec, args.n, mode)
    norms = _parse_norms(args.norms)
    try:
        value = coeffs.evaluate(norms)
    except KeyError as exc:
        raise ValidityError(str(exc))
    if args.format == "json":
        doc = _coeff_document(spec, args.n, mode, coeffs, extra={"bound": value})
        _emit(json.dumps(doc, indent=2), args.output)
    elif args.format == "csv":
        _emit(_coeff_csv(spec, args.n, mode, _coeff_rows(coeffs) + [("bound", value)]), args.output)
    else:
        terms = " + ".join(f"{_fmt(c)}*{sym.label}" for sym, c in coeffs.items())
        _emit(f"bound = {_fmt(value)}\n      = {terms}", args.output)
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    h = parse_test_function(args.test)
    report = verify(spec, args.n, h, mode=args.mode)
    if args.format == "json":
        _emit(reports_to_json([report]), args.output)
    elif args.format == "csv":
        _emit(reports_to_csv([report]), args.output)
    else:
        _emit(
            f"{report.family}({report.param_string}) n={report.n} {report.test_fn}: "
            f"bound={_fmt(report.bound_value)} empirical={_fmt(report.empirical_sup)} "
            f"margin={_fmt(report.margin)} pass={report.passed}",
            args.output,
        )
    return 0 if report.passed else EXIT_VERIFICATION


def _cmd_sweep(args) -> int:
    specs = None
    if args.families:
        wanted = set(args.families.split(","))
        specs = [spec for spec in default_sweep_specs() if spec.family in wanted]
        unknown = wanted - {spec.family for spec in specs}
        if unknown:
            raise ValidityError(f"families not in the default sweep: {sorted(unknown)}")
    test_fns = None
    if args.tests:
        test_fns = [parse_test_function(t) for t in args.tests.split(",")]
    reports = sweep(specs=specs, orders=range(args.max_order + 1), test_fns=test_fns)
    if args.format == "json":
        _emit(reports_to_json(reports), args.output)
    elif args.format == "csv":
        _emit(reports_to_csv(reports), args.output)
    else:
        lines = []
        for r in reports:
            if r.error:
                lines.append(f"{r.family}({r.param_string}) n={r.n} {r.test_fn}: skipped ({r.error})")
            else:
                lines.append(
                    f"{r.family}({r.param_string}) n={r.n} {r.test_fn}: "
                    f"bound={_fmt(r.bound_value)} empirical={_fmt(r.empirical_sup)} pass={r.passed}"
                )
        _emit("\n".join(lines), args.output)
    failures = [r for r in reports if r.passed is False]
    return EXIT_VERIFICATION if failures else 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="steinbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = sub.add_parser("coeffs", help="print a bound's coefficients, one norm per line", **common)
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="default", choices=MODE_TOKENS)
    p.add_argument("--format", default="text", choices=("text", "json", "csv"))
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("bound", help="evaluate a bound against supplied norm values", **common)
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="default", choices=MODE_TOKENS)
    p.add_argument("--norms", required=True, help="comma list, e.g. h~=1,h1=1,h2=1")
    p.add_argument("--format", default="text", choices=("text", "json", "csv"))
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("verify", help="bound vs. empirical sup for one case", **common)
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="default", choices=MODE_TOKENS)
    p.add_argument("--test", default="sine:1", help="sine:a, cosine:a")
    p.add_argument("--format", default="text", choices=("text", "json", "csv"))
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="full verification sweep", **common)
    p.add_argument("--families", default=None, help="comma list (default: the full catalog sweep)")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--tests", default=None, help="comma list of test selectors")
    p.add_argument("--format", default="text", choices=("text", "json", "csv"))
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("catalog", help="dump catalog entries as JSON", **common)
    p.add_argument("--family", default=None, choices=cat.FAMILIES)
    _add_param_args(p)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("selftest", help="run the oracle-equivalence and identity suites", **common)
    p.set_defaults(fn=_cmd_selftest)

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
