"""Command-line front end: eigenvalue computation, verification sweeps,
Gaussian binomial queries, eigenform inspection, self-test.

Each subcommand computes all that can fail, then hands _emit, the one
writer, lazy lines that it writes as they are made.  A sweep (eigen,
verify) reads every a(p) before the routes run, then lets the series go,
so it holds its records, each with its bounds as one int pair (A, B), and
no loaded table.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed
(reportable finding: positivity or a bound fails, or a coefficient table or
elliptic coefficient fails validation, which from any caller raises the one
class modforms.EigenformValidationError), 2 = usage or parameter error,
including a path that cannot be read or written, a weight with no cusp form,
a coefficient-table line that is not two integers or whose index breaks
the run a(1), a(2), ..., a table whose header names another weight, and
selftest under python -O, which strips the asserts that are its checks,
3 = internal error: an implementation fault, such as routes that disagree,
a failed exact identity or integrality check, a built series that fails
validation, or any other unexpected exception,
reported as `internal error: <Type>: <message>` on stderr without a
traceback.  A reader that closes standard output early (`| head`) changes
none of these: the rest of the output is dropped, nothing is written to
stderr, and the exit code is the one the results set, 0 or 1: every result
is computed before the first byte, and selftest, which reports each check
as it ends, runs the rest of them.  A file given by --out that cannot be
written is still exit 2.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain

from .exactnum import primes_upto, unlimited_int_digits
from .ikeda import IkedaParams, q_binomial, q_binomial_eval, verify_prime
from .modforms import (
    BUILTIN_WEIGHTS,
    EigenformValidationError,
    eigenform,
    hecke_eigenvalue_prime,
    load_eigenform,
    table_lines,
)

CSV_COLUMNS = [
    "p",
    "a_p",
    "lambda",
    "lower_exact",
    "upper_exact",
    "lower_decimal",
    "upper_decimal",
    "positive",
    "within_bounds",
    "routes_agree",
]


def _series_for(weight: int, pmax: int, path):
    """The eigenform of the given weight to m = pmax: loaded from the table
    at path, which must reach pmax, or built when path is None.  Either way
    it is a FourierSeries, which ran the one validator as it was made, so
    its a(p) are read alike and asked nothing again."""
    if path is not None:
        series = load_eigenform(path, weight)
        if series.truncation < pmax:
            raise ValueError(
                f"coefficient table covers m <= {series.truncation}, below pmax = {pmax}"
            )
        return series
    return eigenform(weight, pmax)


def _reports(params: IkedaParams, pmax: int, path):
    series = _series_for(params.eigenform_weight, pmax, path)
    primes = primes_upto(pmax)
    coefficients = [hecke_eigenvalue_prime(series, p) for p in primes]
    del series  # a loaded table, which nothing else holds, is freed here
    return [verify_prime(params, p, ap) for p, ap in zip(primes, coefficients)]


# columns whose JSON value is a string; the others are numbers or booleans
_JSON_STRINGS = {"lower_exact", "upper_exact", "lower_decimal", "upper_decimal"}
# one JSON record as json.dumps(..., indent=2) lays it out.  The string
# fields are digits, signs, '.', '/', '*' and 'sqrt(...)': nothing that JSON
# escapes, so quoting them is their whole encoding.
_JSON_RECORD = (
    "  {{\n"
    + ",\n".join(
        f'    "{col}": ' + ('"{}"' if col in _JSON_STRINGS else "{}") for col in CSV_COLUMNS
    )
    + "\n  }}"
)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _fields(rep, digits: int) -> list[str]:
    """The record of one prime, field by field in CSV_COLUMNS order, each
    rendered as both formats write it; the exact bounds R+S*sqrt(P), with
    R and S as num/den in lowest terms, from one str() of A and one of B
    (the bounds are A -+ B*sqrt(p) with integer A, B)."""
    p, a, b = rep.p, str(rep.bound_a), str(rep.bound_b)
    return [
        str(p),
        str(rep.a_p),
        str(rep.eigenvalue),
        f"{a}/1+-{b}/1*sqrt({p})",
        f"{a}/1+{b}/1*sqrt({p})",
        rep.lower.decimal(digits),
        rep.upper.decimal(digits),
        _flag(rep.positive),
        _flag(rep.within_bounds),
        # a disagreement raised RouteDisagreementError before any record
        "true",
    ]


def _render(reports, digits: int, fmt: str):
    """The eigen output, record by record, as CSV or as JSON.  Each record
    is formatted as it is written, so its fields do not outlive it."""
    records = (_fields(r, digits) for r in reports)
    if fmt == "json":
        yield "[\n"
        for i, fields in enumerate(records):
            yield (",\n" if i else "") + _JSON_RECORD.format(*fields)
        yield "\n]\n"
    else:
        # csv.writer's encoding: no field holds a comma, quote or line break
        for fields in chain([CSV_COLUMNS], records):
            yield ",".join(fields) + "\r\n"


def _emit(lines, out_path=None) -> None:
    """Write lines, each with its own line ending, to the file at out_path,
    or to stdout when it is None; an empty path is a path that cannot be
    opened, as --out "" gives.  They are made as they are written, in a
    block that lifts the int <-> str digit limit: an exact result of any
    length is written in full.  Stdout is flushed here, so a reader that
    has closed it is met here and nowhere later."""
    with unlimited_int_digits():
        if out_path is not None:
            with open(out_path, "w") as fh:
                fh.writelines(lines)
            return
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone, so the rest has no one to read it; the
            # results these lines report were computed before them, so the
            # run keeps the exit code they set.  stdout now points at the
            # null device, so no later write or the flush at exit can fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _passed(rep) -> bool:
    return rep.positive and rep.within_bounds


def run_eigen(args) -> int:
    reports = _reports(IkedaParams(args.n, args.k), args.pmax, args.eigenform)
    _emit(_render(reports, args.digits, args.format), args.out)
    return 0 if all(map(_passed, reports)) else 1


def run_verify(args) -> int:
    params = IkedaParams(args.n, args.k)
    reports = _reports(params, args.pmax, args.eigenform)
    failures = sum(not _passed(r) for r in reports)
    head = (
        f"verify n={params.n} k={params.k} "
        f"(elliptic weight {params.eigenform_weight}), primes <= {args.pmax}\n"
        f"{'p':>6}  {'a_p':>24}  {'lambda':>44}  {'positive':>8}  {'bounds':>6}\n"
    )
    rows = (
        f"{r.p:>6}  {r.a_p:>24}  {r.eigenvalue:>44}  "
        f"{'yes' if r.positive else 'NO':>8}  {'yes' if r.within_bounds else 'NO':>6}\n"
        for r in reports
    )
    tail = (
        f"summary: {len(reports)} primes checked, {failures} failures; "
        "all routes agreed at every prime\n"
    )
    _emit(chain([head], rows, [tail]))
    return 0 if failures == 0 else 1


def poly_str(coeffs) -> str:
    """A Gaussian binomial in q, as q_binomial gives it (coefficients >= 0,
    constant term 1), in ascending exponents, e.g. '1 + q + 2q^2'."""
    terms = ["1"]
    for e, c in enumerate(coeffs[1:], 1):
        if c:
            x = "q" if e == 1 else f"q^{e}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms)


def run_qbinom(args) -> int:
    if args.q is not None:
        value, render = q_binomial_eval(args.n, args.m, args.q), str
    else:
        value, render = q_binomial(args.n, args.m), poly_str
    _emit(render(v) + "\n" for v in [value])
    return 0


def run_forms(args) -> int:
    _emit(table_lines(_series_for(args.weight, args.pmax, args.eigenform), args.pmax), args.out)
    return 0


def run_selftest(args) -> int:
    from . import selftest  # imported here so other subcommands skip it

    passed, failed = selftest.run(lambda line: _emit([line + "\n"]))
    _emit([f"selftest: {passed} passed, {failed} failed\n"])
    return 0 if failed == 0 else 1


def _int_at_least(low: int, what: str):
    """argparse type for an int >= low.  Every failure raises
    ArgumentTypeError, so argparse never names this function."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


_nonnegative_int = _int_at_least(0, "a non-negative integer")
_positive_int = _int_at_least(1, "a positive integer")
_prime_bound = _int_at_least(2, "at least 2, the smallest prime")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikedalift",
        description=(
            "Exact computation and verification of Hecke eigenvalues of "
            "Ikeda lifts at primes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = argparse.ArgumentParser(add_help=False)  # eigen's and verify's options
    sweep.add_argument("--n", type=int, required=True, help="degree (even)")
    sweep.add_argument("--k", type=int, required=True, help="weight (even, > n+1)")
    sweep.add_argument(
        "--pmax", type=_prime_bound, default=100, help="largest prime checked (>= 2)"
    )
    sweep.add_argument("--eigenform", help="coefficient table for weight 2k-n")

    eigen = sub.add_parser(
        "eigen", parents=[sweep], help="per-prime eigenvalue records (CSV/JSON)"
    )
    eigen.add_argument("--format", choices=("csv", "json"), default="csv")
    eigen.add_argument("--out", help="output path (default stdout)")
    eigen.add_argument(
        "--digits", type=_nonnegative_int, default=50, help="decimal rendering digits"
    )
    eigen.set_defaults(func=run_eigen)

    verify = sub.add_parser(
        "verify", parents=[sweep], help="verification sweep with summary table"
    )
    verify.set_defaults(func=run_verify)

    qbinom = sub.add_parser("qbinom", help="Gaussian binomial coefficient")
    qbinom.add_argument("--n", type=_nonnegative_int, required=True)
    qbinom.add_argument("--m", type=_nonnegative_int, required=True)
    qbinom.add_argument("--q", type=int, help="evaluate at integer q")
    qbinom.set_defaults(func=run_qbinom)

    forms = sub.add_parser("forms", help="print eigenform coefficients")
    built_in = ", ".join(map(str, BUILTIN_WEIGHTS))
    forms.add_argument(
        "--weight", type=int, required=True, help=f"with cusp forms; built in: {built_in}"
    )
    forms.add_argument("--pmax", type=_positive_int, default=100)
    forms.add_argument("--eigenform", help="coefficient table to inspect")
    forms.add_argument("--out", help="output path (default stdout)")
    forms.set_defaults(func=run_forms)

    selftest = sub.add_parser("selftest", help="run the built-in invariant suite")
    selftest.set_defaults(func=run_selftest)

    return parser


def main(argv=None) -> int:
    """Run the CLI on argv, or on the process's arguments when argv is None.

    Run as a program (argv None), main first moves every object that the
    imports made into the collector's permanent generation (gc.freeze):
    none of them is ever garbage, so no later collection walks them, and
    the interpreter's exit does not collect and free them one by one.  A
    call with an explicit argv, as from a test or a profiler, leaves the
    collector alone.
    """
    if argv is None:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EigenformValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # every ArithmeticError (routes that disagree, a failed identity or
        # integrality check, a division by zero) and anything else unforeseen
        # is a fault of the program, not a finding about its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

if __name__ == "__main__":
    sys.exit(main())
