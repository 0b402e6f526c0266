"""Command-line interface: seq, compute, family, verify, and selftest.

Each subcommand computes its result once; JSON (--json), CSV (--csv) and
text (the default) are three renderings of that one result, printed by a
single emitter.  With JSON or CSV, verify also prints its one-line summary
on stderr; in text mode the summary is part of stdout and stderr stays empty.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource limit
(a refused guardrail, or a recursion depth or memory limit hit mid-run),
4 verification failure.  Codes 1-3 are the ``exit_code`` of the error class
raised.  All big integers are emitted as decimal strings, with no limit on
their length; averages as exact "num/den" fractions (text mode adds a
tagged decimal approximation, computed without floating point).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import closed_forms, selftest
from .coloring_engine import SHARED_PROFILE_CACHE, profile
from .errors import DomainError, GraphBellError, ResourceError, UsageError
from .graph_core import FamilyKind, FamilySpec, build, load_edge_list
from .inequality_verifier import INEQUALITY_IDS, scan, summarize
from .sequences import avg_blocks, bell, shared_cache, stirling2, two_bell

EXIT_VERIFICATION = 4

GENERIC_ORDER_WARNING = 20

_FAMILY_GRAMMAR = "path:n[,p] cycle:n[,p] star:n[,p] h:n,r[,p] empty:n complete:n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_family(text: str) -> FamilySpec:
    kind_str, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"bad family spec {text!r}; grammar: {_FAMILY_GRAMMAR}")
    try:
        params = [int(x) for x in rest.split(",")] if rest else []
    except ValueError:
        raise UsageError(f"non-integer parameter in family spec {text!r}") from None
    arity = {
        "path": (FamilyKind.PATH, 1, 2),
        "cycle": (FamilyKind.CYCLE, 1, 2),
        "star": (FamilyKind.STAR, 1, 2),
        "h": (FamilyKind.HNR, 2, 3),
        "empty": (FamilyKind.EMPTY, 1, 1),
        "complete": (FamilyKind.COMPLETE, 1, 1),
    }
    if kind_str not in arity:
        raise UsageError(f"unknown family {kind_str!r}; grammar: {_FAMILY_GRAMMAR}")
    kind, lo, hi = arity[kind_str]
    if not (lo <= len(params) <= hi):
        raise UsageError(f"family {kind_str!r} takes {lo}..{hi} parameters")
    if kind is FamilyKind.HNR:
        n, r = params[0], params[1]
        p = params[2] if len(params) == 3 else 0
        return FamilySpec(kind, n, r=r, p=p)
    n = params[0]
    p = params[1] if len(params) == 2 else 0
    return FamilySpec(kind, n, p=p)


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _approx_str(fr: Fraction, digits: int = 4) -> str:
    """Rounded decimal rendering via integer arithmetic (display only)."""
    scale = 10**digits
    neg = fr < 0
    num, den = abs(fr.numerator), fr.denominator
    q = (2 * num * scale + den) // (2 * den)
    whole, frac = divmod(q, scale)
    return f"{'-' if neg else ''}{whole}.{frac:0{digits}d}"


def _emit(args, obj, header, rows, text) -> None:
    """Print one result in the format ``args`` asks for; the only output path.

    ``obj`` is the JSON value, ``header`` and ``rows`` the CSV table and
    ``text`` the text lines.  Only the requested form is consumed, so ``rows``
    and ``text`` may be lazy iterables, and an ``obj`` that costs work to
    build may be None when JSON was not asked for.
    """
    if args.json:
        print(json.dumps(obj, separators=(",", ":")))
    elif args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    else:
        for line in text:
            print(line)


# --- subcommands -------------------------------------------------------------


def _cmd_seq(args) -> int:
    n = args.n
    if n < 0:
        raise DomainError("--n must be nonnegative")
    shared_cache().grow_capacity(n + 3)
    kind = args.kind
    if kind == "stirling2":
        stirling2(n, n)  # grows the whole triangle, or refuses before any row
        # One generator feeds whichever format is rendered; only JSON holds every row.
        rows = ([str(stirling2(r, k)) for k in range(r + 1)] for r in range(n + 1))
        _emit(
            args,
            {"kind": kind, "n_max": n, "rows": list(rows)} if args.json else None,
            ["n", "k", "value"],
            ([r, k, val] for r, row in enumerate(rows) for k, val in enumerate(row)),
            (",".join(row) for row in rows),
        )
        return 0

    first = 1 if kind == "avg_blocks" else 0
    if n < first:
        raise DomainError("avg_blocks starts at n = 1")
    term = {"bell": bell, "two_bell": two_bell, "avg_blocks": avg_blocks}[kind]
    fmt = _frac_str if kind == "avg_blocks" else str
    values = [fmt(term(i)) for i in range(first, n + 1)]
    _emit(
        args,
        {"kind": kind, "n_max": n, "values": values},
        ["n", "value"],
        enumerate(values, start=first),
        [",".join(values)],
    )
    return 0


def _text_average(a: str | None) -> str:
    if a is None:
        return "-"
    return f"{a} (~{_approx_str(Fraction(a))}, approximate)"


def _emit_aggregates(args, payload: dict) -> None:
    """Render a compute or family payload; ``counts`` and ``a`` may be None."""

    def fields(sep, average):
        for key, value in payload.items():
            if key == "counts":
                if value is not None:
                    yield key, sep.join(value)
            else:
                yield key, average(value) if key == "a" else value

    _emit(
        args,
        payload,
        ["key", "value"],
        fields(";", lambda a: "" if a is None else a),
        (f"{key}: {value}" for key, value in fields(",", _text_average)),
    )


def _cmd_compute(args) -> int:
    if bool(args.family) == bool(args.edges):
        raise UsageError("compute needs exactly one of --family or --edges")
    if args.family:
        g = build(parse_family(args.family))
    else:
        g = load_edge_list(args.edges)
    if g.n > GENERIC_ORDER_WARNING:
        print(
            f"warning: exact recursion on {g.n} vertices may be very slow "
            f"(worst case is exponential beyond ~{GENERIC_ORDER_WARNING})",
            file=sys.stderr,
        )
    pr = profile(g, None if args.no_memo else SHARED_PROFILE_CACHE)
    _emit_aggregates(args, {
        "n": pr.n,
        "counts": [str(c) for c in pr.counts],
        "b": str(pr.bell),
        "t": str(pr.total),
        "a": _frac_str(pr.average) if pr.n > 0 else None,
    })
    return 0


def _cmd_family(args) -> int:
    spec = parse_family(args.family)
    agg = closed_forms.aggregates_for(spec)
    _emit_aggregates(args, {
        "n": spec.order,
        "counts": None,
        "b": str(agg.b),
        "t": str(agg.t),
        "a": _frac_str(agg.a) if spec.order > 0 else None,
        "method": "closed_form",
    })
    return 0


_REPORT_FIELDS = ("id", "n", "p", "lhs", "rhs", "margin", "holds_strict",
                  "boundary_extension", "in_range", "expected_equality")


def _report_row(r) -> list:
    values = (getattr(r, f) for f in _REPORT_FIELDS)
    return [str(v).lower() if isinstance(v, bool) else v for v in values]


def _report_line(r) -> str:
    flags = ""
    if r.boundary_extension:
        flags += " [extension]"
    if not r.in_range:
        flags += " [out-of-range]"
    if r.expected_equality:
        flags += " [families coincide]"
        verdict = "EQUALITY" if r.margin == 0 else "VIOLATION"
    else:
        verdict = "OK" if r.holds_strict else "VIOLATION"
    return (
        f"{r.id} n={r.n} p={r.p} lhs={r.lhs} rhs={r.rhs} "
        f"margin={r.margin} {verdict}{flags}"
    )


def _cmd_verify(args) -> int:
    reports = scan(args.id, args.n_max, args.p_max, explore=args.explore)
    summary = summarize(reports)
    tally = f"{summary['reports']} reports, {summary['violations']} in-range violations"

    def text():
        yield from map(_report_line, reports)
        yield f"summary: {tally}"
        if args.explore and summary["first_out_of_range_failure"]:
            n, p = summary["first_out_of_range_failure"]
            yield f"first failure outside the documented range: n={n} p={p}"

    _emit(
        args,
        [r.as_dict() for r in reports] if args.json else None,
        _REPORT_FIELDS,
        map(_report_row, reports),
        text(),
    )
    if args.json or args.csv:  # text mode prints the summary on stdout instead
        print(f"{args.id}: {tally}", file=sys.stderr)
    return EXIT_VERIFICATION if summary["violations"] else 0


def _cmd_selftest(args) -> int:
    report = selftest.run(seed=args.seed, n_max=args.n_max, p_max=args.p_max)

    def text():
        oracle = report["oracle"]
        yield (
            f"oracle equivalence: {oracle['exhaustive_graphs']} exhaustive + "
            f"{oracle['random_graphs']} random graphs, {oracle['mismatches']} mismatches"
        )
        for s in report["scans"]:
            yield f"scan {s['id']}: {s['reports']} reports, {s['violations']} violations"
        mt = report["mediant_trials"]
        yield f"mediant trials: {mt['trials']}, all strict: {mt['all_strict']}"
        yield f"pass: {report['pass']}  fail: {report['fail']}"

    _emit(args, report, None, None, text())
    return EXIT_VERIFICATION if report["fail"] else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphbell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formats(p):
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--json", action="store_true", help="emit JSON")
        grp.add_argument("--csv", action="store_true", help="emit CSV")

    p = sub.add_parser("seq", help="emit integer-sequence tables")
    p.add_argument("--kind", required=True,
                   choices=["bell", "two_bell", "stirling2", "avg_blocks"])
    p.add_argument("--n", type=int, required=True, help="largest index to emit")
    add_formats(p)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("compute", help="exact coloring profile of a graph")
    p.add_argument("--family", help=f"family spec ({_FAMILY_GRAMMAR})")
    p.add_argument("--edges", help="path to an edge-list file ('n m' header)")
    p.add_argument("--no-memo", action="store_true", help="disable memoization")
    add_formats(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("family", help="closed-form aggregates of a named family")
    p.add_argument("--family", required=True, help=f"family spec ({_FAMILY_GRAMMAR})")
    add_formats(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="scan one named inequality over a grid")
    p.add_argument("--id", required=True, help=f"one of: {', '.join(INEQUALITY_IDS)}")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--p-max", type=int, default=0)
    p.add_argument("--explore", action="store_true",
                   help="also evaluate below the documented range without asserting")
    add_formats(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="oracle equivalence plus reduced-bound scans")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--p-max", type=int, default=2)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_selftest, csv=False)

    return parser


def main(argv=None) -> int:
    # Lift the interpreter's 4300-digit limit on int-to-str conversion.  It
    # guards against slow conversions of unbounded input; here HARD_MAX_TERMS
    # bounds every printed integer to about 20k digits (bell(4095)**2 * 2**90),
    # whose str() takes a few ms.  Releases before 3.10.7 have no limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except GraphBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (RecursionError, MemoryError) as exc:
        reason = ("the recursion depth limit was reached"
                  if isinstance(exc, RecursionError) else "out of memory")
        print(f"error: input too large: {reason}", file=sys.stderr)
        return ResourceError.exit_code


if __name__ == "__main__":
    sys.exit(main())
