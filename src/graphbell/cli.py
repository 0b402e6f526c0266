"""Command-line interface: seq, compute, family, verify, and selftest.

Each subcommand computes its result once; JSON (--json), CSV (--csv) and
text (the default) are three renderings of that one result, printed by a
single emitter, which writes each of them as it is produced.  With JSON or
CSV, verify also prints its one-line summary on stderr; in text mode the
summary is part of stdout and stderr stays empty.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource limit
(a refused guardrail, or a recursion depth or memory limit hit mid-run)
or a missing or damaged data file of the package, 4 verification failure.
Codes 1-3 are the ``exit_code`` of the error class raised.  A reader that
closes stdout early (``| head``) also gives 1, with nothing on stderr.
Output that stdout has no room for (a full disk, a file size limit) gives
3 with one ``error:`` line on stderr, and Ctrl-C gives 130, the shell's
convention, with nothing on stderr.  All big integers are
emitted as decimal strings, with no limit on their length; averages as
exact "num/den" fractions (text mode adds a tagged decimal approximation,
computed without floating point).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from . import closed_forms, selftest
from .coloring_engine import SHARED_PROFILE_CACHE, profile
from .errors import DomainError, GraphBellError, ResourceError, UsageError
from .graph_core import FamilyKind, FamilySpec, build, check_order, load_edge_list
from .inequality_verifier import INEQUALITY_IDS, InequalityReport, scan, summarize
from .sequences import avg_blocks, bell, stirling_rows, two_bell

EXIT_VERIFICATION = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for Ctrl-C

_FAMILY_GRAMMAR = ("path:n[,p] cycle:n[,p] star:n[,p] caterpillar:n[,p] "
                   "h:n,r[,p] empty:n complete:n")


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
    try:
        kind = FamilyKind(kind_str)
    except ValueError:
        raise UsageError(f"unknown family {kind_str!r}; grammar: {_FAMILY_GRAMMAR}") from None
    lo = 2 if kind is FamilyKind.HNR else 1
    hi = lo if kind in (FamilyKind.EMPTY, FamilyKind.COMPLETE) else lo + 1
    if not (lo <= len(params) <= hi):
        raise UsageError(f"family {kind_str!r} takes {lo}..{hi} parameters")
    if kind is not FamilyKind.HNR:
        params.insert(1, 0)  # only h takes a tail length r
    return FamilySpec(kind, *params)


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _approx_str(fr: Fraction) -> str:
    """Rounded to four decimal places via integer arithmetic (display only)."""
    num, den = abs(fr.numerator), fr.denominator
    whole, frac = divmod((2 * num * 10**4 + den) // (2 * den), 10**4)
    return f"{'-' if fr < 0 else ''}{whole}.{frac:04d}"


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _json_pieces(obj):
    """The text of ``json.dumps(obj, separators=(",", ":"))``, in pieces; keys
    must be strings.  An iterator in ``obj`` is an array, one item at a time."""
    if isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "") + _encode(key) + ":"
            yield from _json_pieces(value)
        yield "}"
    elif isinstance(obj, Iterator):
        yield "["
        for i, item in enumerate(obj):
            yield ("," if i else "") + _encode(item)
        yield "]"
    else:
        yield _encode(obj)


def _emit(args, obj, header, rows, text) -> None:
    """Print one result in the format ``args`` asks for, as it is produced.

    ``obj`` is the JSON value, ``header`` and ``rows`` the CSV table and
    ``text`` the text, in pieces that carry their own line breaks.  Only the
    requested form is consumed, so ``rows`` and ``text`` may be lazy
    iterables; an iterator in ``obj`` is a JSON array, written item by item.
    """
    if args.json:
        sys.stdout.writelines(_json_pieces(obj))
        sys.stdout.write("\n")
    elif args.csv:
        # No field needs quoting: each is an id, an integer, a num/den
        # fraction, true/false or ;-joined counts.
        sys.stdout.writelines(",".join(map(str, row)) + "\n" for row in chain((header,), rows))
    else:
        sys.stdout.writelines(text)


# --- subcommands -------------------------------------------------------------


def _cmd_seq(args) -> int:
    n = args.n
    if n < 0:
        raise DomainError("--n must be nonnegative")
    kind = args.kind
    if kind == "stirling2":
        # Refused before any row; then one generator feeds whichever format
        # is rendered, one row at a time.
        rows = (list(map(str, row)) for row in stirling_rows(n))
        _emit(
            args,
            {"kind": "stirling2", "n_max": n, "rows": rows},
            ["n", "k", "value"],
            ([r, k, val] for r, row in enumerate(rows) for k, val in enumerate(row)),
            (",".join(row) + "\n" for row in rows),
        )
        return 0

    first = 1 if kind == "avg_blocks" else 0
    if n < first:
        raise DomainError("avg_blocks starts at n = 1")
    term = {"bell": bell, "avg_blocks": avg_blocks, "two_bell": two_bell}[kind]
    term(n)  # grows the column as far as any term reads, or refuses before any term
    fmt = _frac_str if kind == "avg_blocks" else str
    values = (fmt(term(i)) for i in range(first, n + 1))
    _emit(
        args,
        {"kind": kind, "n_max": n, "values": values},
        ["n", "value"],
        enumerate(values, start=first),
        chain((("," if i else "") + v for i, v in enumerate(values)), ("\n",)),
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
        (f"{key}: {value}\n" for key, value in fields(",", _text_average)),
    )


def _cmd_compute(args) -> int:
    if bool(args.family) == bool(args.edges):
        raise UsageError("compute needs exactly one of --family or --edges")
    if args.family:
        spec = parse_family(args.family)
        check_order(spec.order)  # before build() lists the edges
        g = build(spec)
    else:
        g = load_edge_list(args.edges)
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
    verdict = ("EQUALITY" if r.expected_equality else "OK") if r.as_expected else "VIOLATION"
    return (
        f"{r.id} n={r.n} p={r.p} lhs={r.lhs} rhs={r.rhs} "
        f"margin={r.margin} {verdict}{flags}\n"
    )


def _cmd_verify(args) -> int:
    reports = scan(args.id, args.n_max, args.p_max, explore=args.explore)
    summary = summarize(reports)
    tally = f"{summary['reports']} reports, {summary['violations']} in-range violations"

    def text():
        yield from map(_report_line, reports)
        yield f"summary: {tally}\n"
        if args.explore and summary["first_out_of_range_failure"]:
            n, p = summary["first_out_of_range_failure"]
            yield f"first failure outside the documented range: n={n} p={p}\n"

    _emit(
        args,
        map(InequalityReport.as_dict, reports),
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
            f"{oracle['random_graphs']} random graphs, {oracle['mismatches']} mismatches\n"
        )
        for s in report["scans"]:
            yield f"scan {s['id']}: {s['reports']} reports, {s['violations']} violations\n"
        mt = report["mediant_trials"]
        yield f"mediant trials: {mt['trials']}, all strict: {mt['all_strict']}\n"
        yield f"pass: {report['pass']}  fail: {report['fail']}\n"

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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Stdout failed: the reader is gone, or the output has no room (a
        # full disk, a file size limit).  Point stdout at devnull so the
        # interpreter's final flush of what is still buffered cannot fail a
        # second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return UsageError.exit_code
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return ResourceError.exit_code
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except GraphBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (RecursionError, MemoryError) as exc:
        # The memo can hold most of the heap.  Kept alive, it left so little
        # room under a memory limit that further MemoryError lines followed
        # this one, so it is freed first.
        SHARED_PROFILE_CACHE.clear()
        reason = ("the recursion depth limit was reached"
                  if isinstance(exc, RecursionError) else "out of memory")
        print(f"error: input too large: {reason}", file=sys.stderr)
        return ResourceError.exit_code


if __name__ == "__main__":
    sys.exit(main())
