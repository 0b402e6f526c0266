"""Command-line interface: seq, compute, family, verify, and selftest.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource limit
(a refused guardrail, or a recursion depth or memory limit hit mid-run),
4 verification failure.  All big integers are emitted as decimal strings;
averages as exact "num/den" fractions (text mode adds a tagged decimal
approximation, computed without floating point).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import closed_forms, selftest
from .coloring_engine import SHARED_PROFILE_CACHE, profile
from .errors import DomainError, GraphBellError, ResourceError, UsageError
from .graph_core import FamilyKind, FamilySpec, build, load_edge_list
from .inequality_verifier import INEQUALITY_IDS, scan, summarize
from .sequences import avg_blocks, bell, shared_cache, stirling2, two_bell

EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
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


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _emit_kv_csv(rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["key", "value"])
    w.writerows(rows)
    print(buf.getvalue(), end="")


# --- subcommands -------------------------------------------------------------


def _cmd_seq(args) -> int:
    n = args.n
    if n < 0:
        raise DomainError("--n must be nonnegative")
    shared_cache().grow_capacity(n + 3)
    kind = args.kind
    if kind == "stirling2":
        rows = [[str(stirling2(r, k)) for k in range(r + 1)] for r in range(n + 1)]
        if args.json:
            _emit_json({"kind": kind, "n_max": n, "rows": rows})
        elif args.csv:
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(["n", "k", "value"])
            for r, row in enumerate(rows):
                for k, val in enumerate(row):
                    w.writerow([r, k, val])
            print(buf.getvalue(), end="")
        else:
            for row in rows:
                print(",".join(row))
        return 0

    if kind == "bell":
        values = [str(bell(i)) for i in range(n + 1)]
        first = 0
    elif kind == "two_bell":
        values = [str(two_bell(i)) for i in range(n + 1)]
        first = 0
    else:  # avg_blocks
        if n < 1:
            raise DomainError("avg_blocks starts at n = 1")
        values = [_frac_str(avg_blocks(i)) for i in range(1, n + 1)]
        first = 1
    if args.json:
        _emit_json({"kind": kind, "n_max": n, "values": values})
    elif args.csv:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "value"])
        for i, val in enumerate(values, start=first):
            w.writerow([i, val])
        print(buf.getvalue(), end="")
    else:
        print(",".join(values))
    return 0


def _profile_payload(g, memo) -> dict:
    pr = profile(g, memo)
    return {
        "n": pr.n,
        "counts": [str(c) for c in pr.counts],
        "b": str(pr.bell),
        "t": str(pr.total),
        "a": _frac_str(pr.average) if pr.n > 0 else None,
    }


def _print_profile_text(payload: dict, extra: dict | None = None) -> None:
    print(f"n: {payload['n']}")
    if payload.get("counts") is not None:
        print("counts: " + ",".join(payload["counts"]))
    print(f"b: {payload['b']}")
    print(f"t: {payload['t']}")
    if payload["a"] is None:
        print("a: -")
    else:
        num, den = payload["a"].split("/")
        approx = _approx_str(Fraction(int(num), int(den)))
        print(f"a: {payload['a']} (~{approx}, approximate)")
    if extra:
        for k, v in extra.items():
            print(f"{k}: {v}")


def _payload_csv_rows(payload: dict, extra: dict | None = None):
    rows = [["n", payload["n"]]]
    if payload.get("counts") is not None:
        rows.append(["counts", ";".join(payload["counts"])])
    rows.append(["b", payload["b"]])
    rows.append(["t", payload["t"]])
    rows.append(["a", payload["a"] if payload["a"] is not None else ""])
    for k, v in (extra or {}).items():
        rows.append([k, v])
    return rows


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
    memo = None if args.no_memo else SHARED_PROFILE_CACHE
    payload = _profile_payload(g, memo)
    if args.json:
        _emit_json(payload)
    elif args.csv:
        _emit_kv_csv(_payload_csv_rows(payload))
    else:
        _print_profile_text(payload)
    return 0


def _cmd_family(args) -> int:
    spec = parse_family(args.family)
    agg = closed_forms.aggregates_for(spec)
    order = spec.order
    payload = {
        "n": order,
        "counts": None,
        "b": str(agg.b),
        "t": str(agg.t),
        "a": _frac_str(agg.a) if order > 0 else None,
        "method": "closed_form",
    }
    if args.json:
        _emit_json(payload)
    elif args.csv:
        base = {k: payload[k] for k in ("n", "counts", "b", "t", "a")}
        _emit_kv_csv(_payload_csv_rows(base, {"method": "closed_form"}))
    else:
        _print_profile_text(payload, {"method": "closed_form"})
    return 0


def _report_row(r) -> list:
    return [
        r.id,
        r.n,
        r.p,
        str(r.lhs),
        str(r.rhs),
        str(r.margin),
        str(r.holds_strict).lower(),
        str(r.boundary_extension).lower(),
        str(r.in_range).lower(),
        str(r.expected_equality).lower(),
    ]


def _cmd_verify(args) -> int:
    if args.id not in INEQUALITY_IDS:
        raise UsageError(
            f"unknown inequality id {args.id!r}; valid ids: {', '.join(INEQUALITY_IDS)}"
        )
    reports = scan(
        args.id, args.n_max, args.p_max, explore=args.explore, jobs=args.jobs
    )
    summary = summarize(reports)
    if args.json:
        _emit_json([r.as_dict() for r in reports])
        print(
            f"{args.id}: {summary['reports']} reports, "
            f"{summary['violations']} in-range violations",
            file=sys.stderr,
        )
    elif args.csv:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["id", "n", "p", "lhs", "rhs", "margin", "holds_strict",
             "boundary_extension", "in_range", "expected_equality"]
        )
        for r in reports:
            w.writerow(_report_row(r))
        print(buf.getvalue(), end="")
        print(
            f"{args.id}: {summary['reports']} reports, "
            f"{summary['violations']} in-range violations",
            file=sys.stderr,
        )
    else:
        for r in reports:
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
            print(
                f"{r.id} n={r.n} p={r.p} lhs={r.lhs} rhs={r.rhs} "
                f"margin={r.margin} {verdict}{flags}"
            )
        print(
            f"summary: {summary['reports']} reports, "
            f"{summary['violations']} in-range violations"
        )
        if args.explore and summary["first_out_of_range_failure"]:
            n, p = summary["first_out_of_range_failure"]
            print(f"first failure outside the documented range: n={n} p={p}")
    return EXIT_VERIFICATION if summary["violations"] else 0


def _cmd_selftest(args) -> int:
    report = selftest.run(seed=args.seed, n_max=args.n_max, p_max=args.p_max)
    if args.json:
        _emit_json(report)
    else:
        oracle = report["oracle"]
        print(
            f"oracle equivalence: {oracle['exhaustive_graphs']} exhaustive + "
            f"{oracle['random_graphs']} random graphs, {oracle['mismatches']} mismatches"
        )
        for s in report["scans"]:
            print(f"scan {s['id']}: {s['reports']} reports, {s['violations']} violations")
        mt = report["mediant_trials"]
        print(f"mediant trials: {mt['trials']}, all strict: {mt['all_strict']}")
        print(f"pass: {report['pass']}  fail: {report['fail']}")
    return EXIT_VERIFICATION if report["fail"] else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphbell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formats(p, csv_too=True):
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--json", action="store_true", help="emit JSON")
        if csv_too:
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
    p.add_argument("--jobs", type=int, default=1, help="worker threads for the grid")
    add_formats(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="oracle equivalence plus reduced-bound scans")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--p-max", type=int, default=2)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GraphBellError as exc:  # base-class fallback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        print("error: input too large: the recursion depth limit was reached", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
