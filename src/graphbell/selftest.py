"""Built-in self test: oracle equivalence plus reduced-bound inequality scans."""

from __future__ import annotations

from random import Random

from .coloring_engine import ProfileCache, brute_force_profile, profile
from .graph_core import all_graphs, random_graph
from .inequality_verifier import INEQUALITY_IDS, prop7_sample_check, scan, summarize

# The sweep stays at the 76 graphs on at most 4 vertices, because the golden
# tests pin selftest's output bytes, its graph count included.  The engine
# answers each from its order-6 rows (SMALL_ORDER 6), as it does every graph
# on at most 7 vertices; the test suite checks every row and every read.
EXHAUSTIVE_MAX_ORDER = 4
RANDOM_GRAPHS = 60
PROP7_TRIALS = 20


def run(seed: int, n_max: int, p_max: int) -> dict:
    """Run the suite and return a deterministic, JSON-ready report.

    The defaults of all three live in the CLI's ``selftest`` options.
    """
    memo = ProfileCache()
    graphs = [g for n in range(EXHAUSTIVE_MAX_ORDER + 1) for g in all_graphs(n)]
    checked = len(graphs)
    rng = Random(seed)
    graphs += [random_graph(5 + i % 4, rng) for i in range(RANDOM_GRAPHS)]
    mismatches = sum(profile(g, memo) != brute_force_profile(g) for g in graphs)

    scans = []
    scan_reports = scan_violations = 0
    for id in INEQUALITY_IDS:
        reports = scan(id, n_max, p_max)
        summary = summarize(reports)
        scans.append(
            {"id": id, "reports": summary["reports"], "violations": summary["violations"]}
        )
        scan_reports += summary["reports"]
        scan_violations += summary["violations"]

    prop7_ok = prop7_sample_check(PROP7_TRIALS, seed)

    passed = (len(graphs) - mismatches) + (scan_reports - scan_violations)
    failed = mismatches + scan_violations
    if prop7_ok:
        passed += PROP7_TRIALS
    else:
        failed += 1

    return {
        "seed": seed,
        "bounds": {"n_max": n_max, "p_max": p_max},
        "oracle": {
            "exhaustive_graphs": checked,
            "random_graphs": RANDOM_GRAPHS,
            "mismatches": mismatches,
        },
        "scans": scans,
        "mediant_trials": {"trials": PROP7_TRIALS, "all_strict": prop7_ok},
        "pass": passed,
        "fail": failed,
    }
