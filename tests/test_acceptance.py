"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, islice
from random import Random

from graphbell.closed_forms import hnr_pk1_aggregates, tree_pk1_aggregates
from graphbell.coloring_engine import ProfileCache, brute_force_profile, profile
from graphbell.graph_core import FamilyKind, FamilySpec, Graph, build, random_graph
from graphbell.inequality_verifier import check, scan, summarize
from graphbell.sequences import bell, stirling_rows, two_bell


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def with_isolated(g, p):
    return Graph.from_edges(g.n + p, g.edges())


def test_criterion_1_c5_ground_truth():
    with criterion("criterion 1: five-cycle ground truth under 1 s"):
        t0 = time.perf_counter()
        pr = profile(build(FamilySpec(FamilyKind.CYCLE, 5)), ProfileCache())
        elapsed = time.perf_counter() - t0
        assert pr.counts[3:] == (5, 5, 1)
        assert pr.counts[:3] == (0, 0, 0)
        assert pr.bell == 11
        assert pr.total == 40
        assert pr.average == Fraction(40, 11)
        assert elapsed < 1.0


def test_criterion_2_sequence_prefixes_and_identity():
    with criterion("criterion 2: sequence prefixes and the block-count identity"):
        assert [bell(i) for i in range(7)] == [1, 1, 2, 5, 15, 52, 203]
        assert [two_bell(i) for i in range(6)] == [1, 3, 10, 37, 151, 674]
        for n, row in enumerate(islice(stirling_rows(101), 1, None)):  # row n + 1
            assert two_bell(n) == bell(n + 2) - bell(n + 1)
            assert two_bell(n) == sum(k * c for k, c in enumerate(row))


def test_criterion_3_oracle_equivalence():
    with criterion("criterion 3: engine equals brute force, 1024+ labeled and 200 random graphs, under 60 s"):
        t0 = time.perf_counter()
        memo = ProfileCache()
        mismatches = 0
        exhaustive = 0
        for n in range(6):  # orders 0..5; order 5 alone contributes 1024 graphs
            for g in all_graphs(n):
                exhaustive += 1
                if profile(g, memo) != brute_force_profile(g):
                    mismatches += 1
        assert exhaustive == 1 + 1 + 2 + 8 + 64 + 1024
        rng = Random(20260810)
        for i in range(200):
            g = random_graph(6 + i % 4, rng)
            if profile(g, memo) != brute_force_profile(g):
                mismatches += 1
        elapsed = time.perf_counter() - t0
        assert mismatches == 0
        assert elapsed < 60.0


def test_criterion_4_closed_form_equivalence():
    with criterion("criterion 4: closed forms equal engine on all family instances of order <= 10"):
        memo = ProfileCache()

        def engine_bt(g):
            pr = profile(g, memo)
            return pr.bell, pr.total

        mismatches = []
        for n in range(1, 10):
            agg = tree_pk1_aggregates(n, 0)
            shapes = [build(FamilySpec(FamilyKind.PATH, n)), build(FamilySpec(FamilyKind.STAR, n))]
            for g in shapes:
                if engine_bt(g) != (agg.b, agg.t):
                    mismatches.append(("tree", n))
            for p in range(0, 3):
                if n + p > 10:
                    continue
                agg = tree_pk1_aggregates(n, p)
                for g in shapes:
                    if engine_bt(with_isolated(g, p)) != (agg.b, agg.t):
                        mismatches.append(("tree_pk1", n, p))
        for n in range(3, 10):
            agg = hnr_pk1_aggregates(n, 0, 0)
            if engine_bt(build(FamilySpec(FamilyKind.CYCLE, n))) != (agg.b, agg.t):
                mismatches.append(("cycle", n))
            for p in range(0, 3):
                if n + p > 10:
                    continue
                agg = hnr_pk1_aggregates(n, 0, p)
                g = build(FamilySpec(FamilyKind.CYCLE, n, p=p))
                if engine_bt(g) != (agg.b, agg.t):
                    mismatches.append(("cycle_pk1", n, p))
        for m in range(0, 5):
            for p in range(0, 3):
                if 3 + m + p > 10:
                    continue
                agg = hnr_pk1_aggregates(3, m, p)
                g = build(FamilySpec(FamilyKind.HNR, 3, r=m, p=p))
                if engine_bt(g) != (agg.b, agg.t):
                    mismatches.append(("h3_tail", m, p))
        for n in range(3, 10):
            for r in range(0, 5):
                for p in range(0, 3):
                    if n + r + p > 10:
                        continue
                    agg = hnr_pk1_aggregates(n, r, p)
                    g = build(FamilySpec(FamilyKind.HNR, n, r=r, p=p))
                    if engine_bt(g) != (agg.b, agg.t):
                        mismatches.append(("hnr_pk1", n, r, p))
        assert mismatches == []


def test_criterion_5_reduction_identities():
    with criterion("criterion 5: dominating equality and simplicial strictness on 50 planted graphs each"):
        rng = Random(424242)
        for _ in range(50):
            base = random_graph(rng.randint(2, 7), rng)
            g = Graph.from_edges(
                base.n + 1, base.edges() + [(v, base.n) for v in range(base.n)]
            )
            assert profile(g, ProfileCache()).average == 1 + profile(base, ProfileCache()).average
        for _ in range(50):
            base = random_graph(rng.randint(2, 7), rng)
            clique = [rng.randrange(base.n)]
            order = list(range(base.n))
            rng.shuffle(order)
            for w in order:
                if w not in clique and all(base.adj[w] >> x & 1 for x in clique):
                    clique.append(w)
                    if len(clique) >= 3:
                        break
            g = Graph.from_edges(base.n + 1, base.edges() + [(x, base.n) for x in clique])
            assert profile(g, ProfileCache()).average > profile(base, ProfileCache()).average


def test_criterion_6_lemma_checks():
    with criterion("criterion 6: decomposition identity and two-step recursion grids"):
        # Both aggregates of C_n plus p+2 isolated vertices are the tail-2 +
        # 2*tail-1 + tail-0 combination of tailed cycles with p of them.
        for n in range(3, 13):
            for p in range(0, 4):
                lhs = hnr_pk1_aggregates(n, 0, p + 2)
                two, one, zero = (hnr_pk1_aggregates(n, r, p) for r in (2, 1, 0))
                assert lhs.b == two.b + 2 * one.b + zero.b
                assert lhs.t == two.t + 2 * one.t + zero.t
        for n in range(5, 13):
            for r in range(0, 4):
                for p in range(0, 3):
                    whole = hnr_pk1_aggregates(n, r, p)
                    parts_b = hnr_pk1_aggregates(3, n - 3 + r, p).b + hnr_pk1_aggregates(n - 2, r, p).b
                    assert whole.b == parts_b


SCAN_GRID = [
    ("I1", 200, 0),
    ("I2", 100, 0),
    ("I3", 100, 0),
    ("I4", 60, 0),
    ("I5", 60, 0),
    ("I6", 60, 0),
    ("T_PATH_SHIFT", 25, 5),
    ("T_H3_VS_PATH", 25, 5),
    ("T_CYCLE_VS_H3", 25, 5),
    ("T_CYCLE_VS_PATH", 25, 5),
    ("T_CYCLE_DROP2", 25, 5),
    ("C9", 25, 5),
    ("C11", 25, 5),
    ("C14", 25, 5),
    ("C17", 25, 5),
]


def test_criterion_7_inequality_scans():
    with criterion("criterion 7: all inequality scans strict in range, spot values reproduced, under 120 s"):
        t0 = time.perf_counter()
        for id, n_max, p_max in SCAN_GRID:
            reports = scan(id, n_max, p_max)
            summary = summarize(reports)
            assert summary["violations"] == 0, f"{id}: {summary}"
            for r in reports:
                if r.expected_equality:
                    # the one degenerate point: both families are the same graph
                    assert r.n == 3 and r.margin == 0
                else:
                    assert r.holds_strict
        r = check("I1", 4)
        assert (r.lhs, r.rhs) == (225, 260)
        r = check("I5", 5)
        assert (r.lhs, r.rhs) == (572, 600)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_criterion_8_selftest_determinism(child_env):
    with criterion("criterion 8: byte-identical selftest JSON across two processes"):
        cmd = [sys.executable, "-m", "graphbell", "selftest", "--seed", "7", "--json"]
        runs = [subprocess.run(cmd, capture_output=True, env=child_env) for _ in range(2)]
        assert runs[0].returncode == 0 and runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        report = json.loads(runs[0].stdout)
        assert report["fail"] == 0
