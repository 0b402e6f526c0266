"""Engine vs. oracle, reduction identities, and profile arithmetic."""

import sys
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from graphbell import graph_core
from graphbell.coloring_engine import (
    ProfileCache,
    StirlingProfile,
    avg_colors,
    bell_graph,
    brute_force_profile,
    profile,
    restricted_growth_strings,
    total_graph,
)
from graphbell.closed_forms import cycle_aggregates
from graphbell.errors import DomainError, ResourceError
from graphbell.graph_core import FamilyKind, FamilySpec, Graph, build, random_graph
from graphbell.sequences import bell


def family(kind, n, r=0, p=0):
    return build(FamilySpec(kind, n, r=r, p=p))


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


# --- ground truth ---------------------------------------------------------------


def test_c5_profile():
    pr = profile(family(FamilyKind.CYCLE, 5))
    assert pr.counts == (0, 0, 0, 5, 5, 1)
    assert pr.bell == 11 and pr.total == 40
    assert pr.average == Fraction(40, 11)
    assert pr.chromatic_number == 3


def test_empty_graph_profile_is_stirling_row():
    pr = profile(family(FamilyKind.EMPTY, 4))
    assert pr.counts == (0, 1, 7, 6, 1)
    assert pr.bell == bell(4) == 15
    assert pr.counts == brute_force_profile(family(FamilyKind.EMPTY, 4)).counts


def test_triangle_profile():
    pr = profile(family(FamilyKind.CYCLE, 3))
    assert pr.counts == (0, 0, 0, 1)
    assert pr.bell == 1 and pr.total == 3


def test_null_graph_profile():
    pr = profile(family(FamilyKind.EMPTY, 0))
    assert pr.counts == (1,)
    assert pr.bell == 1 and pr.total == 0


# --- brute-force oracle ----------------------------------------------------------


def test_rgs_count_is_bell_number():
    for n in range(9):
        assert sum(1 for _ in restricted_growth_strings(n)) == bell(n)


def test_brute_force_c4():
    pr = brute_force_profile(family(FamilyKind.CYCLE, 4))
    assert pr.counts == (0, 0, 1, 2, 1)
    assert pr.bell == 4 and pr.total == 12


def test_brute_force_p3_and_k1():
    assert brute_force_profile(family(FamilyKind.PATH, 3)).counts == (0, 0, 1, 1)
    assert brute_force_profile(family(FamilyKind.PATH, 1)).counts == (0, 1)


def test_brute_force_guardrail():
    with pytest.raises(ResourceError):
        brute_force_profile(family(FamilyKind.EMPTY, 13))


def test_engine_matches_oracle_exhaustive_small():
    memo = ProfileCache()
    for n in range(5):
        for g in all_graphs(n):
            assert profile(g, memo) == brute_force_profile(g)


def test_engine_matches_oracle_random():
    rng = Random(321)
    memo = ProfileCache()
    for i in range(60):
        g = random_graph(5 + i % 4, rng)
        assert profile(g, memo) == brute_force_profile(g)


# --- deletion-contraction identities as data -------------------------------------


def test_edge_deletion_identity():
    rng = Random(17)
    for _ in range(50):
        g = random_graph(rng.randint(3, 8), rng, edge_prob=0.6)
        edges = g.edges()
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        assert profile(g) == profile(g.delete_edge(u, v)) - profile(g.merge(u, v))


def test_edge_addition_identity():
    rng = Random(18)
    for _ in range(50):
        g = random_graph(rng.randint(3, 8), rng, edge_prob=0.4)
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = non_edges[rng.randrange(len(non_edges))]
        assert profile(g) == profile(g.add_edge(u, v)) + profile(g.merge(u, v))


def test_dominating_vertex_shifts_average_by_one():
    rng = Random(19)
    for _ in range(30):
        base = random_graph(rng.randint(2, 7), rng)
        g = Graph.from_edges(
            base.n + 1, base.edges() + [(v, base.n) for v in range(base.n)]
        )
        assert avg_colors(g) == 1 + avg_colors(base)


def plant_simplicial(base, rng):
    """Attach a new vertex whose neighborhood is a clique of the base graph."""
    clique = [rng.randrange(base.n)]
    candidates = list(range(base.n))
    rng.shuffle(candidates)
    for w in candidates:
        if w not in clique and all(base.has_edge(w, x) for x in clique):
            clique.append(w)
            if len(clique) >= 3:
                break
    return Graph.from_edges(base.n + 1, base.edges() + [(x, base.n) for x in clique])


def test_simplicial_vertex_strictly_raises_average():
    rng = Random(20)
    for _ in range(30):
        base = random_graph(rng.randint(2, 7), rng)
        g = plant_simplicial(base, rng)
        assert avg_colors(g) > avg_colors(base)


def test_isolated_vertex_convolution():
    rng = Random(21)
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), rng)
        with_k1 = Graph.from_edges(g.n + 1, g.edges())
        sub = profile(g).counts
        got = profile(with_k1).counts
        for k in range(g.n + 2):
            expect = k * (sub[k] if k <= g.n else 0) + (sub[k - 1] if k >= 1 else 0)
            assert got[k] == expect


# --- memoization and determinism ---------------------------------------------------


def memo_test_graphs():
    rng = Random(22)
    return [random_graph(rng.randint(3, 8), rng) for _ in range(20)]


def test_memo_disabled_matches_enabled():
    shared = ProfileCache()
    for g in memo_test_graphs():
        expected = profile(g, memo=None)
        assert expected == profile(g, ProfileCache()) == profile(g)
        assert profile(g, shared) == expected


def test_profile_never_fingerprints(monkeypatch):
    def refuse(g):
        raise AssertionError("profile() computed a canonical fingerprint")

    original = graph_core.canonical_key
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "graphbell" and getattr(module, "canonical_key", None) is original:
            monkeypatch.setattr(module, "canonical_key", refuse)
    for g in memo_test_graphs():
        expected = brute_force_profile(g)
        assert profile(g, ProfileCache()) == profile(g) == expected
    pr = profile(family(FamilyKind.CYCLE, 14), ProfileCache())
    agg = cycle_aggregates(14)
    assert pr.bell == agg.b and pr.total == agg.t


def test_memo_length_counts_labeled_entries():
    stored = set()

    class Recording(ProfileCache):
        def put(self, g, counts):
            stored.add((g.n, g.adj))
            super().put(g, counts)

    memo = Recording()
    profile(family(FamilyKind.PATH, 300), memo)
    assert 0 < len(memo) == len(stored) <= 300


def test_memo_is_populated_and_reused():
    memo = ProfileCache()
    g = family(FamilyKind.CYCLE, 9)
    first = profile(g, memo)
    assert len(memo) > 0
    assert profile(g, memo) == first


def test_engine_handles_structured_midsize_quickly():
    pr = profile(family(FamilyKind.CYCLE, 14), ProfileCache())
    agg = cycle_aggregates(14)
    assert pr.bell == agg.b and pr.total == agg.t


# --- aggregates -----------------------------------------------------------------


def test_avg_colors_c5():
    assert avg_colors(family(FamilyKind.CYCLE, 5)) == Fraction(40, 11)


def test_avg_colors_empty3():
    assert avg_colors(family(FamilyKind.EMPTY, 3)) == Fraction(10, 5) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_avg_colors_complete(n):
    g = family(FamilyKind.COMPLETE, n)
    assert avg_colors(g) == n
    assert bell_graph(g) == 1 and total_graph(g) == n


def test_avg_colors_null_graph_rejected():
    with pytest.raises(DomainError):
        avg_colors(family(FamilyKind.EMPTY, 0))


# --- profile value object ---------------------------------------------------------


def test_profile_arithmetic_alignment():
    a = StirlingProfile(2, (0, 1, 1))
    b = StirlingProfile(1, (0, 1))
    assert (a + b).counts == (0, 2, 1)
    assert (a - b).counts == (0, 0, 1)
    assert (a + b).n == 2


def test_profile_length_validated():
    with pytest.raises(ValueError):
        StirlingProfile(2, (1, 0))
