"""Closed-form family aggregates against the engine and against each other."""

from fractions import Fraction
from math import comb

import pytest

from graphbell import sequences
from graphbell.closed_forms import (
    FamilyAggregates,
    aggregates_for,
    complete_aggregates,
    empty_aggregates,
    hnr_pk1_aggregates,
    tree_pk1_aggregates,
)
from graphbell.coloring_engine import ProfileCache, profile
from graphbell.errors import DomainError, ResourceError
from graphbell.graph_core import FamilyKind, FamilySpec, Graph, build
from graphbell.sequences import bell

MEMO = ProfileCache()


def engine_bt(g):
    pr = profile(g, MEMO)
    return pr.bell, pr.total


def with_isolated(g, p):
    return Graph.from_edges(g.n + p, g.edges())


# --- trees ------------------------------------------------------------------------


def test_tree_aggregates_values():
    a4 = tree_pk1_aggregates(4, 0)
    assert (a4.b, a4.t) == (5, 15)
    a1 = tree_pk1_aggregates(1, 0)
    assert (a1.b, a1.t, a1.a) == (1, 1, Fraction(1))


def test_tree_aggregates_rejects_zero():
    with pytest.raises(DomainError):
        tree_pk1_aggregates(0, 0)
    with pytest.raises(DomainError):
        tree_pk1_aggregates(0, 1)


def test_tree_shape_independence():
    for n in range(1, 8):
        expected = (tree_pk1_aggregates(n, 0).b, tree_pk1_aggregates(n, 0).t)
        for kind in (FamilyKind.PATH, FamilyKind.STAR, FamilyKind.CATERPILLAR):
            assert engine_bt(build(FamilySpec(kind, n))) == expected


def test_tree_pk1_values():
    assert tree_pk1_aggregates(1, 1).b == bell(0) + bell(1) == 2
    assert tree_pk1_aggregates(3, 2).b == bell(2) + 2 * bell(3) + bell(4) == 27
    a = tree_pk1_aggregates(2, 0)
    assert (a.b, a.t) == (1, 2)


def test_tree_pk1_matches_engine():
    for n in range(1, 7):
        for p in range(3):
            agg = tree_pk1_aggregates(n, p)
            g = with_isolated(build(FamilySpec(FamilyKind.PATH, n)), p)
            assert engine_bt(g) == (agg.b, agg.t)


# --- cycles -----------------------------------------------------------------------


def test_cycle_aggregates_values():
    assert (hnr_pk1_aggregates(5, 0, 0).b, hnr_pk1_aggregates(5, 0, 0).t) == (11, 40)
    assert (hnr_pk1_aggregates(3, 0, 0).b, hnr_pk1_aggregates(3, 0, 0).t) == (1, 3)
    assert (hnr_pk1_aggregates(4, 0, 0).b, hnr_pk1_aggregates(4, 0, 0).t) == (4, 12)


def test_cycle_aggregates_domain():
    with pytest.raises(DomainError):
        hnr_pk1_aggregates(2, 0, 0)


def test_cycle_pk1_reduces_to_cycle():
    # With no isolated vertex, b and t are single alternating Bell sums.
    def alternating(n, s):
        return sum((-1) ** (j + 1) * bell(n - j + s) for j in range(1, n))

    for n in range(3, 10):
        assert hnr_pk1_aggregates(n, 0, 0) == FamilyAggregates(alternating(n, 0), alternating(n, 1))


def test_cycle_pk1_c3_one_isolated():
    # formula and engine agree; the value is 4 stable-set partitions
    agg = hnr_pk1_aggregates(3, 0, 1)
    g = with_isolated(build(FamilySpec(FamilyKind.CYCLE, 3)), 1)
    assert (agg.b, agg.t) == engine_bt(g) == (4, 13)


def test_cycle_pk1_matches_engine():
    for n in range(3, 8):
        for p in range(3):
            agg = hnr_pk1_aggregates(n, 0, p)
            g = with_isolated(build(FamilySpec(FamilyKind.CYCLE, n)), p)
            assert engine_bt(g) == (agg.b, agg.t)


def test_cycle_telescoping():
    for n in range(4, 26):
        cycle, tree, smaller = (
            hnr_pk1_aggregates(n, 0, 0), tree_pk1_aggregates(n, 0), hnr_pk1_aggregates(n - 1, 0, 0)
        )
        assert cycle.b == tree.b - smaller.b
        assert cycle.t == tree.t - smaller.t


# --- tailed triangles and tailed cycles ----------------------------------------------


def test_h3_tail_values():
    assert hnr_pk1_aggregates(3, 0, 0).b == bell(2) - bell(1) == 1
    assert hnr_pk1_aggregates(3, 1, 0).b == bell(3) - bell(2) == 3
    paw = build(FamilySpec(FamilyKind.HNR, 3, r=1))
    assert engine_bt(paw) == (hnr_pk1_aggregates(3, 1, 0).b, hnr_pk1_aggregates(3, 1, 0).t)


def test_h3_tail_matches_engine():
    for m in range(0, 4):
        for p in range(3):
            agg = hnr_pk1_aggregates(3, m, p)
            g = build(FamilySpec(FamilyKind.HNR, 3, r=m, p=p))
            assert engine_bt(g) == (agg.b, agg.t)


def test_hnr_triangle_case_collapses_to_h3_tail():
    # At n = 3 each alternating Bell sum has two terms: A(3, s) = bell(s+2) - bell(s+1).
    def two_terms(s, p):
        return sum(comb(p, i) * (bell(s + i + 2) - bell(s + i + 1)) for i in range(p + 1))

    for r in range(4):
        for p in range(3):
            assert hnr_pk1_aggregates(3, r, p) == FamilyAggregates(two_terms(r, p), two_terms(r + 1, p))


def test_hnr_4_0_0_matches_cycle4():
    agg = hnr_pk1_aggregates(4, 0, 0)
    assert (agg.b, agg.t) == (4, 12)


def test_hnr_matches_engine_h51():
    agg = hnr_pk1_aggregates(5, 1, 0)
    assert engine_bt(build(FamilySpec(FamilyKind.HNR, 5, r=1))) == (agg.b, agg.t)


def test_hnr_zero_tail_is_cycle_family():
    # Against the engine on a cycle listed edge by edge, not built from a spec.
    for n in range(3, 11):
        for p in range(3):
            hn = hnr_pk1_aggregates(n, 0, p)
            cycle = Graph.from_edges(n + p, [(i, (i + 1) % n) for i in range(n)])
            assert (hn.b, hn.t) == engine_bt(cycle)


def test_h3_tail_is_path_difference():
    # a tailed triangle is the difference of two consecutive trees, p isolated vertices each
    for m in range(41):
        for p in range(6):
            big, small = tree_pk1_aggregates(m + 3, p), tree_pk1_aggregates(m + 2, p)
            assert hnr_pk1_aggregates(3, m, p) == FamilyAggregates(big.b - small.b, big.t - small.t)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
def test_hnr_matches_engine_beyond_order_ten(n):
    for r in (0, 1, 7, 20):
        for p in (0, 1, 3):
            agg = hnr_pk1_aggregates(n, r, p)
            pr = profile(build(FamilySpec(FamilyKind.HNR, n, r=r, p=p)), ProfileCache())
            assert (pr.bell, pr.total) == (agg.b, agg.t), (n, r, p)


def test_hnr_two_step_recursion():
    # order-n tailed cycle = triangle with the whole tail + order-(n-2) tailed cycle
    for n in range(5, 13):
        for r in range(4):
            for p in range(3):
                whole = hnr_pk1_aggregates(n, r, p)
                tri = hnr_pk1_aggregates(3, n - 3 + r, p)
                drop = hnr_pk1_aggregates(n - 2, r, p)
                assert whole.b == tri.b + drop.b
                assert whole.t == tri.t + drop.t


def lemma15_identity_check(n, p):
    """Both aggregates of C_n plus p+2 isolated vertices, against tailed cycles.

    They must equal the tail-2 + 2*tail-1 + tail-0 combination of the
    tailed-cycle values with p isolated vertices.
    """
    lhs = hnr_pk1_aggregates(n, 0, p + 2)
    two, one, zero = (hnr_pk1_aggregates(n, r, p) for r in (2, 1, 0))
    return (lhs.b, lhs.t) == (two.b + 2 * one.b + zero.b, two.t + 2 * one.t + zero.t)


def test_lemma15_identity_grid():
    for n in range(3, 9):
        for p in range(3):
            assert lemma15_identity_check(n, p)


# --- trivial families and dispatch ----------------------------------------------------


def test_empty_aggregates_match_engine():
    for n in range(0, 7):
        agg = empty_aggregates(n)
        g = build(FamilySpec(FamilyKind.EMPTY, n))
        assert engine_bt(g) == (agg.b, agg.t)
    # binomial identity route: a one-vertex tree plus n-1 isolated vertices
    for n in range(1, 8):
        assert empty_aggregates(n).b == tree_pk1_aggregates(1, n - 1).b


def test_complete_aggregates():
    for n in range(1, 7):
        agg = complete_aggregates(n)
        assert (agg.b, agg.t, agg.a) == (1, n, Fraction(n))


def test_aggregates_for_dispatch():
    assert aggregates_for(FamilySpec(FamilyKind.STAR, 5, p=1)).b == tree_pk1_aggregates(5, 1).b
    assert aggregates_for(FamilySpec(FamilyKind.CYCLE, 6, p=2)).b == hnr_pk1_aggregates(6, 0, 2).b
    assert aggregates_for(FamilySpec(FamilyKind.HNR, 5, r=2, p=1)).b == hnr_pk1_aggregates(5, 2, 1).b
    assert aggregates_for(FamilySpec(FamilyKind.EMPTY, 4)).b == bell(4)
    assert aggregates_for(FamilySpec(FamilyKind.COMPLETE, 4)).t == 4
    # Every kind against the engine, with and without isolated vertices.
    for kind in FamilyKind:
        for p in (0,) if kind is FamilyKind.COMPLETE else (0, 2):
            spec = FamilySpec(kind, 5, r=2 if kind is FamilyKind.HNR else 0, p=p)
            agg = aggregates_for(spec)
            assert (agg.b, agg.t) == engine_bt(build(spec)), spec
    with pytest.raises(DomainError):
        aggregates_for(FamilySpec(FamilyKind.COMPLETE, 4, p=1))


@pytest.mark.parametrize("form,args", [
    (tree_pk1_aggregates, (20, 0)),
    # The plain cycle and the tailed triangle go through the tailed-cycle form too.
    pytest.param(hnr_pk1_aggregates, (20, 0, 0), id="cycle"),
    pytest.param(hnr_pk1_aggregates, (3, 17, 0), id="tailed-triangle"),
    (hnr_pk1_aggregates, (15, 5, 0)),
    (lemma15_identity_check, (18, 0)),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_closed_forms_refuse_past_the_bell_cap_before_any_term(monkeypatch, form, args):
    # Each call reads Bell index 20, one past a cap of 20 terms, and must be
    # refused while the column still holds only bell(0).  With one term more
    # of cap, the same call is answered.
    monkeypatch.setattr(sequences, "HARD_MAX_TERMS", 20)
    cache = sequences.BigSeqCache()
    monkeypatch.setattr(sequences, "_SHARED", cache)
    with pytest.raises(ResourceError,
                       match="^requested capacity 21 exceeds the hard cap of 20 terms$"):
        form(*args)
    assert len(cache._bell) == 1
    monkeypatch.setattr(sequences, "HARD_MAX_TERMS", 21)
    form(*args)


def test_aggregate_invariants():
    samples = [
        tree_pk1_aggregates(4, 2),
        hnr_pk1_aggregates(6, 0, 1),
        hnr_pk1_aggregates(3, 2, 2),
        hnr_pk1_aggregates(7, 2, 1),
    ]
    for agg in samples:
        assert agg.b >= 1
        assert agg.a == Fraction(agg.t, agg.b)


def test_binomial_forms_build_family_aggregates():
    # Both forms build their record without the generated ``__new__``.
    for agg in (tree_pk1_aggregates(5, 2), hnr_pk1_aggregates(5, 1, 2), hnr_pk1_aggregates(4, 0, 0)):
        assert type(agg) is FamilyAggregates
        assert FamilyAggregates(*agg) == agg
