"""hypothesis properties of the engine and its graph rewrites.

The engine is checked against the oracle on graphs of order at most 16 and
its other properties on order at most 9 or 10; the rewrite helpers are
checked up to order 70, past the 64-bit mask boundary.

The settings profile registered in ``conftest.py`` derandomizes the search,
so every run draws the same examples.
"""

from itertools import combinations
from random import Random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from graphbell import coloring_engine  # noqa: E402
from graphbell.coloring_engine import (  # noqa: E402
    ProfileCache,
    brute_force_profile,
    find_peel,
    profile,
)
from graphbell.graph_core import (  # noqa: E402
    FamilyKind,
    FamilySpec,
    Graph,
    build,
    flipped,
    induced,
    merged,
    random_graph,
    without_vertex,
)


@st.composite
def graphs(draw, max_order=9):
    n = draw(st.integers(0, max_order))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def family_graphs(draw):
    kind = draw(st.sampled_from(list(FamilyKind)))
    lowest = {FamilyKind.EMPTY: 0, FamilyKind.COMPLETE: 0, FamilyKind.CYCLE: 3, FamilyKind.HNR: 3}
    n = draw(st.integers(lowest.get(kind, 1), 20))
    r = draw(st.integers(0, 8)) if kind is FamilyKind.HNR else 0
    return build(FamilySpec(kind, n, r=r, p=draw(st.integers(0, 3))))


@st.composite
def sampled_graphs(draw):
    n = draw(st.integers(0, 12))
    q = draw(st.sampled_from((0.3, 0.5, 0.7)))
    return random_graph(n, Random(draw(st.integers(0, 2**32))), q)


def chromatic_number(g: Graph) -> int:
    """Least k with a proper k-coloring, by backtracking over vertices in order."""
    colors = [0] * g.n

    def colorable(v: int, k: int) -> bool:
        if v == g.n:
            return True
        used = {colors[u] for u in range(v) if g.adj[v] >> u & 1}
        for c in range(k):
            if c not in used:
                colors[v] = c
                if colorable(v + 1, k):
                    return True
        return False

    return next(k for k in range(g.n + 1) if colorable(0, k))


@settings(max_examples=40)
@given(graphs(max_order=16))
def test_profile_matches_oracle(g):
    assert profile(g, ProfileCache()) == brute_force_profile(g)


def _family(kind, n, r=0, p=0):
    return build(FamilySpec(kind, n, r=r, p=p))


# A memo shared by several calls holds each root and what each stack
# combined; a later root's chain may pass through an earlier root, as h:9,3
# passes through cycle:9 and path:14 with two isolated vertices through
# path:12, and is then not looked up there.  Every answer must still be
# the one a fresh memo and no memo give, with the table at order 6 and cut
# to the null graph.
@pytest.mark.parametrize("small_order", [coloring_engine.SMALL_ORDER, 0])
@settings(max_examples=30)
@given(st.lists(st.one_of(family_graphs(), sampled_graphs()), min_size=1, max_size=6))
@example(gs=[_family(FamilyKind.CYCLE, 9), _family(FamilyKind.HNR, 9, r=3),
             _family(FamilyKind.PATH, 12), _family(FamilyKind.PATH, 14, p=2)])
def test_shared_memo_profiles_match_fresh_and_no_memo(small_order, gs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring_engine, "SMALL_ORDER", small_order)
        memo = ProfileCache()
        for g in gs:
            assert profile(g, memo) == profile(g, ProfileCache()) == profile(g, None)


@settings(max_examples=60)
@given(st.data())
def test_profile_invariant_under_relabeling(data):
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert profile(h, ProfileCache()) == profile(g, ProfileCache())


@settings(max_examples=60)
@given(graphs())
def test_no_partition_below_chromatic_number(g):
    counts = profile(g, ProfileCache()).counts
    chi = chromatic_number(g)
    assert all(c == 0 for c in counts[:chi])
    assert counts[chi] > 0


@settings(max_examples=60)
@given(st.data())
def test_degree_2_elimination_matches_oracle(data):
    # Plant v beside two non-adjacent vertices a and b of a drawn graph:
    # counts(G, k) = (k-2)*counts(G-v, k) + counts(G-v, k-1) + counts((G-v)/ab, k).
    base = data.draw(graphs())
    non_edges = [(a, b) for a, b in combinations(range(base.n), 2) if not base.adj[a] >> b & 1]
    assume(non_edges)
    a, b = data.draw(st.sampled_from(non_edges))
    v = data.draw(st.integers(0, base.n))
    edges = [(x + (x >= v), y + (y >= v)) for x, y in base.edges()]
    g = Graph.from_edges(base.n + 1, edges + [(v, a + (a >= v)), (v, b + (b >= v))])
    rest = without_vertex(g.adj, v)
    lower = profile(Graph(rest), ProfileCache()).counts
    upper = profile(Graph(merged(rest, a, b)), ProfileCache()).counts + (0, 0)
    combined = [(k - 2) * c + d + e
                for k, (c, d, e) in enumerate(zip(lower + (0,), (0,) + lower, upper))]
    assert brute_force_profile(g).counts == tuple(combined)


# Sparse G(n, q), where the least-degree branch vertex often has degree 3
# and goes in one step, into up to five children; without a memo none of
# them is shared.  With the table cut to the null graph, the step also
# runs on the small graphs the table would answer.
@pytest.mark.parametrize("small_order", [coloring_engine.SMALL_ORDER, 0])
@settings(max_examples=40)
@given(st.integers(8, 14), st.floats(0.15, 0.5), st.integers(0, 2**32))
def test_degree_3_elimination_matches_oracle(small_order, n, q, seed):
    g = random_graph(n, Random(seed), q)
    expected = brute_force_profile(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring_engine, "SMALL_ORDER", small_order)
        assert profile(g, ProfileCache()) == profile(g, None) == expected


# Dense G(n, q), where the least degree is often 4 or more and the block of
# the last vertex of greatest degree is expanded, into one child per stable
# set of its non-neighbors.  The cap runs at its default, at 0, where every
# such node fills in instead, and past any count of stable sets an order-14
# graph can have.  Without a memo every such node fills in, so the memo-off
# run checks fill-in against the same oracle.
@pytest.mark.parametrize("cap", [coloring_engine.BLOCK_MAX_CHILDREN, 0, 1 << 14])
@pytest.mark.parametrize("small_order", [coloring_engine.SMALL_ORDER, 0])
@settings(max_examples=25)
@given(st.integers(8, 14), st.floats(0.5, 0.9), st.integers(0, 2**32))
def test_block_step_matches_oracle(small_order, cap, n, q, seed):
    g = random_graph(n, Random(seed), q)
    expected = brute_force_profile(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring_engine, "SMALL_ORDER", small_order)
        mp.setattr(coloring_engine, "BLOCK_MAX_CHILDREN", cap)
        assert profile(g, ProfileCache()) == profile(g, None) == expected


def relabelled(g: Graph, order: int, label) -> Graph:
    """Rebuild ``g`` from its edge list under ``label``.

    Edges at a vertex labelled None are dropped, and so are loops and repeats.
    """
    edges = {tuple(sorted((label(a), label(b)))) for a, b in g.edges()
             if label(a) is not None and label(b) is not None}
    return Graph.from_edges(order, [(a, b) for a, b in edges if a != b])


# sampled_from draws orders and vertices evenly; st.integers favors small
# values and would seldom reach a vertex past bit 63.
@settings(max_examples=60)
@given(st.data())
def test_rewrite_helpers_match_relabelled_edge_lists(data):
    n = data.draw(st.sampled_from(range(1, 71)))
    q = data.draw(st.sampled_from((0.1, 0.5, 0.9)))
    g = random_graph(n, Random(data.draw(st.integers(0, 2**32))), q)
    v = data.draw(st.sampled_from(range(n)))
    # The last vertex, which most peels remove and every merge on a cycle
    # drops, has its own path that shifts no index; at orders above 64 it
    # also reaches bits past 63.
    for x in {0, v, n - 1}:
        gone = relabelled(g, n - 1, lambda y: None if y == x else y - (y > x))
        assert without_vertex(g.adj, x) == gone.adj
        assert g.remove_vertex(x) == gone
    if n < 2:
        return
    u = data.draw(st.sampled_from(range(n)).filter(lambda u: u != v))
    for keep, drop in {(min(u, v), max(u, v)), (min(u, v), n - 1)}:
        joined = relabelled(g, n - 1, lambda x: keep if x == drop else x - (x > drop))
        assert merged(g.adj, keep, drop) == joined.adj
        assert g.merge(keep, drop) == g.merge(drop, keep) == joined
        toggled = Graph.from_edges(n, sorted(set(g.edges()) ^ {(keep, drop)}))
        assert flipped(g.adj, keep, drop) == flipped(g.adj, drop, keep) == toggled.adj
        assert (g.delete_edge if g.adj[keep] >> drop & 1 else g.add_edge)(keep, drop) == toggled


# The kept vertices are renumbered in order; keeping all of them, none, or
# all but a top run are among the draws, and orders reach past bit 63.
@settings(max_examples=60)
@given(st.data())
def test_induced_matches_relabelled_edge_list(data):
    n = data.draw(st.sampled_from(range(71)))
    q = data.draw(st.sampled_from((0.1, 0.5, 0.9)))
    g = random_graph(n, Random(data.draw(st.integers(0, 2**32))), q)
    kept = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep = sum(1 << v for v, k in enumerate(kept) if k)
    rank = {v: i for i, v in enumerate(v for v in range(n) if keep >> v & 1)}
    assert induced(g.adj, keep) == relabelled(g, len(rank), rank.get).adj


@settings(max_examples=100)
@given(graphs(max_order=10))
def test_find_peel_matches_definition(g):
    def rule(v):
        nbrs = [u for u in range(g.n) if g.adj[v] >> u & 1]
        if len(nbrs) == g.n - 1:
            return None
        if all(g.adj[a] >> b & 1 for a, b in combinations(nbrs, 2)):
            return len(nbrs)
        return False

    expected = next(((v, rule(v)) for v in reversed(range(g.n)) if rule(v) is not False),
                    None)
    assert find_peel(g.adj) == expected
