"""Engine vs. oracle, reduction identities, and the profile value object."""

import hashlib
import subprocess
import sys
import time
import tracemalloc
import zlib
from fractions import Fraction
from itertools import combinations
from math import perm
from operator import add, sub
from random import Random

import pytest

from graphbell import coloring_engine
from graphbell.coloring_engine import (
    PROFILE_MAX_ORDER,
    ProfileCache,
    StirlingProfile,
    brute_force_profile,
    check_order,
    profile,
)
from graphbell.closed_forms import aggregates_for, hnr_pk1_aggregates
from graphbell.errors import DomainError, ResourceError
from graphbell.graph_core import (
    FamilyKind,
    FamilySpec,
    Graph,
    build,
    flipped,
    merged_set,
    random_graph,
    without,
)
from graphbell.sequences import STIRLING_MAX_ROWS, bell, stirling_rows


def family(kind, n, r=0, p=0):
    return build(FamilySpec(kind, n, r=r, p=p))


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


# --- ground truth ---------------------------------------------------------------


def test_c5_profile():
    pr = profile(family(FamilyKind.CYCLE, 5), ProfileCache())
    assert pr.counts == (0, 0, 0, 5, 5, 1)
    assert pr.bell == 11 and pr.total == 40
    assert pr.average == Fraction(40, 11)
    assert pr.chromatic_number == 3


def test_empty_graph_profile_is_stirling_row():
    pr = profile(family(FamilyKind.EMPTY, 4), ProfileCache())
    assert pr.counts == (0, 1, 7, 6, 1)
    assert pr.bell == bell(4) == 15
    assert pr.counts == brute_force_profile(family(FamilyKind.EMPTY, 4)).counts
    # The engine peels isolated vertices; the triangle is built by its own
    # recurrence.  A fresh memo, so the suite does not keep the large rows.
    checked = (0, 1, 100, STIRLING_MAX_ROWS - 1)
    for n, row in enumerate(stirling_rows(checked[-1])):
        if n in checked:
            assert profile(family(FamilyKind.EMPTY, n), ProfileCache()).counts == tuple(row)


def test_triangle_profile():
    pr = profile(family(FamilyKind.CYCLE, 3), ProfileCache())
    assert pr.counts == (0, 0, 0, 1)
    assert pr.bell == 1 and pr.total == 3


def test_null_graph_profile():
    pr = profile(family(FamilyKind.EMPTY, 0), ProfileCache())
    assert pr.counts == (1,)
    assert pr.bell == 1 and pr.total == 0


# --- brute-force oracle ----------------------------------------------------------


def test_edgeless_oracle_counts_every_partition():
    # Every partition of an edgeless graph is stable, so the oracle's tally
    # must be the whole Stirling row, found without the Bell or Stirling
    # recurrences.  Edgeless graphs are the oracle's costliest per vertex,
    # and order 14 is still inside its budget.
    for n, row in enumerate(stirling_rows(14)):
        counts = brute_force_profile(Graph.from_edges(n)).counts
        assert counts == tuple(row)
        assert sum(counts) == bell(n)


def test_brute_force_c4():
    pr = brute_force_profile(family(FamilyKind.CYCLE, 4))
    assert pr.counts == (0, 0, 1, 2, 1)
    assert pr.bell == 4 and pr.total == 12


def test_brute_force_p3_and_k1():
    assert brute_force_profile(family(FamilyKind.PATH, 3)).counts == (0, 0, 1, 1)
    assert brute_force_profile(family(FamilyKind.PATH, 1)).counts == (0, 1)


def test_oracle_budget_stops_edgeless_22(monkeypatch):
    # Edgeless order 22 needs far more steps than the budget allows.  A small
    # budget is used up at once, before the memo or the stack grow large.
    monkeypatch.setattr(coloring_engine, "ORACLE_STEP_BUDGET", 50_000)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceError, match="budget of 50000 steps"):
            brute_force_profile(family(FamilyKind.EMPTY, 22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 1_000_000


def test_oracle_ends_without_recursion_at_order_1024():
    # The oracle keeps one explicit stack, so a clique, which opens one
    # subset per vertex, needs no recursion; an edgeless graph uses up the
    # budget instead.
    n = 1024
    full = (1 << n) - 1
    clique = Graph(tuple(full ^ 1 << v for v in range(n)))
    assert brute_force_profile(clique).counts == (0,) * n + (1,)
    with pytest.raises(ResourceError):
        brute_force_profile(family(FamilyKind.EMPTY, n))


def test_profile_order_cap():
    check_order(PROFILE_MAX_ORDER)
    memo = ProfileCache()
    with pytest.raises(ResourceError):
        profile(family(FamilyKind.EMPTY, PROFILE_MAX_ORDER + 1), memo)
    # A graph built from its masks directly is refused the same way: its
    # order is the number of masks.
    with pytest.raises(ResourceError):
        profile(Graph((0,) * (PROFILE_MAX_ORDER + 1)), memo)
    assert len(memo) == 0  # refused before any work


def test_engine_matches_oracle_exhaustive_small():
    # The labeled graphs on at most SMALL_ORDER vertices (33,868 for orders
    # 0-6).  Those on 6 are the rows of the shipped file, which follow the
    # graphs' edge-subset index; the smaller ones are read from those rows
    # with dominating vertices added.  Each row is checked against the
    # oracle, and each graph through ``profile``, which must answer it from
    # the rows without touching the memo.
    small = coloring_engine.SMALL_ORDER
    graphs = [g for n in range(small + 1) for g in all_graphs(n)]
    expected = {g.adj: brute_force_profile(g).counts for g in graphs}
    assert len(expected) == sum(2 ** (n * (n - 1) // 2) for n in range(small + 1)) == 33_868
    assert coloring_engine._table_rows() == bytes(
        [c for g in all_graphs(6) for c in expected[g.adj]])
    memo = Recording()
    for g in graphs:
        assert profile(g, memo).counts == expected[g.adj]
    assert not memo.looked_up and not memo.stored


def test_table_file_is_its_builders_output(monkeypatch):
    # The shipped rows, inflated, are byte for byte what the engine's own
    # rules build; ``write_table_file`` regenerates the file from them.
    # They are built with the table cut to the null graph, so no row is
    # read and regenerating the file never reads the file it replaces.
    # The packed bytes themselves may differ between zlib builds.
    def refuse():
        raise AssertionError("a row was read")

    with open(coloring_engine.TABLE_FILE, "rb") as f:
        packed = f.read()
    monkeypatch.setattr(coloring_engine, "_wide_rows", refuse)
    assert zlib.decompress(packed) == coloring_engine._table_file_rows()


def test_profile_record_is_a_stirling_profile():
    # ``profile`` builds its record without the generated ``__new__``, from
    # the table and from the work stack alike.
    rng = Random(43)
    for n in range(9):
        for _ in range(6):
            p = profile(random_graph(n, rng), ProfileCache())
            assert type(p) is StirlingProfile
            assert StirlingProfile(*p) == p and p.n == n


def test_table_answers_through_order_7_without_the_work_stack(monkeypatch):
    def refuse(*args):
        raise AssertionError("the work stack ran")

    monkeypatch.setattr(coloring_engine, "_profile_counts", refuse)
    for n in range(6):
        for g in all_graphs(n):
            assert profile(g, ProfileCache()) == brute_force_profile(g), g
    rng = Random(1)
    for n in (6, 7):
        for _ in range(50):
            g = random_graph(n, rng, edge_prob=rng.random())
            assert profile(g, ProfileCache()) == brute_force_profile(g), g
    with pytest.raises(AssertionError, match="work stack"):
        profile(random_graph(8, Random(1)), ProfileCache())


def test_order_7_is_one_step_over_the_table_rows():
    # Every graph on 7 vertices is summed from order-6 rows before the memo
    # is asked: here 512 seeded graphs as its first six vertices, each with
    # all 64 neighborhoods of vertex 6.
    rng = Random(37)
    memo = Recording()
    for _ in range(512):
        h = random_graph(6, rng, edge_prob=rng.random()).adj
        for s in range(64):
            g = Graph(tuple(a | (s >> i & 1) << 6 for i, a in enumerate(h)) + (s,))
            assert profile(g, memo) == brute_force_profile(g), g
    # The edgeless graph has the largest counts, S(7, 3) = 301 and
    # S(7, 4) = 350, past a byte.
    assert profile(family(FamilyKind.EMPTY, 7), memo).counts == (0, 1, 63, 301, 350, 140, 21, 1)
    assert not memo and not memo.looked_up and not memo.stored


def test_engine_matches_oracle_random():
    rng = Random(321)
    memo = ProfileCache()
    for i in range(60):
        g = random_graph(5 + i % 4, rng)
        assert profile(g, memo) == brute_force_profile(g)


def glue(a, b, shared, adjacent=False):
    """Union of a and b with b's first ``shared`` vertices laid on a's first ones.

    With two shared vertices, ``adjacent`` says whether they are joined.
    """

    def place(v):
        return v if v < shared else a.n - shared + v

    edges = set(a.edges()) | {(place(u), place(v)) for u, v in b.edges()}
    if shared == 2:
        edges.discard((0, 1))
        if adjacent:
            edges.add((0, 1))
    return Graph.from_edges(a.n + b.n - shared, sorted(edges))


def test_engine_matches_oracle_orders_10_to_12():
    # The glued pairs split at a separator of 0, 1 or 2 vertices, with the
    # 2-vertex one both joined and not.
    rng = Random(324)
    graphs = [
        random_graph(n, rng, edge_prob=q) for n in (10, 11, 12) for q in (0.3, 0.5, 0.7)
    ]
    for shared, adjacent in [(0, False), (0, False), (1, False), (2, True), (2, False)]:
        graphs.append(glue(random_graph(6, rng), random_graph(6, rng), shared, adjacent))
    for g in graphs:
        assert profile(g, ProfileCache()) == brute_force_profile(g)


def test_engine_matches_oracle_orders_13_to_18():
    # Past the orders the old partition-by-partition oracle reached.  The
    # glued pairs join parts of 8 and 9 vertices on 0, 1 or 2 shared ones,
    # so they have orders 17 and 16.
    rng = Random(325)
    graphs = [random_graph(n, rng, edge_prob=q) for n, q in zip(range(13, 19), (0.5, 0.7) * 3)]
    for shared, adjacent in [(0, False), (1, False), (2, True), (2, False)]:
        a = random_graph(8 + shared // 2, rng, edge_prob=0.7)
        b = random_graph(9, rng, edge_prob=0.7)
        graphs.append(glue(a, b, shared, adjacent))
    for g in graphs:
        assert profile(g, ProfileCache()) == brute_force_profile(g)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_engine_matches_oracle_orders_14_to_18_by_density(q):
    # Generic graphs at the orders where the branch rule sets the cost.  The
    # sparsest, G(18, .3), costs the oracle about 1 s.
    rng = Random(326 + round(10 * q))
    for n in range(14, 19):
        g = random_graph(n, rng, edge_prob=q)
        assert profile(g, ProfileCache()) == brute_force_profile(g)


@pytest.mark.parametrize("small_order", [coloring_engine.SMALL_ORDER, 0])
def test_engine_matches_oracle_in_both_branch_modes(monkeypatch, small_order):
    # No vertex of these graphs peels, so the engine branches at once, beside
    # the highest vertex v of least degree.  In ``hub`` v = 2 has degree 2
    # and neighbors 1 and 3, which become 1 and 2 once v is gone: its
    # children are G-v and (G-v)/{1, 2}, and the memo never sees the child
    # of deleting the edge 2-3, nor the one the mirror rule (lowest v and
    # neighbor) would make.  In ``fill`` v = 5 has degree 4 and
    # N(5) = {2, 6, 7, 8} misses 2-7 and 6-7, so the edge added is 6-7:
    # x = 7 is the highest neighbor with a non-neighbor in N(v), not the
    # highest one, and y = 6 the highest neighbor x misses.  The memo never
    # sees the child the mirror rule (lowest v, x and y) would make.  That
    # fill-in runs with the block step off (cap 0).  At the default cap
    # ``fill`` takes the block step instead: u = 8, the highest vertex of
    # greatest degree (8), misses only 9, so its children are G-8 and
    # G-8-9, and no fill-in child is made.  All run with and without the
    # memo, and with the table cut to the null graph, where the rules alone
    # reach every leaf.
    monkeypatch.setattr(coloring_engine, "SMALL_ORDER", small_order)
    ring = [(v, (v + 1) % 9) for v in range(9)]
    hub = Graph.from_edges(10, [(v, 9) for v in range(3, 9)] + ring)
    holes = {(2, 7), (6, 7), (8, 9)}
    fill = Graph.from_edges(
        10,
        [(2, 5), (5, 6), (5, 7), (5, 8)]
        + [(u, v) for u, v in combinations([0, 1, 2, 3, 4, 6, 7, 8, 9], 2)
           if (u, v) not in holes],
    )
    hub_rest = without(hub.adj, 1 << 2)
    fill_rest = without(fill.adj, 1 << 8)
    cap = coloring_engine.BLOCK_MAX_CHILDREN
    for g, g_cap, children, others in [
        (hub, cap, [hub_rest, merged_set(hub_rest, 1 << 1 | 1 << 2)],
         [flipped(hub.adj, 2, 3), flipped(hub.adj, 0, 1)]),
        (fill, 0, [flipped(fill.adj, 6, 7)], [flipped(fill.adj, 2, 7)]),
        (fill, cap, [fill_rest, without(fill.adj, 3 << 8)],
         [flipped(fill.adj, 6, 7), flipped(fill.adj, 2, 7)]),
    ]:
        monkeypatch.setattr(coloring_engine, "BLOCK_MAX_CHILDREN", g_cap)
        assert coloring_engine.find_peel(g.adj) is None
        memo = ProfileCache()
        assert profile(g, memo) == profile(g, None) == brute_force_profile(g)
        for child in children:
            assert memo.get_labeled(child) is not None
        for other in others:
            assert memo.get_labeled(other) is None


@pytest.mark.parametrize("small_order", [coloring_engine.SMALL_ORDER, 0])
def test_degree_3_elimination_with_one_two_and_three_stable_pairs(monkeypatch, small_order):
    # H is the complement of C7 + K3 on 10 vertices: every degree is 7 and
    # no vertex peels.  v = 3 is planted beside x, y, z of H, so it is the
    # one vertex of least degree, not the last, and goes in one step into
    # H, H/S for each stable pair S of its neighbors, and H/{x, y, z} when
    # all three pairs are stable, the one child counted with a minus sign.
    # No fill-in child, G plus an edge, is ever made.
    monkeypatch.setattr(coloring_engine, "SMALL_ORDER", small_order)
    sparse = {(i, i + 1) for i in range(6)} | {(0, 6), (7, 8), (7, 9), (8, 9)}
    h = Graph.from_edges(10, [e for e in combinations(range(10), 2) if e not in sparse])
    v = 3
    for (x, y, z), stable in [
        ((0, 1, 4), [(0, 1)]),
        ((0, 1, 2), [(0, 1), (1, 2)]),
        ((7, 8, 9), [(7, 8), (7, 9), (8, 9)]),
    ]:
        up = [u + (u >= v) for u in range(10)]
        g = Graph.from_edges(11, [(up[a], up[b]) for a, b in h.edges()]
                             + [(up[u], v) for u in (x, y, z)])
        assert without(g.adj, 1 << v) == h.adj
        assert coloring_engine.find_peel(g.adj) is None
        assert [d for d in map(int.bit_count, g.adj) if d < 7] == [3]
        children = [h.adj] + [merged_set(h.adj, 1 << a | 1 << b) for a, b in stable]
        if len(stable) == 3:
            children.append(merged_set(h.adj, 1 << x | 1 << y | 1 << z))
        memo = ProfileCache()
        assert profile(g, memo) == profile(g, None) == brute_force_profile(g)
        for child in children:
            assert memo.get_labeled(child) is not None
        assert [adj for adj in memo if len(adj) == g.n] == [g.adj]


def block_graph(m, joined):
    """u = 2m beside a_0..a_m-1, each a_i joined to every b_j = m + j but b_i.

    u is also joined to b_0..b_joined-1.  A and B are stable, so u, the last
    vertex of greatest degree, has 2^(m - joined) stable sets of
    non-neighbors.  At m >= 5 every degree is at least 4 and none peels.
    """
    edges = [(a, m + b) for a in range(m) for b in range(m) if a != b]
    edges += [(a, 2 * m) for a in range(m)] + [(m + b, 2 * m) for b in range(joined)]
    return Graph.from_edges(2 * m + 1, edges)


@pytest.mark.parametrize("small_order", [coloring_engine.SMALL_ORDER, 0])
def test_block_step_with_two_and_many_children_and_over_the_cap(monkeypatch, small_order):
    # Past degree 3 the engine expands the block of u, the highest vertex of
    # greatest degree, into G-u-I for each stable set I of u's
    # non-neighbors, unless those sets number more than BLOCK_MAX_CHILDREN;
    # then it fills in beside the least-degree vertex, making a child of
    # order n.  No child of the block step has order n, and every one is
    # stored or a table leaf.  The over-the-cap cases are block_graph(5, 0),
    # whose 32 sets pass a cap of 31 but not one of 32, and
    # block_graph(7, 0), whose 128 pass the default cap.  Without the memo
    # every node fills in, which the runs with ``memo=None`` check.
    monkeypatch.setattr(coloring_engine, "SMALL_ORDER", small_order)
    top = small_order and small_order + 1
    cap = coloring_engine.BLOCK_MAX_CHILDREN
    assert 32 <= cap < 128
    for m, joined, g_cap, blocks in [
        (5, 4, cap, True), (5, 0, cap, True), (5, 0, 32, True), (5, 0, 31, False),
        (7, 0, cap, False),
    ]:
        monkeypatch.setattr(coloring_engine, "BLOCK_MAX_CHILDREN", g_cap)
        g = block_graph(m, joined)
        assert coloring_engine.find_peel(g.adj) is None
        assert min(map(int.bit_count, g.adj)) >= 4
        memo = ProfileCache()
        assert profile(g, memo) == profile(g, None) == brute_force_profile(g)
        full = [adj for adj in memo if len(adj) == g.n]
        if not blocks:
            assert len(full) == 2 and g.adj in full
            continue
        assert full == [g.adj]
        rest = range(m + joined, 2 * m)
        subsets = [sum(1 << b for i, b in enumerate(rest) if s >> i & 1)
                   for s in range(1 << len(rest))]
        assert len(subsets) == (2 if joined else 32)
        for subset in subsets:
            child = without(g.adj, 1 << 2 * m | subset)
            assert len(child) <= top or memo.get_labeled(child) is not None


def test_block_step_is_off_without_a_memo(monkeypatch):
    # Without a memo no child of a block step is shared, so the engine fills
    # in at every node of least degree 4 or more.  Of the engine's calls to
    # ``without``, only the block step's cut a graph of the search that
    # has no peel and least degree 4 or more: a peel cuts a graph that
    # peels (the root's chain a list), and the elimination one of least
    # degree 2 or 3.  block_graph(5, 4) has two block children, G-u and
    # G-u-b_4.
    blocks = []

    def spy(adj, drop):
        if (type(adj) is tuple and coloring_engine.find_peel(adj) is None
                and min(map(int.bit_count, adj)) > 3):
            blocks.append((adj, drop))
        return without(adj, drop)

    monkeypatch.setattr(coloring_engine, "without", spy)
    g = block_graph(5, 4)
    assert profile(g, None) == brute_force_profile(g)
    assert blocks == []
    assert profile(g, ProfileCache()) == brute_force_profile(g)
    assert blocks[:2] == [(g.adj, 1 << 10), (g.adj, 1 << 10 | 1 << 9)]


def grid_graph(r):
    """The r x r grid, its vertices numbered row by row."""
    return Graph.from_edges(r * r, sorted([(v, v + 1) for v in range(r * r) if v % r < r - 1]
                                          + [(v, v + r) for v in range(r * r - r)]))


def test_degree_3_elimination_search_size_and_digests():
    # Sparse graphs whose branch vertices mostly have degree 2 or 3, and two
    # dense ones, where the block step takes the place of fill-in.  Each
    # memo's size, the number of graphs the search stored, is pinned, so a
    # change of rule that moves the search fails here even where every count
    # holds.  Filling in beside each degree-3 vertex stored 26 graphs for
    # the Petersen graph and 1,182,067 for the 6x6 grid.
    def search(g):
        memo = ProfileCache()
        return profile(g, memo).counts, len(memo)

    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert search(petersen) == (brute_force_profile(petersen).counts, 6)
    # The circular ladder, two 14-cycles joined by the spokes i, i + 14,
    # against its chromatic polynomial (x^2-3x+3)^14 + (x-1)((3-x)^14 +
    # (1-x)^14) + x^2-3x+1 in the falling-factorial basis at m = 0..28.
    ladder = Graph.from_edges(28, [(i, (i + 1) % 14) for i in range(14)]
                              + [(14 + i, 14 + (i + 1) % 14) for i in range(14)]
                              + [(i, i + 14) for i in range(14)])
    counts, size = search(ladder)
    assert size == 1_205
    for m in range(29):
        assert sum(c * perm(m, k) for k, c in enumerate(counts)) == (
            (m * m - 3 * m + 3) ** 14 + (m - 1) * ((3 - m) ** 14 + (1 - m) ** 14)
            + m * m - 3 * m + 1)
    counts, size = search(family(FamilyKind.CYCLE, 300))
    assert size == 439
    agg = hnr_pk1_aggregates(300, 0, 0)
    assert (sum(counts), sum(k * c for k, c in enumerate(counts))) == (agg.b, agg.t)
    # The digests, of each count vector written as decimals joined by
    # commas, were taken from the fill-in rule, so here one rule checks the
    # other beyond the oracle's reach.  The dense two are within it, and
    # ``brute_force_profile`` gives the same digests.
    for g, digest, size in [
        (grid_graph(6), "1e735aecaa0a8c0147758e373bbea2a7f9e1f19af2ff9514551f8c922ceff827",
         25_395),
        (random_graph(28, Random(3), 0.15),
         "69aac4a5113593b0f7fe6b9d4f400ca521cd4a8f9bc1bf13e1e6fea12f397872", 10_283),
        (random_graph(24, Random(1), 0.2),
         "c16fff1e1195454eb84b307800526e2b80074149269284c082b25edab9406ac4", 3_246),
        (random_graph(20, Random(1), 0.5),
         "486ce75775b2835f826c9e3765bd6a4877720f69f43a1586498523ee53399413", 6_881),
        (random_graph(18, Random(4), 0.7),
         "2b53596058620665213ae6bf335180d76ca173862679f7a6bea4f3e3c184d831", 478),
    ]:
        counts, found = search(g)
        assert hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest() == digest
        assert found == size


def cycle_square(n):
    """C_n(1, 2): vertex i joined to i + 1 and i + 2 mod n, 4-regular for n >= 5."""
    return Graph.from_edges(n, sorted({tuple(sorted((i, (i + d) % n)))
                                       for i in range(n) for d in (1, 2)}))


def cycle_square_colorings(n, m):
    """Proper m-colorings of C_n(1, 2): cyclic words with any 3 consecutive colors distinct.

    Walks of length n on the ordered pairs of distinct colors, one step
    (a, b) -> (b, c) with c not a or b, that return to their start; by
    symmetry, m(m - 1) times those from (0, 1).
    """
    if m < 3:
        return 0
    ways = {(0, 1): 1}
    for _ in range(n):
        step = {}
        for (a, b), w in ways.items():
            for c in range(m):
                if c != a and c != b:
                    step[b, c] = step.get((b, c), 0) + w
        ways = step
    return m * (m - 1) * ways.get((0, 1), 0)


def test_block_step_cap_keeps_fill_in_on_the_square_of_a_cycle():
    # The squares of cycles are 4-regular, so every node past the root's
    # chain branches at least degree 4, and a vertex of greatest degree
    # misses a path-like set whose stable sets grow without bound with n:
    # with no cap C30(1, 2) stores 98,688 graphs (292 filling in alone) and
    # C40(1, 2) passes 3 GB.  Under the cap they fill in until the graph is
    # small, then take the block step; the memo sizes are pinned.  The
    # counts are checked against the proper colorings: at 0..20 colors,
    # which fixes every count of C20(1, 2), and at 0..12 for C40(1, 2).
    for n, size, colors in [(20, 980, 21), (40, 1_260, 13)]:
        memo = ProfileCache()
        counts = profile(cycle_square(n), memo).counts
        assert len(memo) == size
        for m in range(colors):
            assert sum(c * perm(m, k) for k, c in enumerate(counts)) == cycle_square_colorings(n, m)


_BIPARTITE = (
    "import sys\n"
    "from graphbell.coloring_engine import ProfileCache, profile\n"
    "from graphbell.graph_core import Graph\n"
    "m, n = map(int, sys.argv[1:])\n"
    "g = Graph.from_edges(m + n, [(a, m + b) for a in range(m) for b in range(n)])\n"
    "print(*profile(g, ProfileCache()).counts)\n"
)


@pytest.mark.parametrize("m, n", [(9, 9), (7, 15), (16, 16), (18, 18)])
def test_fill_in_keeps_complete_bipartite_graphs_fast(child_env, m, n):
    # A vertex of K(m, n) misses only its own side, a stable set, so the
    # block step would list 2^(side - 1) sets: K(7, 15) takes it at the cap,
    # and the others pass the cap and fill in.  Uncapped, the block step
    # took K(16, 16) from 0.09 to 1.6 s, and K(18, 18), with 131,072
    # children, overflowed the C stack in the combine; with the cap,
    # K(18, 18) takes about 0.3 s.  Each graph runs in a child interpreter
    # under a timeout, so a blow-up fails here instead of hanging or
    # crashing the suite.  Every block lies in one side, so
    # counts(k) = sum_i S(m, i) * S(n, k - i), from the Stirling rows, a
    # recurrence the engine never uses.
    proc = subprocess.run([sys.executable, "-c", _BIPARTITE, str(m), str(n)],
                          capture_output=True, text=True, env=child_env, timeout=15)
    assert proc.returncode == 0 and proc.stderr == ""
    rows = list(stirling_rows(max(m, n)))
    expected = [sum(rows[m][i] * rows[n][k - i] for i in range(max(0, k - n), min(m, k) + 1))
                for k in range(m + n + 1)]
    assert list(map(int, proc.stdout.split())) == expected


def networkx_oracle_graphs():
    """Seeded graphs of order <= 7 with isolated, dominating and simplicial vertices."""
    rng = Random(23)
    graphs = [
        family(FamilyKind.EMPTY, 4),
        family(FamilyKind.COMPLETE, 5),
        family(FamilyKind.STAR, 6, p=1),
        family(FamilyKind.PATH, 4, p=2),
        family(FamilyKind.HNR, 4, r=2, p=1),
        family(FamilyKind.CYCLE, 6),
    ]
    for n, q in [(5, 0.3), (5, 0.7), (6, 0.3), (6, 0.5), (6, 0.7), (7, 0.2), (7, 0.3)]:
        graphs.append(random_graph(n, rng, edge_prob=q))
    for _ in range(4):
        graphs.append(plant_simplicial(random_graph(rng.randint(3, 5), rng), rng))
    for _ in range(3):
        base = random_graph(rng.randint(3, 5), rng)
        apex = [(v, base.n) for v in range(base.n)]
        graphs.append(Graph.from_edges(base.n + 2, base.edges() + apex))
    return graphs


def test_engine_matches_networkx_chromatic_polynomial():
    # Third oracle, from installed third-party code: the chromatic polynomial
    # in the falling-factorial basis, P(G, m) = sum_k counts[k] * m^(k falling),
    # evaluated at m = 0..n.
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for g in networkx_oracle_graphs():
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        poly = nx.chromatic_polynomial(nxg)
        counts = profile(g, ProfileCache()).counts
        for m in range(g.n + 1):
            assert sum(c * perm(m, k) for k, c in enumerate(counts)) == poly.subs(x, m)


@pytest.mark.parametrize("small_order, cap", [
    pytest.param(coloring_engine.SMALL_ORDER, coloring_engine.BLOCK_MAX_CHILDREN, id="6"),
    pytest.param(0, coloring_engine.BLOCK_MAX_CHILDREN, id="0"),
    pytest.param(0, 0, id="0-cap-0"),
])
def test_engine_matches_oracle_on_every_atlas_graph(monkeypatch, small_order, cap):
    # Every graph on at most 7 vertices, one per isomorphism class, under
    # four seeded relabellings each: the engine picks vertices by index, so
    # each relabelling can take another branch path.  With the table cut to
    # the null graph, the rules alone reach every leaf: no other row is
    # read, and order 7 takes no step over the rows.  There the block step
    # runs at its default cap, and with the cap at 0, where fill-in takes
    # its place; with the table, no graph here reaches either.
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(coloring_engine, "SMALL_ORDER", small_order)
    monkeypatch.setattr(coloring_engine, "BLOCK_MAX_CHILDREN", cap)
    rng = Random(29)
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for h in atlas:
        n = h.number_of_nodes()
        for _ in range(4):
            label = rng.sample(range(n), n)
            g = Graph.from_edges(n, [(label[u], label[v]) for u, v in h.edges()])
            assert profile(g, ProfileCache()) == brute_force_profile(g), g


# --- deletion- and addition-contraction identities as data ------------------------


def counts_of(adj):
    """Profile counts of a bare adjacency tuple, as the engine's rewrites leave it."""
    return profile(Graph(adj), ProfileCache()).counts


def test_edge_deletion_identity():
    rng = Random(17)
    for _ in range(50):
        g = random_graph(rng.randint(3, 8), rng, edge_prob=0.6)
        edges = g.edges()
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        deleted = counts_of(flipped(g.adj, u, v))
        contracted = counts_of(merged_set(g.adj, 1 << u | 1 << v)) + (0,)
        assert profile(g, ProfileCache()).counts == tuple(map(sub, deleted, contracted))


def test_degree_2_elimination_identity():
    # A degree-2 vertex v with non-adjacent neighbors a and b goes in one
    # step: P(G) = (x-2)*P(G-v) + P((G-v)/ab).  In the falling-factorial
    # basis, (x-2)*x^(k falling) = x^(k+1 falling) + (k-2)*x^(k falling).
    rng = Random(22)
    checked = 0
    for _ in range(60):
        base = random_graph(rng.randint(2, 8), rng, edge_prob=0.5)
        non_edges = [(a, b) for a, b in combinations(range(base.n), 2)
                     if not base.adj[a] >> b & 1]
        if not non_edges:
            continue
        a, b = rng.choice(non_edges)
        v = rng.randint(0, base.n)

        def up(x):
            return x + (x >= v)

        g = Graph.from_edges(
            base.n + 1, [(up(x), up(y)) for x, y in base.edges()] + [(v, up(a)), (v, up(b))]
        )
        rest = without(g.adj, 1 << v)
        lower = counts_of(rest)
        times = tuple((k - 2) * c + d for k, (c, d) in enumerate(zip(lower + (0,), (0,) + lower)))
        contracted = counts_of(merged_set(rest, 1 << a | 1 << b)) + (0, 0)
        assert brute_force_profile(g).counts == tuple(map(add, times, contracted))
        checked += 1
    assert checked >= 40


def test_edge_addition_identity():
    rng = Random(18)
    for _ in range(50):
        g = random_graph(rng.randint(3, 8), rng, edge_prob=0.4)
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.adj[u] >> v & 1
        ]
        if not non_edges:
            continue
        u, v = non_edges[rng.randrange(len(non_edges))]
        added = counts_of(flipped(g.adj, u, v))
        contracted = counts_of(merged_set(g.adj, 1 << u | 1 << v)) + (0,)
        assert profile(g, ProfileCache()).counts == tuple(map(add, added, contracted))


def test_dominating_vertex_shifts_average_by_one():
    rng = Random(19)
    for _ in range(30):
        base = random_graph(rng.randint(2, 7), rng)
        g = Graph.from_edges(
            base.n + 1, base.edges() + [(v, base.n) for v in range(base.n)]
        )
        assert profile(g, ProfileCache()).average == 1 + profile(base, ProfileCache()).average


def plant_simplicial(base, rng):
    """Attach a new vertex whose neighborhood is a clique of the base graph."""
    clique = [rng.randrange(base.n)]
    candidates = list(range(base.n))
    rng.shuffle(candidates)
    for w in candidates:
        if w not in clique and all(base.adj[w] >> x & 1 for x in clique):
            clique.append(w)
            if len(clique) >= 3:
                break
    return Graph.from_edges(base.n + 1, base.edges() + [(x, base.n) for x in clique])


def test_simplicial_vertex_strictly_raises_average():
    rng = Random(20)
    for _ in range(30):
        base = random_graph(rng.randint(2, 7), rng)
        g = plant_simplicial(base, rng)
        assert profile(g, ProfileCache()).average > profile(base, ProfileCache()).average


def test_isolated_vertex_convolution():
    rng = Random(21)
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), rng)
        with_k1 = Graph.from_edges(g.n + 1, g.edges())
        sub = profile(g, ProfileCache()).counts
        got = profile(with_k1, ProfileCache()).counts
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
        assert expected == profile(g, ProfileCache())
        assert profile(g, shared) == expected


class Recording(ProfileCache):
    """A memo that records each graph the engine looks up and each it stores.

    The perfbench tracer counts memo traffic by overriding the same two.
    """

    def __init__(self):
        super().__init__()
        self.looked_up, self.stored = set(), set()

    def get_labeled(self, adj):
        self.looked_up.add(adj)
        return super().get_labeled(adj)

    def put(self, adj, counts):
        self.stored.add(adj)
        super().put(adj, counts)


def test_memo_length_counts_labeled_entries():
    # A path peels to a leaf without a branch, in place, and no graph of that
    # chain can come up again in the call, so only the root is looked up and
    # stored.
    memo = Recording()
    g = family(FamilyKind.PATH, 300)
    counts = profile(g, memo)
    assert list(memo) == [g.adj] and memo.stored == memo.looked_up == {g.adj}
    memo.looked_up.clear()
    assert profile(g, memo) == counts and memo.looked_up == {g.adj}  # one lookup, a hit
    assert profile(g, None) == counts


def test_memo_never_sees_a_table_graph():
    # Graphs on at most SMALL_ORDER (6) vertices are read from the table,
    # and those on 7 are summed from its rows, before the memo is asked; a
    # combine step runs only for a graph the engine expanded, so neither
    # lookups nor stores go below order 8.
    rng = Random(331)
    memo = Recording()
    for q in (0.3, 0.5, 0.7):
        profile(random_graph(11, rng, edge_prob=q), memo)
    orders = {len(adj) for adj in memo.looked_up | memo.stored}
    assert min(orders) == 8


def test_memo_stores_from_the_first_branch_down():
    # A cycle branches at once, so the memo holds every graph it reaches.
    # h:9,3 is that cycle with a path of three vertices, 9-11, hung off
    # vertex 0: the engine peels the path in place from the top down to
    # cycle:9 and branches there, so its memo holds its root and exactly
    # what cycle:9's holds.  The two graphs peeled on the way are neither
    # looked up nor stored, and neither is cycle:9, where the stack starts.
    cycle = family(FamilyKind.CYCLE, 9).adj
    cycle_memo = Recording()
    cycle_counts = profile(Graph(cycle), cycle_memo).counts
    assert set(cycle_memo) == cycle_memo.stored == cycle_memo.looked_up
    g = family(FamilyKind.HNR, 9, r=3)
    memo = Recording()
    counts = profile(g, memo)
    assert set(memo) == memo.stored == {g.adj} | set(cycle_memo)
    chain = {without(g.adj, 1 << 11), without(g.adj, 3 << 10)}
    assert memo.looked_up == {g.adj} | cycle_memo.looked_up - {cycle}
    assert not chain & (memo.looked_up | memo.stored)
    assert memo[cycle] == cycle_counts
    assert profile(g, None) == counts


def test_find_peel_never_scans_a_last_vertex_of_degree_at_most_two(monkeypatch):
    # The engine tests the last vertex before it scans for a peel: isolated,
    # a leaf, or of degree 2 with adjacent neighbors it is simplicial, and
    # of degree 2 with non-adjacent neighbors it is eliminated.  A cycle
    # and a tailed cycle with isolated vertices then never need the scan;
    # the random graph makes sure the wrapper sees calls at all.
    scanned = []
    real = coloring_engine.find_peel

    def find_peel(adj):
        scanned.append(adj[-1].bit_count())
        return real(adj)

    monkeypatch.setattr(coloring_engine, "find_peel", find_peel)
    for spec in (FamilySpec(FamilyKind.CYCLE, 200), FamilySpec(FamilyKind.HNR, 60, r=30, p=2)):
        pr = profile(build(spec), ProfileCache())
        agg = aggregates_for(spec)
        assert (pr.bell, pr.total) == (agg.b, agg.t)
    assert scanned == []
    g = random_graph(12, Random(5), edge_prob=0.5)
    assert profile(g, ProfileCache()) == brute_force_profile(g)
    assert scanned and min(scanned) > 2


def test_memo_is_populated_and_reused():
    memo = ProfileCache()
    g = family(FamilyKind.CYCLE, 9)
    first = profile(g, memo)
    assert len(memo) > 0
    assert profile(g, memo) == first


# A MemoryError leaves ``profile`` with the memo it was handed emptied, from
# anywhere in the call: the memo can hold most of the heap, and the error's
# traceback keeps it alive while the caller reports the error.
def test_memory_error_in_the_work_loop_empties_the_memo(monkeypatch):
    g = random_graph(12, Random(5), edge_prob=0.5)
    assert coloring_engine.find_peel(g.adj) is None  # no chain: the loop runs first
    memo, sizes = ProfileCache(), []

    def without_then_fail(adj, drop):
        sizes.append(len(memo))
        if len(sizes) == 20:
            raise MemoryError
        return without(adj, drop)

    monkeypatch.setattr(coloring_engine, "without", without_then_fail)
    with pytest.raises(MemoryError):
        profile(g, memo)
    assert sizes[-1] > 0 and len(memo) == 0


def test_memory_error_in_the_root_chain_empties_the_memo(monkeypatch):
    memo = ProfileCache()
    profile(random_graph(12, Random(1), edge_prob=0.5), memo)
    g = random_graph(12, Random(5), edge_prob=0.5)
    assert len(memo) > 0 and g.adj[-1].bit_count() > 2  # the chain scans first

    def fail(adj):
        raise MemoryError

    monkeypatch.setattr(coloring_engine, "find_peel", fail)
    with pytest.raises(MemoryError):
        profile(g, memo)
    assert len(memo) == 0


def test_disjoint_union_stays_within_work_bound():
    # The bound is far above what this union needs (about 900 graphs: each
    # branch stays beside one least-degree vertex, inside its component)
    # and far below what a branch rule that interleaves the two components'
    # subproblems stores (about 420k).
    g1 = random_graph(12, Random(1))
    g2 = random_graph(11, Random(2))
    g = Graph(g1.adj + tuple(mask << 12 for mask in g2.adj))
    memo = ProfileCache()
    counts = profile(g, memo).counts
    assert len(memo) <= 10_000

    def poly(cs, m):
        return sum(c * perm(m, k) for k, c in enumerate(cs))

    c1 = profile(g1, ProfileCache()).counts
    c2 = profile(g2, ProfileCache()).counts
    for m in range(24):
        assert poly(counts, m) == poly(c1, m) * poly(c2, m)


def test_dense_generic_graph_stays_within_work_bound():
    # The bound is about three times what this graph needs (about 6.6k
    # graphs) and far below what an earlier branch at vertex 0, blind to its
    # degree and triangles, stored (about 48k).
    g = random_graph(18, Random(1))
    memo = ProfileCache()
    counts = profile(g, memo).counts
    assert len(memo) <= 20_000
    # Reversed labels send the search down another path to the same counts.
    flipped = Graph.from_edges(18, [(17 - v, 17 - u) for u, v in g.edges()])
    assert profile(flipped, ProfileCache()).counts == counts
    # One partition into singletons; one with a single pair per non-edge.
    assert counts[18] == 1
    assert counts[17] == 18 * 17 // 2 - len(g.edges())


def test_sparse_generic_graph_stays_within_work_bound():
    # Sparse graphs branch mostly at degree 2.  The bound is well above what
    # this graph needs (about 27.6k graphs, eliminating each degree-2 vertex
    # in one branch) and well below what deleting an edge at it stored
    # (about 87.6k).
    g = random_graph(24, Random(2), 0.2)
    memo = ProfileCache()
    counts = profile(g, memo).counts
    assert len(memo) <= 45_000
    # Reversed labels send the search down another path to the same counts.
    mirrored = Graph.from_edges(24, [(23 - v, 23 - u) for u, v in g.edges()])
    assert profile(mirrored, ProfileCache()).counts == counts
    # One partition into singletons; one with a single pair per non-edge.
    assert counts[24] == 1
    assert counts[23] == 24 * 23 // 2 - len(g.edges())


def test_engine_handles_structured_midsize_quickly():
    pr = profile(family(FamilyKind.CYCLE, 14), ProfileCache())
    agg = hnr_pk1_aggregates(14, 0, 0)
    assert pr.bell == agg.b and pr.total == agg.t


# --- aggregates -----------------------------------------------------------------


def test_avg_colors_c5():
    assert profile(family(FamilyKind.CYCLE, 5), ProfileCache()).average == Fraction(40, 11)


def test_avg_colors_empty3():
    assert profile(family(FamilyKind.EMPTY, 3), ProfileCache()).average == Fraction(10, 5) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_avg_colors_complete(n):
    g = family(FamilyKind.COMPLETE, n)
    pr = profile(g, ProfileCache())
    assert pr.average == n
    assert pr.bell == 1 and pr.total == n


def test_avg_colors_null_graph_rejected():
    with pytest.raises(DomainError):
        profile(family(FamilyKind.EMPTY, 0), ProfileCache()).average
