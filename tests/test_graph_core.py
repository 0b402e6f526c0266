"""Graph values, family constructors, rewrite operations, and fingerprints."""

import subprocess
import sys
from random import Random

import pytest

from graphbell import graph_core
from graphbell.closed_forms import FamilyAggregates
from graphbell.coloring_engine import StirlingProfile, find_peel
from graphbell.errors import DomainError, ResourceError, UsageError
from graphbell.graph_core import (
    PROFILE_MAX_ORDER,
    CanonicalKey,
    FamilyKind,
    FamilySpec,
    Graph,
    build,
    canonical_key,
    load_edge_list,
    parse_edge_list,
    random_graph,
)
from graphbell.inequality_verifier import InequalityReport, definition


def cycle(n):
    return build(FamilySpec(FamilyKind.CYCLE, n))


def path(n):
    return build(FamilySpec(FamilyKind.PATH, n))


def complete(n):
    return build(FamilySpec(FamilyKind.COMPLETE, n))


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def is_connected_tree(g):
    if len(g.edges()) != g.n - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in range(g.n):
            if g.adj[v] >> u & 1 and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


# --- constructors ------------------------------------------------------------


def test_build_cycle5():
    g = cycle(5)
    assert g.n == 5 and len(g.edges()) == 5
    assert all(m.bit_count() == 2 for m in g.adj)


def test_build_null_graph():
    g = build(FamilySpec(FamilyKind.EMPTY, 0))
    assert g.n == 0 and g.edges() == []


def test_build_hnr_3_2_1():
    g = build(FamilySpec(FamilyKind.HNR, 3, r=2, p=1))
    assert g.n == 6 and len(g.edges()) == 5
    assert [m.bit_count() for m in g.adj] == [3, 2, 2, 2, 1, 0]


def test_build_hnr_zero_tail_is_cycle():
    assert build(FamilySpec(FamilyKind.HNR, 6, r=0)) == cycle(6)


@pytest.mark.parametrize("n", range(1, 9))
def test_build_family_counts(n):
    assert path(n).n == n and len(path(n).edges()) == n - 1
    star = build(FamilySpec(FamilyKind.STAR, n))
    assert len(star.edges()) == n - 1
    cat = build(FamilySpec(FamilyKind.CATERPILLAR, n))
    assert is_connected_tree(cat)
    if n >= 3:
        assert len(cycle(n).edges()) == n
        for r in range(3):
            for p in range(3):
                h = build(FamilySpec(FamilyKind.HNR, n, r=r, p=p))
                assert h.n == n + r + p
                assert len(h.edges()) == n + r


@pytest.mark.parametrize(
    "spec",
    [
        (FamilyKind.CYCLE, 2, 0, 0),
        (FamilyKind.HNR, 2, 1, 0),
        (FamilyKind.PATH, 0, 0, 0),
        (FamilyKind.PATH, 3, 1, 0),
        (FamilyKind.CYCLE, 5, 0, -1),
    ],
)
def test_invalid_family_parameters(spec):
    kind, n, r, p = spec
    with pytest.raises(DomainError):
        FamilySpec(kind, n, r=r, p=p)


# --- rewrite operations -------------------------------------------------------


def test_delete_edge_triangle_gives_path():
    g = cycle(3).delete_edge(0, 1)
    assert g.edges() == [(0, 2), (1, 2)]


def test_delete_edge_k2():
    g = complete(2).delete_edge(0, 1)
    assert g.edges() == [] and g.n == 2


def test_delete_edge_c5_degrees():
    g = cycle(5).delete_edge(0, 1)
    assert [m.bit_count() for m in g.adj] == [1, 1, 2, 2, 2]


def test_delete_edge_rejects_non_adjacent():
    with pytest.raises(UsageError):
        cycle(5).delete_edge(0, 2)
    with pytest.raises(UsageError):
        cycle(5).delete_edge(1, 1)


def test_add_edge_closes_path_to_cycle():
    assert path(3).add_edge(0, 2) == cycle(3)
    assert path(5).add_edge(0, 4) == cycle(5)
    two_k1 = build(FamilySpec(FamilyKind.EMPTY, 2))
    assert two_k1.add_edge(0, 1) == complete(2)


def test_add_edge_rejects_existing_and_loops():
    with pytest.raises(UsageError):
        cycle(4).add_edge(0, 1)
    with pytest.raises(UsageError):
        cycle(4).add_edge(2, 2)


def test_add_after_delete_roundtrip_random():
    rng = Random(2024)
    for _ in range(60):
        g = random_graph(rng.randint(2, 9), rng)
        edges = g.edges()
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        assert g.delete_edge(u, v).add_edge(u, v) == g


def _edge_list_random_graph(n, rng, edge_prob):
    """The edge-list sampler that ``random_graph`` replaced, kept as its reference."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("edge_prob", [0, 0.3, 0.5, 1])
def test_random_graph_matches_edge_list_sampler(edge_prob):
    # Same graph and the same generator state after each draw, so seeded
    # callers (PROP7_MIX, selftest) draw the same graphs as before.
    new, old = Random(11), Random(11)
    for n in range(13):
        assert random_graph(n, new, edge_prob) == _edge_list_random_graph(n, old, edge_prob)
        assert new.getstate() == old.getstate()


def test_random_graph_rejects_negative_order():
    with pytest.raises(DomainError):
        random_graph(-1, Random(1))


def test_merge_k2_gives_k1():
    g = complete(2).merge(0, 1)
    assert g.n == 1 and g.edges() == []


def test_merge_c4_diagonal_gives_path_center():
    g = cycle(4).merge(0, 2)
    # merged vertex keeps index 0 and is adjacent to both survivors
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2)]


def test_merge_adjacent_on_c5_gives_c4():
    g = cycle(5).merge(0, 1)
    assert g == cycle(4)


def test_merge_rejects_equal_vertices():
    with pytest.raises(UsageError):
        cycle(4).merge(1, 1)


def test_merge_keeps_graph_simple_and_bounded():
    rng = Random(5)
    for _ in range(80):
        g = random_graph(rng.randint(2, 9), rng)
        u = rng.randrange(g.n)
        v = (u + 1 + rng.randrange(g.n - 1)) % g.n
        merged = g.merge(u, v)
        assert merged.n == g.n - 1
        assert len(merged.edges()) <= len(g.edges())
        for w in range(merged.n):
            assert not merged.adj[w] >> w & 1  # no self-loop
            for x in range(merged.n):
                assert merged.adj[w] >> x & 1 == merged.adj[x] >> w & 1  # symmetry


def test_remove_vertex_shift_down():
    g = path(4).remove_vertex(1)
    # old vertices 2,3 become 1,2; only their edge survives
    assert g.n == 3
    assert g.edges() == [(1, 2)]


# --- records ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "record,field",
    [
        (Graph((2, 1)), "n"),
        (FamilySpec(FamilyKind.PATH, 3), "p"),
        (CanonicalKey(b"\x00"), "data"),
        (StirlingProfile((0, 1)), "counts"),
        (FamilyAggregates(2, 3), "b"),
        (definition("I1"), "n_min"),
        (InequalityReport("I1", 5, 0, 1, 2), "margin"),
        (Graph((2, 1)), "adj"),
        (InequalityReport("I1", 5, 0, 1, 2), "lhs"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0  # no instance dictionary either


def test_record_reprs_are_pinned():
    assert repr(Graph((2, 1))) == "Graph(adj=(2, 1))"
    assert repr(FamilySpec(FamilyKind.PATH, 3)) == (
        "FamilySpec(kind=<FamilyKind.PATH: 'path'>, n=3, r=0, p=0)"
    )
    assert repr(StirlingProfile((0, 1))) == "StirlingProfile(counts=(0, 1))"
    assert StirlingProfile((0, 1)).n == 1
    assert InequalityReport._fields == ("id", "n", "p", "lhs", "rhs")
    assert repr(InequalityReport("I1", 5, 0, 1, 2)) == (
        "InequalityReport(id='I1', n=5, p=0, lhs=1, rhs=2)"
    )


def test_graph_hashes_and_compares_as_its_field_tuple():
    for g in (Graph(()), path(5), random_graph(9, Random(3))):
        assert hash(g) == hash((g.adj,))
        assert g == (g.adj,)


# --- classification -----------------------------------------------------------


def test_classify_dominating_wins_in_complete_graph():
    # Every vertex of K4 is both dominating and simplicial; the dominating
    # rule wins at the last vertex, where the scan starts.
    assert find_peel(complete(4).adj) == (3, None)


def test_classify_leaf_is_simplicial():
    assert find_peel(path(4).adj) == (3, 1)


def test_classify_cycle5_vertices_are_neither():
    assert find_peel(cycle(5).adj) is None


def test_classify_isolated_vertex_simplicial_zero():
    assert find_peel(build(FamilySpec(FamilyKind.EMPTY, 3)).adj) == (2, 0)


def test_classify_first_peelable_vertex_need_not_be_vertex_0():
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    # C5 with a leaf at vertex 5, and the wheel with its hub at vertex 5.
    assert find_peel(Graph.from_edges(6, c5 + [(0, 5)]).adj) == (5, 1)
    assert find_peel(Graph.from_edges(6, c5 + [(i, 5) for i in range(5)]).adj) == (5, None)


# --- canonical fingerprints ---------------------------------------------------


def test_key_equal_for_relabeled_path():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph.from_edges(3, [(2, 0), (0, 1)])  # same path, relabeled
    assert canonical_key(a) == canonical_key(b)


def test_key_separates_triangle_from_path():
    assert canonical_key(cycle(3)) != canonical_key(path(3))


def test_key_relabeling_invariance_structured_families():
    rng = Random(11)
    for g in [path(6), cycle(7), complete(5), build(FamilySpec(FamilyKind.STAR, 6)),
              build(FamilySpec(FamilyKind.EMPTY, 5))]:
        key = canonical_key(g)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key


def test_key_distinguishes_refinement_equivalent_graphs():
    # two disjoint triangles and a 6-cycle agree under degree refinement but
    # must not share a fingerprint (their profiles differ)
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_key(two_triangles) != canonical_key(cycle(6))


def test_key_stable_across_processes(child_env):
    snippet = (
        "from graphbell.graph_core import FamilySpec, FamilyKind, build, canonical_key;"
        "print(canonical_key(build(FamilySpec(FamilyKind.CYCLE, 5))).data.hex())"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True, env=child_env,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].strip() == canonical_key(cycle(5)).data.hex()


# --- edge-list format ----------------------------------------------------------


def test_parse_edge_list_roundtrip():
    text = """# a five-cycle
5 5
0 1
1 2
2 3
3 4
4 0  # closing edge
"""
    assert parse_edge_list(text) == cycle(5)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "2 1\n0 0\n",
        "2 1\n0 5\n",
        "2 2\n0 1\n0 1\n",
        "2 2\n0 1\n1 0\n",
        "3 1\n",
        "3 0\n0 1\n",
        "x y\n",
    ],
)
def test_parse_edge_list_rejects_malformed(text):
    with pytest.raises(UsageError):
        parse_edge_list(text)


def test_parse_edge_list_order_cap():
    assert parse_edge_list(f"{PROFILE_MAX_ORDER} 0\n").n == PROFILE_MAX_ORDER
    with pytest.raises(ResourceError):
        parse_edge_list(f"{PROFILE_MAX_ORDER + 1} 0\n")


def test_load_edge_list_length_cap(tmp_path, monkeypatch):
    text = "3 1\n0 1  # edge\n"
    monkeypatch.setattr(graph_core, "EDGE_LIST_MAX_CHARS", len(text))
    f = tmp_path / "g.txt"
    f.write_text(text)
    assert load_edge_list(f) == Graph.from_edges(3, [(0, 1)])
    f.write_text(text + "#")
    with pytest.raises(ResourceError):
        load_edge_list(f)
    with pytest.raises(ResourceError):  # endless: only the cap ends the read
        load_edge_list("/dev/zero")
