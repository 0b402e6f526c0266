"""Graph values, family constructors, rewrite operations, and fingerprints."""

import subprocess
import sys
from random import Random

import pytest

from graphbell.errors import DomainError, UsageError
from graphbell.graph_core import (
    FamilyKind,
    FamilySpec,
    Graph,
    VertexKind,
    build,
    canonical_key,
    classify_vertex,
    parse_edge_list,
    random_graph,
)


def cycle(n):
    return build(FamilySpec(FamilyKind.CYCLE, n))


def path(n):
    return build(FamilySpec(FamilyKind.PATH, n))


def complete(n):
    return build(FamilySpec(FamilyKind.COMPLETE, n))


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def is_connected_tree(g):
    if g.edge_count != g.n - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


# --- constructors ------------------------------------------------------------


def test_build_cycle5():
    g = cycle(5)
    assert g.n == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_build_null_graph():
    g = build(FamilySpec(FamilyKind.EMPTY, 0))
    assert g.n == 0 and g.edge_count == 0


def test_build_hnr_3_2_1():
    g = build(FamilySpec(FamilyKind.HNR, 3, r=2, p=1))
    assert g.n == 6 and g.edge_count == 5
    assert g.degree_sequence() == (3, 2, 2, 2, 1, 0)


def test_build_hnr_zero_tail_is_cycle():
    assert build(FamilySpec(FamilyKind.HNR, 6, r=0)) == cycle(6)


@pytest.mark.parametrize("n", range(1, 9))
def test_build_family_counts(n):
    assert path(n).n == n and path(n).edge_count == n - 1
    star = build(FamilySpec(FamilyKind.STAR, n))
    assert star.edge_count == n - 1
    cat = build(FamilySpec(FamilyKind.CATERPILLAR, n))
    assert is_connected_tree(cat)
    if n >= 3:
        assert cycle(n).edge_count == n
        for r in range(3):
            for p in range(3):
                h = build(FamilySpec(FamilyKind.HNR, n, r=r, p=p))
                assert h.n == n + r + p
                assert h.edge_count == n + r


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
    assert sorted(g.degree_sequence()) == [1, 1, 2]
    assert g.edge_count == 2


def test_delete_edge_k2():
    g = complete(2).delete_edge(0, 1)
    assert g.edge_count == 0 and g.n == 2


def test_delete_edge_c5_degrees():
    g = cycle(5).delete_edge(0, 1)
    assert g.degree_sequence() == (2, 2, 2, 1, 1)


def test_delete_edge_rejects_non_adjacent():
    with pytest.raises(UsageError):
        cycle(5).delete_edge(0, 2)
    with pytest.raises(UsageError):
        cycle(5).delete_edge(1, 1)


def test_add_edge_closes_path_to_cycle():
    assert path(3).add_edge(0, 2).degree_sequence() == (2, 2, 2)
    assert path(5).add_edge(0, 4).degree_sequence() == (2, 2, 2, 2, 2)
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


def test_merge_k2_gives_k1():
    g = complete(2).merge(0, 1)
    assert g.n == 1 and g.edge_count == 0


def test_merge_c4_diagonal_gives_path_center():
    g = cycle(4).merge(0, 2)
    # merged vertex keeps index 0 and is adjacent to both survivors
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2)]


def test_merge_adjacent_on_c5_gives_c4():
    g = cycle(5).merge(0, 1)
    assert g.n == 4 and g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


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
        assert merged.edge_count <= g.edge_count
        for w in range(merged.n):
            assert not merged.adj[w] >> w & 1  # no self-loop
            for x in merged.neighbors(w):
                assert merged.has_edge(x, w)  # symmetry


def test_remove_vertex_shift_down():
    g = path(4).remove_vertex(1)
    # old vertices 2,3 become 1,2; only their edge survives
    assert g.n == 3
    assert g.edges() == [(1, 2)]


# --- classification -----------------------------------------------------------


def test_classify_dominating_wins_in_complete_graph():
    g = complete(4)
    for v in range(4):
        assert classify_vertex(g, v) == (VertexKind.DOMINATING, None)


def test_classify_leaf_is_simplicial():
    assert classify_vertex(path(4), 0) == (VertexKind.SIMPLICIAL, 1)
    assert classify_vertex(path(4), 3) == (VertexKind.SIMPLICIAL, 1)


def test_classify_cycle5_vertices_are_neither():
    g = cycle(5)
    for v in range(5):
        assert classify_vertex(g, v) == (VertexKind.NEITHER, None)


def test_classify_isolated_vertex_simplicial_zero():
    g = build(FamilySpec(FamilyKind.EMPTY, 3))
    assert classify_vertex(g, 1) == (VertexKind.SIMPLICIAL, 0)


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
        "print(canonical_key(build(FamilySpec(FamilyKind.CYCLE, 5))).hex())"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True, env=child_env,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].strip() == canonical_key(cycle(5)).hex()


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
