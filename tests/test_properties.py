"""hypothesis properties of the engine on random graphs of order at most 9.

The settings profile registered in ``conftest.py`` derandomizes the search,
so every run draws the same examples.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from graphbell.coloring_engine import ProfileCache, brute_force_profile, profile  # noqa: E402
from graphbell.graph_core import Graph  # noqa: E402


@st.composite
def graphs(draw, max_order=9):
    n = draw(st.integers(0, max_order))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


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
@given(graphs())
def test_profile_matches_oracle(g):
    assert profile(g, ProfileCache()) == brute_force_profile(g)


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
