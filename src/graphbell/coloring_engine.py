"""Exact profiles of non-equivalent proper colorings.

A profile lists, for each k, how many partitions of the vertex set into
exactly k stable sets a graph admits.  ``profile`` peels dominating and
simplicial vertices in one loop, with no closed-form base cases, and
recurses only to branch by deletion-contraction; ``brute_force_profile``
enumerates set partitions directly and serves as the independent oracle the
test suite compares against.  Both are exponential in the worst case; the
engine is practical to roughly twenty vertices on generic graphs and up to
``PROFILE_MAX_ORDER`` on the structured families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .errors import DomainError, ResourceError
from .graph_core import Graph, is_dominating, is_simplicial

BRUTE_FORCE_MAX_ORDER = 12

# The memo keeps every graph the peel loop reaches, about order**3 bits for
# a path.  Measured on a 2-vCPU box at order 1024, wall / peak RSS: path and
# h:3,1021 1.1 s / 269 MB, empty 0.7 s / 231 MB, star 0.9 s / 231 MB,
# complete 0.4 s / 85 MB; path:1100 and 1200 peak at 329 and 422 MB.
# Cycles peak highest: cycle:900 takes 18 s / 506 MB, and cycle:1024 spends
# 24 s / 527 MB before its branching passes the recursion limit.
PROFILE_MAX_ORDER = 1024


@dataclass(frozen=True)
class StirlingProfile:
    """Count vector ``counts[k]`` of stable-set partitions with exactly k blocks.

    Immutable value object; componentwise + and - are provided so the
    deletion-contraction identities can be stated directly on profiles
    (vectors of different lengths align by zero padding).
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("profile needs exactly n+1 entries")

    @property
    def bell(self) -> int:
        """Total number of stable-set partitions."""
        return sum(self.counts)

    @property
    def total(self) -> int:
        """Total number of blocks over all stable-set partitions."""
        return sum(k * c for k, c in enumerate(self.counts))

    @property
    def average(self) -> Fraction:
        """Exact average block count; undefined for the null graph."""
        if self.n == 0:
            raise DomainError("average color count is undefined for the null graph")
        return Fraction(self.total, self.bell)

    @property
    def chromatic_number(self) -> int:
        """Least k with a nonzero count (valid for profiles of actual graphs)."""
        return next(k for k, c in enumerate(self.counts) if c)

    def _aligned(self, other: "StirlingProfile"):
        n = max(self.n, other.n)
        a = self.counts + (0,) * (n - self.n)
        b = other.counts + (0,) * (n - other.n)
        return n, a, b

    def __add__(self, other: "StirlingProfile") -> "StirlingProfile":
        n, a, b = self._aligned(other)
        return StirlingProfile(n, tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "StirlingProfile") -> "StirlingProfile":
        n, a, b = self._aligned(other)
        return StirlingProfile(n, tuple(x - y for x, y in zip(a, b)))


class ProfileCache:
    """Memo table for count vectors, keyed by the exact labeled graph.

    A hit needs the recursion to reach an identical labeled subproblem, as
    the two branches of deletion-contraction often do.  Isomorphic
    relabelings are not collapsed: a canonical fingerprint at every node
    costs far more in pure Python than the extra hits save.  Lookups and
    inserts are safe to run concurrently under the GIL: any two writers for
    one key always write equal values, so last-write-wins is harmless.
    """

    def __init__(self):
        self._labeled: dict[tuple, tuple[int, ...]] = {}

    def get_labeled(self, g: Graph):
        return self._labeled.get((g.n, g.adj))

    def put(self, g: Graph, counts: tuple[int, ...]) -> None:
        self._labeled[(g.n, g.adj)] = counts

    # perfbench/tracing.py (counting_cache_class) wraps these two by name,
    # so they stay until that tracer drops them.  The engine calls neither.
    def get_canonical(self, key):
        return None

    def put_labeled(self, g: Graph, counts: tuple[int, ...]) -> None:
        self.put(g, counts)

    def __len__(self) -> int:
        return len(self._labeled)


SHARED_PROFILE_CACHE = ProfileCache()


def restricted_growth_strings(n: int):
    """Yield every restricted growth string of length n as a tuple.

    Position i may use any block label up to one past the running maximum,
    so each string encodes one set partition of {0..n-1}.
    """
    if n == 0:
        yield ()
        return
    buf = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            yield tuple(buf)
            return
        for c in range(mx + 2):
            buf[i] = c
            yield from rec(i + 1, mx if c <= mx else c)

    yield from rec(0, -1)


def brute_force_profile(g: Graph) -> StirlingProfile:
    """Oracle: enumerate all set partitions, keep those whose blocks are stable.

    Deliberately shares no machinery with :func:`profile`.  Guarded to small
    orders because the partition count grows super-exponentially.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX_ORDER:
        raise ResourceError(
            f"brute-force enumeration is limited to order {BRUTE_FORCE_MAX_ORDER}"
        )
    counts = [0] * (n + 1)
    for rgs in restricted_growth_strings(n):
        k = max(rgs) + 1 if rgs else 0
        blocks = [0] * k
        ok = True
        for v, c in enumerate(rgs):
            if g.adj[v] & blocks[c]:
                ok = False
                break
            blocks[c] |= 1 << v
        if ok:
            counts[k] += 1
    return StirlingProfile(n, tuple(counts))


def check_order(n: int) -> None:
    """Raise ResourceError if a graph of order ``n`` is above ``PROFILE_MAX_ORDER``."""
    if n > PROFILE_MAX_ORDER:
        raise ResourceError(
            f"graph order {n} exceeds the profile cap of {PROFILE_MAX_ORDER} vertices"
        )


def profile(g: Graph, memo: ProfileCache | None = SHARED_PROFILE_CACHE) -> StirlingProfile:
    """Exact profile of ``g`` by vertex peeling and deletion-contraction.

    One loop peels vertices until the graph is null or found in the memo: a
    dominating vertex v gives counts(G, k) = counts(G-v, k-1); failing that,
    a simplicial vertex v with r neighbors (r = 0 if isolated) gives
    counts(G, k) = (k-r)*counts(G-v, k) + counts(G-v, k-1).  A graph with
    neither branches, recursively, on the vertex pair with the largest common
    neighborhood, deleting an edge when the graph is sparse and adding one
    when it is dense.  Each graph reached is memoized under its labeled
    adjacency (see :class:`ProfileCache`); pass ``memo=None`` to disable
    caching.  Orders above ``PROFILE_MAX_ORDER`` raise ResourceError first.
    """
    check_order(g.n)
    return StirlingProfile(g.n, _profile_counts(g, memo))


def _profile_counts(g: Graph, memo: ProfileCache | None) -> tuple[int, ...]:
    # Each peeled graph with r, the removed vertex's neighbor count if it was
    # simplicial, or None if it was dominating.
    peeled = []
    counts = (1,)
    while g.n:
        if memo is not None:
            hit = memo.get_labeled(g)
            if hit is not None:
                counts = hit
                break
        v = _find_vertex(g, is_dominating)
        r = None
        if v is None:
            v = _find_vertex(g, is_simplicial)
            if v is None:
                n, m = g.n, g.edge_count
                if n * (n - 1) // 2 - m <= m:
                    u, w = _best_pair(g, adjacent=False)
                    with_edge = _profile_counts(g.add_edge(u, w), memo)
                    merged = _profile_counts(g.merge(u, w), memo)
                    counts = tuple(map(add, with_edge, merged + (0,)))
                else:
                    u, w = _best_pair(g, adjacent=True)
                    without = _profile_counts(g.delete_edge(u, w), memo)
                    merged = _profile_counts(g.merge(u, w), memo)
                    counts = tuple(map(sub, without, merged + (0,)))
                if memo is not None:
                    memo.put(g, counts)
                break
            r = g.adj[v].bit_count()
        peeled.append((g, r))
        g = g.remove_vertex(v)

    for g, r in reversed(peeled):
        if r is None:
            counts = (0,) + counts
        else:
            counts = tuple(
                (k - r) * c + d for k, (c, d) in enumerate(zip(counts + (0,), (0,) + counts))
            )
        if memo is not None:
            memo.put(g, counts)
    return counts


def _find_vertex(g: Graph, test):
    """The first vertex v of ``g`` with ``test(g, v)``, or None."""
    for v in range(g.n):
        if test(g, v):
            return v
    return None


def _best_pair(g: Graph, adjacent: bool) -> tuple[int, int]:
    """Vertex pair of the requested adjacency with the most common neighbors."""
    best = None
    best_common = -1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if bool(g.adj[u] >> v & 1) != adjacent:
                continue
            common = (g.adj[u] & g.adj[v]).bit_count()
            if common > best_common:
                best_common = common
                best = (u, v)
    return best


def bell_graph(g: Graph, memo: ProfileCache | None = SHARED_PROFILE_CACHE) -> int:
    """Number of partitions of the vertex set into stable sets."""
    return profile(g, memo).bell


def total_graph(g: Graph, memo: ProfileCache | None = SHARED_PROFILE_CACHE) -> int:
    """Total number of stable sets over all such partitions."""
    return profile(g, memo).total


def avg_colors(g: Graph, memo: ProfileCache | None = SHARED_PROFILE_CACHE) -> Fraction:
    """Exact average number of color classes; requires at least one vertex."""
    if g.n == 0:
        raise DomainError("average color count is undefined for the null graph")
    return profile(g, memo).average
