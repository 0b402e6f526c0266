"""Exact profiles of non-equivalent proper colorings.

A profile lists, for each k, how many partitions of the vertex set into
exactly k stable sets a graph admits.  ``profile`` computes it by
deletion-contraction with two reduction rules, memoized on the labeled
subgraphs the recursion reaches; ``brute_force_profile``
enumerates set partitions directly and serves as the independent oracle the
test suite compares against.  Both are exponential in the worst case; the
engine is practical to roughly twenty vertices on generic graphs and far
beyond that on the structured families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceError
from .graph_core import Graph, is_dominating, is_simplicial
from .sequences import stirling2

BRUTE_FORCE_MAX_ORDER = 12


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


def profile(g: Graph, memo: ProfileCache | None = SHARED_PROFILE_CACHE) -> StirlingProfile:
    """Exact profile of ``g`` via deletion-contraction.

    Strategy, in order: empty and complete graphs are closed forms; a
    dominating vertex v gives counts(G, k) = counts(G-v, k-1); a simplicial
    vertex v with r neighbors gives counts(G, k) = (k-r)*counts(G-v, k) +
    counts(G-v, k-1); otherwise branch on the vertex pair with the largest
    common neighborhood, deleting an edge when the graph is sparse and
    adding one when it is dense, so recursion heads for the nearer closed
    form.  Each subgraph's counts are memoized under its labeled adjacency
    (see :class:`ProfileCache`); pass ``memo=None`` to disable caching.
    """
    return StirlingProfile(g.n, _profile_counts(g, memo))


def _profile_counts(g: Graph, memo: ProfileCache | None) -> tuple[int, ...]:
    n = g.n
    m = g.edge_count
    if m == 0:
        return tuple(stirling2(n, k) for k in range(n + 1))
    if m == n * (n - 1) // 2:
        return (0,) * n + (1,)

    if memo is not None:
        hit = memo.get_labeled(g)
        if hit is not None:
            return hit

    v = _find_dominating(g)
    if v is not None:
        sub = _profile_counts(g.remove_vertex(v), memo)
        counts = (0,) + sub
    else:
        v, r = _find_simplicial(g)
        if v is not None:
            sub = _profile_counts(g.remove_vertex(v), memo)
            counts = tuple(
                (k - r) * (sub[k] if k < n else 0) + (sub[k - 1] if k >= 1 else 0)
                for k in range(n + 1)
            )
        else:
            missing = n * (n - 1) // 2 - m
            if missing <= m:
                u, w = _best_pair(g, adjacent=False)
                with_edge = _profile_counts(g.add_edge(u, w), memo)
                merged = _profile_counts(g.merge(u, w), memo)
                counts = tuple(
                    with_edge[k] + (merged[k] if k < n else 0) for k in range(n + 1)
                )
            else:
                u, w = _best_pair(g, adjacent=True)
                without = _profile_counts(g.delete_edge(u, w), memo)
                merged = _profile_counts(g.merge(u, w), memo)
                counts = tuple(
                    without[k] - (merged[k] if k < n else 0) for k in range(n + 1)
                )

    if memo is not None:
        memo.put(g, counts)
    return counts


def _find_dominating(g: Graph):
    for v in range(g.n):
        if is_dominating(g, v):
            return v
    return None


def _find_simplicial(g: Graph):
    for v in range(g.n):
        if is_simplicial(g, v):
            return v, g.adj[v].bit_count()
    return None, None


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
