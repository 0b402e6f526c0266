"""Immutable simple graphs, family constructors, and the rewrite operations.

Vertices are always 0..n-1.  A rewrite returns new adjacency masks, and
one that removes vertices renumbers by shifting the indices above each
vacated slot down, so indices stay contiguous and the result is
deterministic.

The rewrites are unchecked functions on a bare adjacency tuple, one per
concept.  ``without`` deletes the vertices of a mask and renumbers the rest
in order; it is the one routine that shifts indices, and removing the last
vertex, which shifts none, is ``pop_last``, in place on a list, which
``without`` and the profile engine's peel chain use.  ``merged_set``
identifies a set of vertices into its lowest, a pair, adjacent or not,
included, and drops the others through ``without``; ``flipped`` toggles an
edge.  ``Graph`` has no rewrite methods: its four old method names raise.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import combinations
from random import Random
from typing import NamedTuple

from .errors import DomainError, ResourceError, UsageError


# The largest graph the profile engine accepts.  It lives here so that input
# parsers can refuse a larger order before any per-vertex allocation.  What a
# graph below it costs depends on how the engine peels and branches on it
# (see ``coloring_engine.profile``).  Measured on a 2-vCPU box (Python 3.11)
# with `compute --family F --json` at order 1024, wall / peak RSS: path,
# star, empty, caterpillar and h:3,1021 0.45-0.5 s / 22 MB, complete 0.67 s
# / 67 MB.  Cycles cost the most: a cycle branches once per two vertices,
# into a path and the cycle two vertices shorter, so its memo holds about
# 1.5 * order graphs and grows about as order**3 bits: cycle:1024 takes
# 1.2 s / 343 MB.
PROFILE_MAX_ORDER = 1024


# The longest edge-list file ``load_edge_list`` reads, in characters.  The
# text is held whole while it is parsed, so the cap bounds that memory and
# ends the read of an endless file.
EDGE_LIST_MAX_CHARS = 16 << 20


def check_order(n: int) -> None:
    """Raise ResourceError if a graph of order ``n`` is above ``PROFILE_MAX_ORDER``."""
    if n > PROFILE_MAX_ORDER:
        raise ResourceError(
            f"graph order {n} exceeds the profile cap of {PROFILE_MAX_ORDER} vertices"
        )


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pop_last(masks: list[int]) -> int:
    """Delete the last vertex of the adjacency list ``masks``, in place.

    Pops its mask, clears its bit in its neighbors' masks and returns the
    mask; no index shifts.  ``masks`` must be a non-empty list.
    """
    rest = popped = masks.pop()
    bit = 1 << len(masks)
    while rest:
        low = rest & -rest
        masks[low.bit_length() - 1] ^= bit
        rest ^= low
    return popped


def without(adj, drop: int) -> tuple[int, ...]:
    """Adjacency masks of the graph ``adj`` with the vertices of the mask ``drop`` deleted.

    The kept vertices are renumbered 0, 1, ... in their order.  A dropped
    last vertex shifts no index and goes in place (``pop_last``); every
    other run of consecutive dropped vertices goes in one pass over the
    masks, from the highest run down, so a lower index never moves before
    its run is cut.  ``drop`` must be a mask of vertices of ``adj``
    (unchecked); ``adj`` is a tuple or list, left unchanged.
    """
    masks = list(adj)
    if drop and drop.bit_length() == len(masks):
        pop_last(masks)
        drop ^= 1 << len(masks)
    while drop:
        # The highest dropped run is a..b-1.
        b = drop.bit_length()
        a = ((1 << b) - 1 ^ drop).bit_length()
        del masks[a:b]
        low = (1 << a) - 1
        masks = [m & low | m >> b << a for m in masks]
        drop &= low
    return tuple(masks)


def merged_set(adj, s: int) -> tuple[int, ...]:
    """Adjacency masks of the graph ``adj`` with the vertices of the mask ``s`` identified.

    They merge into the lowest vertex of ``s``, which keeps its index: it is
    joined to the other vertices' neighbors outside ``s``, and then the
    others are dropped by ``without``.  ``s`` holds two or more vertices of
    ``adj``, adjacent or not (unchecked).
    """
    low = s & -s
    drop = rest = s ^ low
    masks = list(adj)
    join = 0
    while rest:
        bit = rest & -rest
        join |= masks[bit.bit_length() - 1]
        rest ^= bit
    keep = low.bit_length() - 1
    join &= ~(s | masks[keep])
    masks[keep] |= join
    while join:
        bit = join & -join
        masks[bit.bit_length() - 1] |= low
        join ^= bit
    return without(masks, drop)


def flipped(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """Adjacency masks of the graph ``adj`` with the edge {u, v} toggled.

    The edge is added if absent and deleted if present.  Needs two distinct
    vertices u and v of ``adj`` (unchecked).
    """
    masks = list(adj)
    masks[u] ^= 1 << v
    masks[v] ^= 1 << u
    return tuple(masks)


class Graph(NamedTuple):
    """Simple undirected labeled graph: one adjacency bitmask per vertex.

    A graph is an immutable one-field tuple ``(adj,)``, and its order ``n``
    is ``len(adj)``.  It hashes, compares and orders as that tuple, so it
    also equals a plain tuple ``(adj,)``.  Two graphs are equal when they
    have the same labeled edge set on the same vertices.  Constructors are
    responsible for keeping the adjacency symmetric and irreflexive; use
    :meth:`from_edges` for validated input.
    """

    adj: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.adj)

    @staticmethod
    def from_edges(n: int, edges=()) -> "Graph":
        if n < 0:
            raise DomainError("graph order must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UsageError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise UsageError(f"self-loop at vertex {u} is not allowed")
            if masks[u] >> v & 1:
                raise UsageError(f"duplicate edge ({u},{v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph(tuple(masks))

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            upper = self.adj[u] >> (u + 1)
            out.extend((u, u + 1 + w) for w in _bits(upper))
        return out

    def _removed(self, *args):
        """Stand-in for the deleted rewrite methods, bound to their four names.

        The names stay only because ``perfbench/tracing.py`` wraps them by
        name; nothing calls them.  ROADMAP item 17 retires that tracer and
        removes them.
        """
        raise NotImplementedError(
            "Graph rewrite methods were removed; use without, merged_set or flipped on g.adj"
        )

    delete_edge = add_edge = merge = remove_vertex = _removed
    del _removed


class FamilyKind(Enum):
    EMPTY = "empty"
    COMPLETE = "complete"
    PATH = "path"
    CYCLE = "cycle"
    STAR = "star"
    CATERPILLAR = "caterpillar"
    HNR = "h"


# A NamedTuple class body may not define __new__, so a record that checks
# its fields subclasses the functional form and validates in its own __new__.
class FamilySpec(NamedTuple("FamilySpec", [
    ("kind", FamilyKind), ("n", int), ("r", int), ("p", int),
])):
    """Parameters of a named graph family, plus ``p`` appended isolated vertices.

    ``r`` is the tail length and only meaningful for ``HNR`` (a cycle of
    order n with a path of r extra vertices hung off one cycle vertex).  A
    spec is an immutable tuple ``(kind, n, r, p)`` and compares as one.
    """

    __slots__ = ()

    def __new__(cls, kind: FamilyKind, n: int, r: int = 0, p: int = 0):
        if n < 0 or r < 0 or p < 0:
            raise DomainError("family parameters must be nonnegative")
        if kind in (FamilyKind.PATH, FamilyKind.STAR, FamilyKind.CATERPILLAR) and n < 1:
            raise DomainError(f"{kind.value} requires n >= 1")
        if kind in (FamilyKind.CYCLE, FamilyKind.HNR) and n < 3:
            raise DomainError(f"{kind.value} requires n >= 3")
        if kind is not FamilyKind.HNR and r != 0:
            raise DomainError("tail length r applies only to the h family")
        return super().__new__(cls, kind, n, r, p)

    @property
    def order(self) -> int:
        return self.n + self.r + self.p


def build(spec: FamilySpec) -> Graph:
    """Construct the labeled graph of ``spec`` plus its isolated vertices."""
    n, r = spec.n, spec.r
    edges: list[tuple[int, int]] = []
    if spec.kind is FamilyKind.COMPLETE:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif spec.kind is FamilyKind.PATH:
        edges = [(i, i + 1) for i in range(n - 1)]
    elif spec.kind is FamilyKind.STAR:
        edges = [(0, i) for i in range(1, n)]
    elif spec.kind is FamilyKind.CATERPILLAR:
        # Spine of ceil(n/2) vertices; remaining vertices hang off the spine
        # front-to-back, at most one leg per spine vertex.
        s = (n + 1) // 2
        edges = [(i, i + 1) for i in range(s - 1)]
        edges += [(i, s + i) for i in range(n - s)]
    elif spec.kind in (FamilyKind.CYCLE, FamilyKind.HNR):  # a cycle has r = 0
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        if r > 0:
            edges.append((0, n))
            edges += [(n + i, n + i + 1) for i in range(r - 1)]
    return Graph.from_edges(spec.order, edges)


def canonical_key(g: Graph):
    """Stand-in: the name stays only because ``perfbench/tracing.py`` wraps it.

    Nothing calls it.  ROADMAP item 17 retires that tracer and removes it.
    """
    raise NotImplementedError("canonical fingerprints were removed")


def all_graphs(n: int):
    """Yield every labeled graph on n vertices, one per edge subset.

    Bit i of the subset's index selects the i-th pair of
    ``itertools.combinations(range(n), 2)``, so the edgeless graph comes
    first and the complete graph last.
    """
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        masks = [0] * n
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        yield Graph(tuple(masks))


# A run of characters between line breaks, with the breaks ``str.splitlines``
# knows.  An empty line yields no match, and ``parse_edge_list`` skips blank
# lines anyway.
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: a header line ``n m`` then m lines ``u v``.

    Indices are 0-based; everything after ``#`` on a line is a comment.  An
    order above ``PROFILE_MAX_ORDER`` raises ResourceError as soon as the
    header is read, before any per-vertex allocation.  Each edge line goes
    into ``Graph.from_edges`` as it is read, and reading stops at the
    (m+1)-th, so memory follows the order, not the file.  The first fault
    in file order is reported.
    """
    rows = filter(None, (raw.group().split("#", 1)[0].strip() for raw in _LINE.finditer(text)))
    header = next(rows, None)
    if header is None:
        raise UsageError("edge list is empty; expected a header line 'n m'")
    head = header.split()
    if len(head) != 2:
        raise UsageError(f"malformed header {header!r}; expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise UsageError(f"non-integer header {header!r}") from None
    if n < 0 or m < 0:
        raise UsageError("header counts must be nonnegative")
    check_order(n)

    def edges():
        found = 0
        for found, line in enumerate(rows, 1):
            if found > m:
                raise UsageError(f"expected {m} edge lines, found more than {m}")
            parts = line.split()
            if len(parts) != 2:
                raise UsageError(f"malformed edge line {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise UsageError(f"non-integer edge line {line!r}") from None
            yield u, v
        if found != m:
            raise UsageError(f"expected {m} edge lines, found {found}")

    return Graph.from_edges(n, edges())


def load_edge_list(path) -> Graph:
    """Read an edge-list file as UTF-8 text and parse it.

    A file that cannot be opened or is not valid UTF-8 raises UsageError.
    At most ``EDGE_LIST_MAX_CHARS`` characters are read: a longer file, or
    an endless one such as ``/dev/zero``, raises ResourceError before any
    parsing.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(EDGE_LIST_MAX_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read edge list {path}: {exc}") from None
    if len(text) > EDGE_LIST_MAX_CHARS:
        raise ResourceError(f"edge list {path} is longer than {EDGE_LIST_MAX_CHARS} characters")
    return parse_edge_list(text)


def random_graph(n: int, rng: Random, edge_prob: float = 0.5) -> Graph:
    """Sample a labeled graph on n vertices with independent edges.

    Pairs (u, v), u < v, are drawn in lexicographic order, one
    ``rng.random()`` each, and the bits are set as they are drawn.
    """
    if n < 0:
        raise DomainError("graph order must be nonnegative")
    draw = rng.random
    masks = [0] * n
    for u in range(n):
        bit_u = 1 << u
        for v in range(u + 1, n):
            if draw() < edge_prob:
                masks[u] |= 1 << v
                masks[v] |= bit_u
    return Graph(tuple(masks))
