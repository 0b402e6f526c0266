"""Immutable simple graphs, family constructors, and the rewrite operations.

Vertices are always 0..n-1.  Every operation returns a new graph; merge and
vertex removal renumber by shifting the indices above the vacated slot down
by one, so indices stay contiguous and the result is deterministic.

The rewrites are unchecked functions on a bare adjacency tuple.  Merging
and the edge flip each have one implementation (``merged``, ``flipped``);
a merge joins the two neighborhoods, then removes the dropped vertex.
Vertex removal has two: ``induced``, the subgraph on a set of vertices,
renumbers the kept ones in order and drops each run of removed vertices in
one pass, and ``without_vertex`` removes one vertex in its own pass, which
skips the run search and costs about 0.3 us less per call on the order-12
graphs of the benchmark's ``random`` workload.  Removing the last vertex,
which shifts no index, is ``pop_last``, in place on a list;
``without_vertex`` uses it, and so does the profile engine's peel chain.
The profile engine calls them directly; the ``Graph`` methods validate
their arguments, then delegate.
"""

from __future__ import annotations

import re
import struct
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


def pop_last(masks: list[int]) -> None:
    """Delete the last vertex of the adjacency list ``masks``, in place.

    Pops its mask and clears its bit in its neighbors' masks; no index
    shifts.  ``masks`` must be a non-empty list.
    """
    rest = masks.pop()
    bit = 1 << len(masks)
    while rest:
        low = rest & -rest
        masks[low.bit_length() - 1] ^= bit
        rest ^= low


def without_vertex(adj, v: int) -> tuple[int, ...]:
    """Adjacency masks of the graph ``adj`` with vertex v and its edges deleted.

    Indices above v shift down by one.  v must be a vertex (unchecked);
    ``adj`` is a tuple or list of masks, left unchanged, and the order is
    ``len(adj)``.  Removing the last vertex shifts no index, so it
    rewrites only its neighbors' masks (``pop_last``).  Any other vertex
    takes one pass, the one-run case of ``induced`` without its run search.
    """
    masks = list(adj)
    if v == len(masks) - 1:
        pop_last(masks)
        return tuple(masks)
    del masks[v]
    low = (1 << v) - 1
    return tuple([m & low | m >> v + 1 << v for m in masks])


def induced(adj, keep: int) -> tuple[int, ...]:
    """Adjacency masks of the subgraph of ``adj`` on the vertices of the mask ``keep``.

    The kept vertices are renumbered 0, 1, ... in their order.  Each run of
    consecutive dropped vertices goes in one pass over the masks, from the
    highest run down, so a lower index never moves before its run is cut;
    no loop visits a neighbor.  ``keep`` must be a mask of vertices of
    ``adj`` (unchecked); ``adj`` is a tuple or list, left unchanged.
    """
    masks = list(adj)
    drop = (1 << len(masks)) - 1 ^ keep
    while drop:
        # The highest dropped run is a..b-1.
        b = drop.bit_length()
        a = ((1 << b) - 1 ^ drop).bit_length()
        del masks[a:b]
        low = (1 << a) - 1
        masks = [m & low | m >> b << a for m in masks]
        drop &= low
    return tuple(masks)


def merged(adj: tuple[int, ...], keep: int, drop: int) -> tuple[int, ...]:
    """Adjacency masks of the graph ``adj`` with vertex ``drop`` identified into ``keep``.

    The merged vertex stays at ``keep`` with the union of both
    neighborhoods; a keep-drop edge disappears and parallel edges collapse.
    The neighbors of ``drop`` that ``keep`` lacks are joined to ``keep``,
    then ``without_vertex`` removes ``drop`` from that list, so indices
    above ``drop`` shift down by one.  Needs
    ``0 <= keep < drop < len(adj)`` (unchecked).
    """
    kbit = 1 << keep
    rest = adj[drop] & ~(adj[keep] | kbit)
    masks = list(adj)
    masks[keep] |= rest
    while rest:
        low = rest & -rest
        masks[low.bit_length() - 1] |= kbit
        rest ^= low
    return without_vertex(masks, drop)


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

    def _require_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise UsageError(f"vertex {v} out of range for order {self.n}")

    def delete_edge(self, u: int, v: int) -> "Graph":
        """Remove the edge {u, v}; the vertices must currently be adjacent."""
        self._require_vertex(u)
        self._require_vertex(v)
        if not self.adj[u] >> v & 1:  # also refuses u == v: there is no self-loop
            raise UsageError(f"delete_edge needs an existing edge, got ({u},{v})")
        return Graph(flipped(self.adj, u, v))

    def add_edge(self, u: int, v: int) -> "Graph":
        """Insert the edge {u, v}; the vertices must be distinct and non-adjacent."""
        self._require_vertex(u)
        self._require_vertex(v)
        if u == v:
            raise UsageError("add_edge needs two distinct vertices")
        if self.adj[u] >> v & 1:
            raise UsageError(f"edge ({u},{v}) already present")
        return Graph(flipped(self.adj, u, v))

    def merge(self, u: int, v: int) -> "Graph":
        """Identify u and v into a single vertex kept at min(u, v).

        The merged vertex inherits the union of both neighborhoods; a u-v
        edge disappears and parallel edges collapse, so the result stays
        simple.  Indices above max(u, v) shift down by one.
        """
        self._require_vertex(u)
        self._require_vertex(v)
        if u == v:
            raise UsageError("merge needs two distinct vertices")
        return Graph(merged(self.adj, min(u, v), max(u, v)))

    def remove_vertex(self, v: int) -> "Graph":
        """Delete v and its incident edges; higher indices shift down by one."""
        self._require_vertex(v)
        return Graph(without_vertex(self.adj, v))


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


class CanonicalKey(NamedTuple):
    """Deterministic fingerprint of a graph, shared by many isomorphic labelings.

    The payload is the full relabeled edge encoding (not a digest), so equal
    keys always denote isomorphic graphs; the converse is not guaranteed and
    nothing may rely on it.  A key is an immutable one-field tuple.
    """

    data: bytes


def canonical_key(g: Graph) -> CanonicalKey:
    """Fingerprint ``g`` up to an isomorphism-or-finer equivalence.

    The labeling is chosen as the lexicographically least edge encoding over
    breadth-first relabelings started from each vertex of the minimal
    refinement class (a label-invariant candidate set), with neighbor order
    guided by iterated degree refinement.  Purely structural, no salted
    hashing, stable across processes.
    """
    n = g.n
    if n >= 1 << 16:
        raise ResourceError("canonical fingerprints support orders below 65536")
    edge_list = g.edges()
    header = struct.pack(">HI", n, len(edge_list))
    if n == 0:
        return CanonicalKey(header)
    wl = _refined_colors(g)
    degs = [m.bit_count() for m in g.adj]
    low = min(wl)
    roots = [v for v in range(n) if wl[v] == low]
    by_key = sorted(range(n), key=lambda v: (wl[v], degs[v], v))
    nbrs = [sorted(_bits(g.adj[v]), key=lambda u: (wl[u], degs[u], u)) for v in range(n)]
    best: bytes | None = None
    for root in roots:
        form = _bfs_edge_bytes(n, nbrs, by_key, edge_list, root)
        if best is None or form < best:
            best = form
    return CanonicalKey(header + best)


def _refined_colors(g: Graph) -> tuple[int, ...]:
    """Iterated neighborhood-degree refinement, normalized to dense color ids."""
    def ranked(values):
        order = {s: i for i, s in enumerate(sorted(set(values)))}
        return tuple(order[s] for s in values)

    colors = ranked(tuple(m.bit_count() for m in g.adj))
    for _ in range(g.n):
        sigs = tuple(
            (colors[v], tuple(sorted(colors[u] for u in _bits(g.adj[v]))))
            for v in range(g.n)
        )
        nxt = ranked(sigs)
        if nxt == colors:
            break
        colors = nxt
    return colors


def _bfs_edge_bytes(n, nbrs, starts, edge_list, root) -> bytes:
    pos = [-1] * n
    seq = [root]
    pos[root] = 0
    si = 0
    qi = 0
    while len(seq) < n:
        if qi < len(seq):
            v = seq[qi]
            qi += 1
            for u in nbrs[v]:
                if pos[u] < 0:
                    pos[u] = len(seq)
                    seq.append(u)
        else:
            while pos[starts[si]] >= 0:
                si += 1
            v = starts[si]
            pos[v] = len(seq)
            seq.append(v)
    relabeled = sorted(
        (pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a])
        for a, b in edge_list
    )
    return b"".join(struct.pack(">HH", a, b) for a, b in relabeled)


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
