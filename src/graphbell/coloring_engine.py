"""Exact profiles of non-equivalent proper colorings.

A profile lists, for each k, how many partitions of the vertex set into
exactly k stable sets a graph admits.  ``profile`` computes it in exact
integers by peeling vertices and branching on edges, down to a table of
every graph on at most six vertices, whose order-6 rows ship packed in the
package's ``small_table.zlib``, and one step over those rows for seven;
its docstring states the rules and that base case.  Its memo is a
``ProfileCache`` the caller creates and passes, or None (the CLI's
``--no-memo``), which turns it off without changing any count.
``brute_force_profile`` counts the same partitions by a recursion over
vertex subsets, memoized per subset, and serves as the independent oracle
the test suite compares against.  Both
are exponential in the worst case.  The engine is practical to about 24
vertices on dense generic graphs, where a vertex of greatest degree goes
with each stable set of its few non-neighbors in one step (G(22, .5) takes
about 3 s and 0.1 GB), well past 20 on sparse ones, whose
branch vertices mostly have degree 2 or 3 and go in one step each (the
6x6 grid takes about 0.3 s), and up to ``PROFILE_MAX_ORDER`` on the
structured families.  The oracle's cost follows the number of stable sets,
which is largest on sparse graphs, so it counts its work as it runs and
stops at ``ORACLE_STEP_BUDGET`` steps.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from itertools import combinations, count
from math import factorial
from operator import add, mul, sub
from struct import Struct
from typing import NamedTuple

from .errors import DataFileError, DomainError, ResourceError
from .graph_core import (
    PROFILE_MAX_ORDER, Graph, all_graphs, check_order, flipped, merged_set, pop_last, without,
)

# The oracle's budget.  A block it tries costs one step per entry of the
# count vector it adds, times the 64-bit words of n! (no count is larger),
# so the budget bounds its time and its memo at any order.  On a 2-vCPU box
# (Python 3.11), edgeless order 14 takes 3.1M steps in 0.7-1.0 s, G(20, .5)
# seed 1 2.3M in 0.7-1.0 s, both under 40 MB.
ORACLE_STEP_BUDGET = 4_000_000

# The most children a block step may push (see ``profile``): past it, the
# node fills in instead.  The stable sets of the non-neighbors of a vertex
# of greatest degree are few on a dense graph, where the step pays, and
# grow without bound on a sparse one, where fill-in pays.  Memo entries,
# one fresh memo per graph, by cap (0 is fill-in alone):
#
#   cap                 0     16     32     64    256   none
#   G(22, .5) s1     937k   234k   154k   153k   153k   153k
#   G(22, .5) s2     805k   183k   199k   161k   161k   161k
#   G(24, .7) s1     568k    64k    64k    64k    64k    64k
#   K(7, 2)         2537k   191k   168k   139k   148k   148k
#   G(16-20, .3-.7)  457k   131k   131k   128k   128k   128k  (36 graphs)
#   4-regular, 24   2748k  1207k  1084k   982k   688k   304k
#   5x5 torus       1586k   924k   871k   829k   736k   569k
#   4-cube           1381   1291   1410   1373   1720   1720
#   C40(1, 2)         432    500    717   1260   3378  > 3 GB
#
# 64 is the least of these caps that keeps the dense graphs' gains:
# G(22, .5) s2 and K(7, 2) lose them at 32.  A larger cap helps the
# 4-regular graphs and costs the 4-cube and the circulant C40(1, 2), whose
# stable sets outgrow memory with no cap.  G(24, .2) s1 and s2, G(28, .15)
# s1 and s3 and the ``random`` workload's pool (4,907 graphs, 10,331 at 0)
# store the same from 64 up.
BLOCK_MAX_CHILDREN = 64


class StirlingProfile(NamedTuple):
    """Count vector ``counts[k]`` of stable-set partitions with exactly k blocks.

    A profile is an immutable one-field tuple ``(counts,)`` and compares as
    one.  Its order ``n`` is ``len(counts) - 1``.
    """

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    @property
    def bell(self) -> int:
        """Total number of stable-set partitions."""
        return sum(self.counts)

    @property
    def total(self) -> int:
        """Total number of blocks over all stable-set partitions."""
        return sum(map(mul, count(), self.counts))

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


class ProfileCache(dict):
    """Memo of count vectors: a ``dict`` keyed by a labeled graph's adjacency tuple.

    The caller creates it and passes it to :func:`profile`, and it lives as
    long as the caller keeps it: one per request, or one shared by the
    calls whose graphs share subproblems.  A ``MemoryError`` inside a call
    empties it before the error leaves the call.
    The tuple alone is the key: its length is the order.  A hit needs the
    work stack to reach an identical labeled subproblem, as the two children
    of a branch often do.  Isomorphic relabelings are not
    collapsed: a canonical fingerprint at every node costs far more in pure
    Python than the extra hits save.  A call looks up its root, and every
    graph the work stack reaches below the first one; it stores its root and
    every graph the stack combines.  The graphs of the root's peel chain,
    the stack's first graph included, cannot come up again in the call and
    are neither looked up nor stored (see :func:`profile`).  So a later call
    whose chain passes through a graph an earlier call stored in the same
    memo gets no hit there.  Graphs on at most 7 vertices come from the
    base-case table and a step over its rows, and are neither looked up nor
    stored.  The engine reads through ``get_labeled`` and writes through
    ``put``, so a subclass that overrides them sees every lookup and store.
    """

    get_labeled = dict.get
    put = dict.__setitem__

    # perfbench/tracing.py (counting_cache_class) wraps these two by name,
    # so they stay until that tracer drops them.  The engine calls neither.
    def get_canonical(self, key):
        return None

    def put_labeled(self, g: Graph, counts: tuple[int, ...]) -> None:
        self.put(g.adj, counts)


# Nothing in the package reads or fills it: the bench's leak guard
# (perfbench/worker.py) and its CLI tracer read the name, and ROADMAP item
# 17 removes it with them.
SHARED_PROFILE_CACHE = ProfileCache()

_new = tuple.__new__


def brute_force_profile(g: Graph) -> StirlingProfile:
    """Oracle: count the stable-set partitions by a recursion over vertex subsets.

    Lawler's dynamic program for the chromatic number (E. L. Lawler, "A note
    on the complexity of the chromatic number problem", IPL 5, 1976), counted
    by blocks: the block holding the lowest vertex v of a set S is v plus a
    stable set T of v's non-neighbors in S, so counts(S, k) sums
    counts(S - v - T, k - 1) over those T.  Only stable T are enumerated, the
    counts of each subset reached are memoized, and one explicit stack, at
    most n deep, replaces recursion.  Shares nothing with :func:`profile`.
    The cost follows the number of stable sets, not the order (edgeless 14
    and G(20, .5) cost about the same, a clique of order 1024 almost
    nothing), so the work is counted as it runs: past
    ``ORACLE_STEP_BUDGET`` steps it raises ResourceError.
    """
    n, adj = g.n, g.adj
    # Counts are stored from the top: entry j counts the partitions of S into
    # |S| - j blocks, with trailing zeros dropped, so a dense S keeps a short
    # vector.  With rest = S - v, the block v + T adds the vector of
    # R = rest - T at offset |T| = |rest| - |R|.  The stack holds
    # (S, |rest|, sums, levels); a level (R, F) holds the rest R left by a
    # stable T found so far and the vertices F above T's last that may join.
    memo = {0: (1,)}
    get = memo.get
    left = ORACLE_STEP_BUDGET // (factorial(n).bit_length() // 64 + 1)
    stack = []
    s = (1 << n) - 1
    counts = get(s)
    while True:
        if counts is None:
            low = s & -s
            rest = s ^ low
            free = rest & ~adj[low.bit_length() - 1]
            stack.append((s, rest.bit_count(), [], [(rest, free)] if free else []))
            s = rest  # the first block is v alone
            counts = get(s)
            continue
        if not stack:
            return StirlingProfile((0,) * (n + 1 - len(counts)) + counts[::-1])
        top, rest_size, sums, levels = stack[-1]
        # Add each block's counts into the sums of the subset on top and move
        # to its next block, until a rest is not yet known or the subset is done.
        while True:
            size = len(counts)
            left -= size
            if left < 0:
                raise ResourceError(
                    f"brute-force oracle exceeded its budget of {ORACLE_STEP_BUDGET} steps"
                )
            t = rest_size - s.bit_count()
            end = t + size
            if end > len(sums):
                sums += [0] * (end - len(sums))
            if size == 1:  # the rest is a clique: one partition, into singletons
                sums[t] += counts[0]
            else:
                sums[t:end] = map(add, sums[t:end], counts)
            if not levels:
                stack.pop()
                s = top
                memo[s] = counts = tuple(sums)
                break
            rest, free = levels[-1]
            u = free & -free
            free ^= u
            if free:
                levels[-1] = (rest, free)
            else:
                levels.pop()
            s = rest ^ u
            free &= ~adj[u.bit_length() - 1]
            if free:
                levels.append((s, free))
            counts = get(s)
            if counts is None:
                break


def profile(g: Graph, memo: ProfileCache | None) -> StirlingProfile:
    """Exact profile of ``g`` by vertex peeling and edge branching.

    The base case is one table, the counts of all 32,768 labeled graphs on
    ``SMALL_ORDER`` (6) vertices, shipped in the package file
    ``small_table.zlib`` and built by the rules below.  A graph on at most
    7 vertices is answered from it before the memo is asked, and the memo
    neither sees nor keeps it.  Below order 6 the graph is read with 6 - n
    dominating vertices added, each of which shifts the counts up one
    block, so its counts are that row without its 6 - n leading zeros.  On
    7 vertices, one addition-contraction step on the top vertex sums at
    most 7 rows: with H its first six vertices and s the neighborhood of
    vertex 6, counts(G) = (0,) + counts(H) + the sum of counts(H with x
    joined to s_x), x running over the vertices outside s from the highest
    down and s_x being s plus every such vertex above x.  The first call,
    not the import, inflates the rows and widens them to 16 bits a count,
    in about 2 ms; a missing or damaged file raises DataFileError.

    A larger graph that is not in the memo is tested at its last vertex
    first.  Of degree at most 2 it needs no scan: isolated, a leaf, or with
    its two neighbors adjacent it is simplicial and is peeled; with its two
    neighbors not adjacent it is eliminated in one step, as below.
    Otherwise the graph peels its highest-indexed vertex v that is
    dominating, giving counts(G, k) = counts(G-v, k-1), or simplicial with r
    neighbors (r = 0 if isolated), giving
    counts(G, k) = (k-r)*counts(G-v, k) + counts(G-v, k-1), the
    falling-factorial form of P(G) = (x-r)*P(G-v).  A graph with no such
    vertex branches beside v, its highest-indexed vertex of least degree d,
    and every branch is one signed sum: one child's counts, lifted as a
    peel lifts them, plus or minus the other children's.  At d = 2 or 3, v
    goes in one step, by an identity for a vertex of any degree (G.-C. Rota,
    "On the foundations of combinatorial theory I", 1964): with H = G-v,
    counts(G, k) is the counts of H lifted as for a simplicial v with r = d,
    plus the sum of (-1)^|S| * counts(H/S, k) over the stable sets S of at
    least two of v's neighbors.  A partition of H into k blocks, m of them
    meeting N(v), takes v into k - m blocks.  A block meeting N(v) in j
    vertices holds the S inside it, whose signs sum to j - 1, and those
    j - 1 add up to d - m over the m blocks.  At d = 2 the neighbors y and
    z are not adjacent (else v would be simplicial), and the children are H
    and H/yz.  At d = 3, with neighbors x, y and z, they are H, H/S for
    each of the one to three stable pairs S, and H/xyz, counted with a
    minus sign, when all three pairs are stable.  At degree 4 or more, the
    block of u, the highest-indexed vertex of greatest degree, is expanded,
    as in the oracle's step (E. L. Lawler, IPL 5, 1976): the block holding
    u is u and a stable set I of its non-neighbors, so counts(G, k) is the
    sum of counts(G-u-I, k-1) over those I, the empty one included, G-u's
    lifted by one block as for a dominating peel.  One child G-u-I is
    pushed per I, its kept vertices in their order.  The sets are listed
    one non-neighbor at a time, and once they number more than
    ``BLOCK_MAX_CHILDREN`` (64; read per call, so 0 turns the step off) the
    listing stops and the node fills in beside v instead.  Without a memo
    no child is shared, and the step is off: every such node fills in.
    Fill-in: N(v) misses an edge xy, x the highest neighbor of v with a
    non-neighbor in N(v) and y the highest such non-neighbor, and
    counts(G) = counts(G+xy) + counts(G/xy), G+xy's not lifted; in both
    children v is a step nearer simplicial (Zykov's addition-contraction).
    A dense graph has few stable sets outside the neighbors of u, so its
    block step has few children, each of order n-1 or less, where fill-in
    kept order n on one side: G(22, .5) needs about a sixth of the graphs
    fill-in stored.  Every branch follows a scan that found no peel, with
    one exception: a last vertex of degree 2 whose neighbors are not
    adjacent is eliminated before any scan, even where another vertex would
    have peeled.  A merge keeps the lowest index of its set.  Every choice
    takes the highest index because the families keep their leaves at the
    top, and removing or merging away the last vertex shifts no index.

    The root's chain, the peels before its first branch, runs in place on
    one list of masks: each peel drops the last vertex with ``pop_last`` or
    rebuilds the list, and only the rules are kept.  Then one loop over one
    explicit stack does the rest, without recursion, on bare adjacency
    tuples, from the first graph that does not peel; its counts are lifted
    through the chain's rules, last first.  No ``Graph`` is built and no
    vertex is checked per node.  The graphs reached are memoized in
    ``memo``, a :class:`ProfileCache` the caller owns, under their adjacency
    tuples (see :class:`ProfileCache` for which); None disables caching.
    The chain is never looked up, so a memo shared by several calls answers
    a later call at its root and below its chain, not at a graph of its
    chain that an earlier call stored.  Orders above ``PROFILE_MAX_ORDER``
    raise ResourceError first.  A MemoryError anywhere in the chain, the
    work loop or the final lift empties the work stacks and ``memo`` before
    it leaves the call.  A graph
    on at most 7 vertices is answered before anything else, without
    the order check or the work stack; ``SMALL_ORDER`` is read per call, so
    a caller that sets it to 0 cuts the table to the null graph and runs
    every graph through the rules.  The record is built from its one field
    in one step, as ``namedtuple._make`` does, skipping the generated
    ``__new__``.
    """
    adj = g.adj
    if len(adj) <= SMALL_ORDER + 1 and SMALL_ORDER:
        return _new(StirlingProfile, (_base_counts(adj),))
    check_order(len(adj))
    return _new(StirlingProfile, (_profile_counts(adj, memo, SMALL_ORDER),))


def find_peel(adj):
    """Last vertex the profile engine can peel, with its rule, or None.

    With closed neighborhoods N[v] = adj[v] | 1 << v, vertex v is dominating
    when N[v] holds every vertex, and simplicial (its neighbors pairwise
    adjacent) when N[v] & ~N[u] == 0 for each neighbor u.  Scans v downward
    from the highest index (see :func:`profile`) and returns ``(v, None)``
    for a dominating v, else ``(v, r)`` for a simplicial v with r neighbors
    (r = 0 if isolated).  ``adj`` is any sequence of masks, a tuple or a
    list; the order is ``len(adj)``.  The engine passes tuples only: Python
    3.11 specializes the indexing here to one type, and one call in ten on
    a list made calls on random graphs about 7% slower (2-vCPU box).
    """
    full = (1 << len(adj)) - 1
    for v in range(len(adj) - 1, -1, -1):
        a = adj[v]
        closed = a | 1 << v
        if closed == full:
            return v, None
        rest = a
        while rest:
            low = rest & -rest
            if closed & ~(adj[low.bit_length() - 1] | low):
                break
            rest ^= low
        else:
            return v, a.bit_count()
    return None


def _profile_counts(
    adj: tuple[int, ...], memo: ProfileCache | None, small: int
) -> tuple[int, ...]:
    # Graphs are adjacency masks, their order the number of masks.  With
    # ``small`` at 6, those on at most 7 vertices are leaves, answered by
    # ``_base_counts`` from the order-6 rows; with ``small`` at 0 the only
    # leaf is the null graph, with its one partition into no blocks, and no
    # row is read.  No leaf is looked up or stored.
    top = small and small + 1
    cap = BLOCK_MAX_CHILDREN if memo is not None else 0
    # An elimination's signs by its number of stable pairs (then H/xyz last).
    rota_signs = (None, (add,), (add, add), (add, add, add, sub))
    get = put = None
    if memo is not None and len(adj) > top:
        counts = memo.get_labeled(adj)
        if counts is not None:
            return counts
        get, put = memo.get_labeled, memo.put
    root, masks, rules = adj, list(adj), []
    todo, done = [], []
    try:
        # The root's chain: while the graph peels, it is peeled in place, on
        # one list, and each rule is recorded.  The last vertex is tested
        # first, as on the stack below; a scan gets a tuple copy (see
        # ``find_peel``).  Every graph of the chain is smaller than all
        # earlier ones, and every later graph smaller still, so none can come
        # up again in the call: none is looked up or stored.
        while len(masks) > top:
            v = len(masks) - 1
            a = masks[v]
            rule = a.bit_count()
            if rule > 2:
                peel = find_peel(tuple(masks))
                if peel is None:
                    break
                v, rule = peel
            elif rule == 2 and not masks[(a & -a).bit_length() - 1] & a:
                break
            rules.append(rule)
            if v == len(masks) - 1:
                pop_last(masks)
            else:
                masks = list(without(masks, 1 << v))
        # The work stack starts at the first graph that does not peel, or at a
        # leaf.  ``todo`` holds graphs still to expand and combine steps, each
        # step pushed as the graph and then its rule, below the graphs whose
        # counts it needs: None or r for a peel, whose one child ``_peeled``
        # lifts, and the list [lift, shift, signs] for a branch.  A branch's
        # first child, G+xy, H or G-u, ends on top of ``done``, lifted by
        # ``lift`` (False: not at all); each other child's counts, in push
        # order, are added or subtracted (``signs``) from count ``shift`` up.
        # A rule is never a tuple, so a popped item's type tells the two apart.
        # ``done`` holds finished counts.  Every graph combined is stored.
        # Only the first graph leaves ``todo`` empty when it is popped, and it
        # is the root, looked up above, or a graph of its chain, so it is not
        # looked up.
        todo.append(tuple(masks) if rules else root)
        while todo:
            item = todo.pop()
            if type(item) is not tuple:
                rule, adj = item, todo.pop()
                counts = done.pop()
                if type(rule) is list:
                    lift, shift, signs = rule
                    if lift is not False:
                        counts = _peeled(counts, lift)
                    width = len(adj) + 1 - shift
                    for sign in signs:
                        c = done.pop()
                        counts = map(sign, counts, (0,) * shift + c + (0,) * (width - len(c)))
                    counts = tuple(counts)
                else:
                    counts = tuple(_peeled(counts, rule))
                if put is not None:
                    put(adj, counts)
                done.append(counts)
                continue
            adj = item
            if len(adj) <= top:
                done.append(_base_counts(adj) if top else (1,))
                continue
            if todo and get is not None:
                hit = get(adj)
                if hit is not None:
                    done.append(hit)
                    continue
            # The last vertex first: at degree 2 or less it needs no scan (see
            # ``profile``).  Only at degree 3 or more is a peel looked for, which
            # on a cycle would scan every vertex and find none.  The first graph
            # does not peel, as its chain found.
            v = len(adj) - 1
            a = adj[v]
            rule = a.bit_count()
            if rule > 2:
                peel = find_peel(adj) if todo else None
                if peel is not None:
                    v, rule = peel
                    todo += (adj, rule, without(adj, 1 << v))
                    continue
                # Nothing peeled, so every degree is at least 2 and no
                # neighborhood is a clique: branch beside the least-degree
                # vertex, as ``profile`` states.  Past degree 3, expand the
                # block of u, the highest vertex of greatest degree, into
                # G-u-I for each stable set I of its non-neighbors.  The sets
                # are listed one non-neighbor w at a time, each set found so
                # far taking w if it has no neighbor of w, so G-u is pushed
                # first.  With more than ``cap`` sets (0 without a memo),
                # fill in beside v.
                degrees = list(map(int.bit_count, adj))
                rule = min(degrees)
                v -= degrees[::-1].index(rule)
                a = adj[v]
                if rule > 3:
                    u = len(adj) - 1 - degrees[::-1].index(max(degrees))
                    rest = (1 << len(adj)) - 1 & ~(adj[u] | 1 << u)
                    stable = [0]
                    while rest and len(stable) <= cap:
                        w = rest & -rest
                        near = adj[w.bit_length() - 1]
                        stable += [s | w for s in stable if not s & near]
                        rest ^= w
                    if len(stable) <= cap:
                        todo += (adj, [None, 1, (add,) * (len(stable) - 1)])
                        todo += [without(adj, 1 << u | s) for s in stable]
                        continue
                    rest = a
                    while True:
                        drop = rest.bit_length() - 1
                        high = 1 << drop
                        missing = a & ~(adj[drop] | high)
                        if missing:
                            break
                        rest ^= high
                    keep = missing.bit_length() - 1
                    todo += (adj, [False, 0, (add,)], flipped(adj, keep, drop),
                             merged_set(adj, 1 << keep | high))
                    continue
            elif rule < 2 or adj[(a & -a).bit_length() - 1] & a:
                todo += (adj, rule, without(adj, 1 << v))
                continue
            # v has degree 2 or 3 and is not simplicial, so two of its neighbors
            # are not adjacent, and v goes in one step into H = G-v, H/S for
            # each stable pair S of its neighbors, and H/xyz when all three
            # pairs are stable.  Its neighbors, as a mask renumbered past v for
            # H, are x < y < z, x as a bit and y and z as indices; at degree 2,
            # x comes out as 0 and skips its two pairs.  Each pair's stability
            # is one bit of H.  At degree 2 the children have orders n-1 and
            # n-2, so without a memo a cycle costs T(C_n) = T(P_n-1) + T(C_n-2)
            # steps, quadratic in n; filling in there would make it Fibonacci.
            rest = without(adj, 1 << v)
            a = a & (1 << v) - 1 | a >> v + 1 << v
            z = a.bit_length() - 1
            a ^= 1 << z
            y = a.bit_length() - 1
            x = a ^ 1 << y
            xy = x and not rest[y] & x
            xz = x and not rest[z] & x
            yz = not rest[y] >> z & 1
            pairs = xy + xz + yz
            todo += (adj, [rule, 0, rota_signs[pairs]], rest)
            if xy:
                todo.append(merged_set(rest, a))
            if xz:
                todo.append(merged_set(rest, x | 1 << z))
            if yz:
                todo.append(merged_set(rest, 1 << y | 1 << z))
            if pairs == 3:
                todo.append(merged_set(rest, a | 1 << z))
        # Lift the stack's counts through the chain's peels, from its last up
        # to the root.
        counts = done.pop()
        for rule in reversed(rules):
            counts = tuple(_peeled(counts, rule))
        if rules and put is not None:
            put(root, counts)
    except MemoryError:
        # The work stacks and the memo are emptied before the error leaves
        # this frame.  Its traceback keeps the frame's locals alive, and
        # Python 3.11, unwinding, drops the error if it cannot then allocate
        # a caller's frame object, which surfaces as "SystemError: error
        # return without exception set".  The memo can hold most of the heap.
        todo.clear()
        done.clear()
        if memo is not None:
            memo.clear()
        raise
    return counts


def _peeled(counts: tuple[int, ...], rule) -> Iterable[int]:
    # The counts of G from those of G-v, as an iterable, v peeled by
    # ``rule``: None for a dominating v, shifting every count up one block;
    # r for a simplicial v with r neighbors, (k - r) * counts[k] + counts[k-1].
    if rule is None:
        return (0,) + counts
    return map(add, map(mul, range(-rule, len(counts) + 1 - rule), counts + (0,)),
               (0,) + counts)


# The base case of ``profile``: the counts of the 32,768 labeled graphs on
# ``SMALL_ORDER`` vertices, from which ``_base_counts`` answers every graph on
# at most 7.  Built by the rules at run time they would take about 0.6 s
# (2-vCPU box, Python 3.11), and about 7 MB held as tuples, so they ship as
# ``TABLE_FILE``, which ``write_table_file`` wrote from the rules alone:
# counts[0..6] in 7 bytes per row (none exceeds 90), in the order of
# ``all_graphs(6)``, so the row of a graph is indexed by its 15-bit upper
# triangle; 229,376 bytes, 15,253 packed by zlib.  Order 6 answers about a
# quarter of the memo lookups the engine made on the ``random`` workload's
# G(11-12, q) graphs when the table stopped at 5.  Only root graphs have
# fewer than 6 vertices, since the work stack expands graphs on 8 or more,
# whose children have at least 6: they are read as a row with dominating
# vertices added, not from rows of their own.
#
# Order 7 has no table: its 2,097,152 rows would be 16 MB in every profiling
# process.  Each order-7 graph is instead summed from at most 7 order-6 rows
# (see ``profile``), which took the engine's memo lookups per ``random`` pass
# from 19,336 to 13,331.  The same step one order higher, over order-7
# results, measured even with the engine, so it stops here.
SMALL_ORDER = 6
TABLE_FILE = os.path.join(os.path.dirname(__file__), "small_table.zlib")
_TABLE_BYTES = 7 << 15
# A row of ``_wide_rows``: counts[0..6], or counts[0..7] of an order-7 sum,
# one little-endian 16-bit lane each, 16 bytes a row.
_lanes7 = Struct("<7H").unpack_from
_lanes8 = Struct("<8H").unpack
_from_bytes = int.from_bytes


def _base_counts(adj: tuple[int, ...]) -> tuple[int, ...]:
    # The counts of a graph on at most 7 vertices (see ``profile``).  The
    # byte offset of the row of its first six vertices: the row's index is
    # the upper triangle of their adjacency matrix.  A graph on n < 6
    # vertices reads its masks as if padded with edgeless vertices, and
    # ``pads[n]`` makes those dominating; each shifts the counts up one
    # block, so the row starts with 6 - n zeros that are dropped.
    rows, joins, pads = _wide_rows()
    n = len(adj)
    if n < 5:
        adj += (0, 0, 0, 0, 0)
    o = (adj[0] >> 1 & 31 | adj[1] >> 2 << 5 & 0x1E0 | adj[2] >> 3 << 9 & 0xE00
         | adj[3] >> 4 << 12 & 0x3000 | adj[4] >> 5 << 14 & 0x4000) << 4 | pads[n]
    if n < 7:
        return _lanes7(rows, o)[6 - n:]
    # Order 7, in one vertex-extension step: the rows are summed as
    # integers, 16 bits a count, and no partial sum carries out of a lane,
    # since each is itself a count vector and no order-7 count exceeds 350.
    # The first row moves up one lane for the leading (0,).
    total = _from_bytes(rows[o:o + 16], "little") << 16
    for j in joins[adj[6]]:
        j |= o
        total += _from_bytes(rows[j:j + 16], "little")
    return _lanes8(total.to_bytes(16, "little"))


def _table_rows() -> bytes:
    """The order-6 rows as ``TABLE_FILE`` holds them, inflated and checked."""
    try:
        with open(TABLE_FILE, "rb") as f:
            packed = f.read()
        inflate = zlib.decompressobj()
        # One byte past the rows at most, whatever the file holds.
        rows = inflate.decompress(packed, _TABLE_BYTES + 1)
    except (OSError, zlib.error) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DataFileError(f"cannot read the engine's table {TABLE_FILE}: {reason}") from None
    if len(rows) != _TABLE_BYTES or not inflate.eof:
        raise DataFileError(
            f"the engine's table {TABLE_FILE} does not hold {_TABLE_BYTES} bytes of rows"
        )
    return rows


@cache
def _wide_rows() -> tuple[bytes, list[tuple[int, ...]], list[int]]:
    # The order-6 rows, inflated on the first ``profile`` call and held only
    # here, widened to 16 bytes a row: a row's byte offset is its index
    # shifted by 4, and a sum of rows as one integer cannot carry between
    # counts.  And ``joins[s]``, for a seventh vertex with neighborhood s, the
    # byte offsets to OR into the first six vertices' row for the step's
    # contractions, built by the step itself: with x the highest vertex
    # outside s, x joined to s, then the offsets of s | x.  And ``pads[n]``,
    # for orders 0-7, the offset of every edge with an end at or above n.
    # All of it takes about 1.9 ms on the first call, against 0.65 ms to
    # inflate the file alone (medians of 15 fresh interpreters, 2-vCPU box,
    # Python 3.11).
    narrow = _table_rows()
    wide = bytearray(16 << 15)
    for k in range(7):
        wide[2 * k::16] = narrow[k::7]
    # edge[x][y]: the bit of edge xy in a row's index, as a byte offset.
    edge = [[0] * 6 for _ in range(6)]
    for bit, (x, y) in enumerate(combinations(range(6), 2), 4):
        edge[x][y] = edge[y][x] = 1 << bit
    joins = [()] * 64
    for s in range(62, -1, -1):
        x = (63 ^ s).bit_length() - 1
        joins[s] = (sum(edge[x][y] for y in range(6) if s >> y & 1),) + joins[s | 1 << x]
    pads = [sum(edge[x][y] for y in range(n, 6) for x in range(y)) for n in range(8)]
    return bytes(wide), joins, pads


def _table_file_rows() -> bytes:
    """The order-6 rows, packed as ``TABLE_FILE`` holds them inflated.

    Each row is built by the engine's rules alone, with the table cut to the
    null graph, so no row of the file it replaces is read.
    """
    return bytes([c for g in all_graphs(6) for c in _profile_counts(g.adj, None, 0)])


def write_table_file() -> None:
    """Write ``_table_file_rows()``, zlib-packed, to ``TABLE_FILE``."""
    with open(TABLE_FILE, "wb") as f:
        f.write(zlib.compress(_table_file_rows(), 9))
