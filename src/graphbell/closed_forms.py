"""Closed-form aggregate invariants for the named graph families.

Everything here is computed from the integer-sequence cache alone, never via
the deletion-contraction engine, so the two pipelines stay independent and
can be cross-checked against each other in tests.  ``b`` is the stable-set
partition count, ``t`` the total block count, ``a = t/b`` the exact average.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError
from .graph_core import FamilyKind, FamilySpec
from .sequences import alt_sum, alternating_bell_sum, bell, shared_cache, two_bell


@dataclass(frozen=True)
class FamilyAggregates:
    family: FamilySpec
    b: int
    t: int

    @property
    def a(self) -> Fraction:
        """The exact average, reduced on access: comparisons use ``b`` and ``t``."""
        return Fraction(self.t, self.b)


def tree_aggregates(n: int) -> FamilyAggregates:
    """Any tree of order n: b = bell(n-1), t = bell(n), independent of shape."""
    if n < 1:
        raise DomainError("a tree has at least one vertex")
    return FamilyAggregates(FamilySpec(FamilyKind.PATH, n), bell(n - 1), bell(n))


def tree_pk1_aggregates(n: int, p: int) -> FamilyAggregates:
    """A tree of order n plus p isolated vertices, as binomial Bell sums.

    b = sum_i C(p, i) * bell(n+i-1) and t = sum_i C(p, i) * bell(n+i).
    """
    if n < 1:
        raise DomainError("a tree has at least one vertex")
    if p < 0:
        raise DomainError("isolated-vertex count must be nonnegative")
    b = sum(comb(p, i) * bell(n + i - 1) for i in range(p + 1))
    t = sum(comb(p, i) * bell(n + i) for i in range(p + 1))
    return FamilyAggregates(FamilySpec(FamilyKind.PATH, n, p=p), b, t)


def cycle_aggregates(n: int) -> FamilyAggregates:
    """A cycle of order n >= 3, as alternating Bell sums."""
    return FamilyAggregates(
        FamilySpec(FamilyKind.CYCLE, n),
        alternating_bell_sum(n, 0),
        alternating_bell_sum(n, 1),
    )


def cycle_pk1_aggregates(n: int, p: int) -> FamilyAggregates:
    """A cycle of order n >= 3 plus p isolated vertices.

    b = sum_{j=1..n-1} (-1)**(j+1) sum_i C(p, i) * bell(n+i-j); t shifts the
    inner Bell index up by one.  The sums are taken in the other order,
    b = sum_i C(p, i) * alt(n, i) with the alternating Bell sum alt, so a
    point costs p+1 table reads instead of (n-1)(p+1) Bell terms.
    """
    if n < 3:
        raise DomainError("a cycle has at least three vertices")
    if p < 0:
        raise DomainError("isolated-vertex count must be nonnegative")
    b = sum(comb(p, i) * alt_sum(n, i) for i in range(p + 1))
    t = sum(comb(p, i) * alt_sum(n, i + 1) for i in range(p + 1))
    return FamilyAggregates(FamilySpec(FamilyKind.CYCLE, n, p=p), b, t)


def h3_tail_aggregates(m: int, p: int) -> FamilyAggregates:
    """A triangle with a tail of m path vertices, plus p isolated vertices.

    Expressed as consecutive path-family differences: both aggregates equal
    the order-(m+3) path value minus the order-(m+2) path value.
    """
    if m < 0 or p < 0:
        raise DomainError("tail and isolated-vertex counts must be nonnegative")
    big = tree_pk1_aggregates(m + 3, p)
    small = tree_pk1_aggregates(m + 2, p)
    return FamilyAggregates(
        FamilySpec(FamilyKind.HNR, 3, r=m, p=p), big.b - small.b, big.t - small.t
    )


def hnr_pk1_aggregates(n: int, r: int, p: int) -> FamilyAggregates:
    """A cycle of order n with an r-vertex tail, plus p isolated vertices.

    Unrolls the two-step recursion (order n = triangle with the whole tail +
    order n-2 with the same tail) into a plain sum of triangle-with-tail
    terms; even n bottoms out in one extra path term of order r + 2.  The
    unit coefficients are forced by the recursion and confirmed by brute
    force; a binomially weighted variant disagrees with direct enumeration
    from order 7 on.
    """
    if n < 3:
        raise DomainError("the tailed-cycle family requires n >= 3")
    if r < 0 or p < 0:
        raise DomainError("tail and isolated-vertex counts must be nonnegative")
    if n % 2 == 1:
        parts = [h3_tail_aggregates(2 * i + r, p) for i in range((n - 3) // 2 + 1)]
        b = sum(agg.b for agg in parts)
        t = sum(agg.t for agg in parts)
    else:
        parts = [h3_tail_aggregates(2 * i + r + 1, p) for i in range((n - 4) // 2 + 1)]
        tail_path = tree_pk1_aggregates(r + 2, p)
        b = sum(agg.b for agg in parts) + tail_path.b
        t = sum(agg.t for agg in parts) + tail_path.t
    return FamilyAggregates(FamilySpec(FamilyKind.HNR, n, r=r, p=p), b, t)


def lemma15_identity_check(n: int, p: int) -> bool:
    """Check the decomposition of a cycle plus p+2 isolated vertices.

    Both aggregates of C_n with p+2 isolated vertices must equal the
    tail-2 + 2*tail-1 + tail-0 combination of tailed-cycle values with p
    isolated vertices.  Returns True iff both identities hold exactly.
    """
    if n < 3 or p < 0:
        raise DomainError("identity check requires n >= 3 and p >= 0")
    lhs = cycle_pk1_aggregates(n, p + 2)
    terms = [hnr_pk1_aggregates(n, r, p) for r in (2, 1, 0)]
    rhs_b = terms[0].b + 2 * terms[1].b + terms[2].b
    rhs_t = terms[0].t + 2 * terms[1].t + terms[2].t
    return lhs.b == rhs_b and lhs.t == rhs_t


def empty_aggregates(n: int) -> FamilyAggregates:
    """The edgeless graph on n vertices: b = bell(n)."""
    if n < 0:
        raise DomainError("graph order must be nonnegative")
    t = two_bell(n - 1) if n >= 1 else 0
    return FamilyAggregates(FamilySpec(FamilyKind.EMPTY, n), bell(n), t)


def complete_aggregates(n: int) -> FamilyAggregates:
    """The complete graph on n vertices: one coloring, n classes."""
    if n < 0:
        raise DomainError("graph order must be nonnegative")
    return FamilyAggregates(FamilySpec(FamilyKind.COMPLETE, n), 1, n)


def aggregates_for(spec: FamilySpec) -> FamilyAggregates:
    """Dispatch a family spec to its closed form (trees cover path and star).

    Every form but the complete graph's reads Bell numbers up to index
    ``spec.order`` (``order + 1`` for the edgeless graph), so the Bell cap is
    checked for that index before any term grows.
    """
    if spec.kind is not FamilyKind.COMPLETE:
        top = spec.order + 1 if spec.kind is FamilyKind.EMPTY else spec.order
        shared_cache().grow_capacity(top + 1)
    if spec.kind in (FamilyKind.PATH, FamilyKind.STAR, FamilyKind.CATERPILLAR):
        agg = tree_pk1_aggregates(spec.n, spec.p)
        return FamilyAggregates(spec, agg.b, agg.t)
    if spec.kind is FamilyKind.CYCLE:
        agg = cycle_pk1_aggregates(spec.n, spec.p)
        return FamilyAggregates(spec, agg.b, agg.t)
    if spec.kind is FamilyKind.HNR:
        return hnr_pk1_aggregates(spec.n, spec.r, spec.p)
    if spec.kind is FamilyKind.EMPTY:
        agg = empty_aggregates(spec.n + spec.p)
        return FamilyAggregates(spec, agg.b, agg.t)
    if spec.kind is FamilyKind.COMPLETE:
        if spec.p:
            raise DomainError("no closed form for a complete graph with isolated vertices")
        return complete_aggregates(spec.n)
    raise DomainError(f"no closed form for family {spec.kind.value}")
