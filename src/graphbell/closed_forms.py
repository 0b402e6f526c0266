"""Closed-form aggregate invariants for the named graph families.

Everything here is computed from the integer-sequence cache alone, never via
the profile engine, so the two pipelines stay independent and
can be cross-checked against each other in tests.  ``b`` is the stable-set
partition count, ``t`` the total block count, ``a = t/b`` the exact average.
Each form computes ``t``, the aggregate with the higher Bell index, first,
so a call past the Bell cap is refused before any term grows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .graph_core import FamilyKind, FamilySpec
from .sequences import alt_binomial_sum, bell, bell_binomial_sum, two_bell


class FamilyAggregates(NamedTuple):
    """Stable-set partition count ``b`` and total block count ``t`` of one graph.

    An immutable tuple ``(b, t)`` that compares as one.
    """

    b: int
    t: int

    @property
    def a(self) -> Fraction:
        """The exact average, reduced on access: comparisons use ``b`` and ``t``."""
        return Fraction(self.t, self.b)


def tree_form(sums, n: int, p: int):
    """(b, t) of a tree of order n plus p isolated vertices, read through ``sums``.

    b = sum_i C(p, i) * bell(n+i-1) and t = sum_i C(p, i) * bell(n+i), t read
    first.  At p = 0 that is b = bell(n-1) and t = bell(n), whatever the
    tree's shape.  ``sums`` is ``bell_binomial_sum`` for one point, or a
    run's ``sums`` (n an offset) for one value per point of the run.
    """
    t = sums(n, p)
    return sums(n - 1, p), t


def tree_pk1_aggregates(n: int, p: int) -> FamilyAggregates:
    """A tree of order n plus p isolated vertices: ``tree_form`` by dot products."""
    if n < 1:
        raise DomainError("a tree has at least one vertex")
    if p < 0:
        raise DomainError("isolated-vertex count must be nonnegative")
    return FamilyAggregates._make(tree_form(bell_binomial_sum, n, p))


def hnr_form(alt, n: int, r: int, p: int):
    """(b, t) of a cycle of order n with an r-vertex tail plus p isolated vertices.

    The one closed form for every cycle-type family: a plain cycle is r = 0,
    and the tailed triangle n = 3, whose aggregates are the order-(r+3)
    tree value minus the order-(r+2) one.  A plain cycle plus p
    isolated vertices has b = sum_i C(p, i) * alt(n, i) and t shifts each
    alternating Bell sum alt up by one (Duncan & Peele, J. Integer Seq. 12,
    2009).  A tail of r vertices shifts every Bell index by r:
    b = sum_i C(p, i) * alt(n, r+i) and t = sum_i C(p, i) * alt(n, r+i+1), t
    read first: the two-step recursion (order n = triangle with the whole
    tail + order n-2 with the same tail) summed in closed form.  ``alt`` is
    ``alt_binomial_sum``, or a run's ``alt`` (n an offset) or ``alt_shift``.
    """
    t = alt(n, r + 1, p)
    return alt(n, r, p), t


def hnr_pk1_aggregates(n: int, r: int, p: int) -> FamilyAggregates:
    """A cycle of order n with an r-vertex tail, plus p isolated vertices: ``hnr_form``."""
    if n < 3:
        raise DomainError("the tailed-cycle family requires n >= 3")
    if r < 0 or p < 0:
        raise DomainError("tail and isolated-vertex counts must be nonnegative")
    return FamilyAggregates._make(hnr_form(alt_binomial_sum, n, r, p))


def empty_aggregates(n: int) -> FamilyAggregates:
    """The edgeless graph on n vertices: b = bell(n)."""
    if n < 0:
        raise DomainError("graph order must be nonnegative")
    t = two_bell(n - 1) if n >= 1 else 0
    return FamilyAggregates(bell(n), t)


def complete_aggregates(n: int) -> FamilyAggregates:
    """The complete graph on n vertices: one coloring, n classes."""
    if n < 0:
        raise DomainError("graph order must be nonnegative")
    return FamilyAggregates(1, n)


def aggregates_for(spec: FamilySpec) -> FamilyAggregates:
    """Dispatch a family spec to its closed form.

    Trees cover path, star and caterpillar; a cycle is the tailed cycle with
    r = 0, which ``FamilySpec`` enforces.
    """
    if spec.kind in (FamilyKind.PATH, FamilyKind.STAR, FamilyKind.CATERPILLAR):
        return tree_pk1_aggregates(spec.n, spec.p)
    if spec.kind in (FamilyKind.CYCLE, FamilyKind.HNR):
        return hnr_pk1_aggregates(spec.n, spec.r, spec.p)
    if spec.kind is FamilyKind.EMPTY:
        return empty_aggregates(spec.n + spec.p)
    if spec.p:
        raise DomainError("no closed form for a complete graph with isolated vertices")
    return complete_aggregates(spec.n)
