"""Grid verification of strict inequalities between partition-count invariants.

Every named statement is normalized to ``lhs < rhs`` over big integers:
average comparisons are cross-multiplied (t1*b2 vs t2*b1), never evaluated
as decimals.  Validity ranges live in a data table so out-of-range points
can be explored without being asserted.  Reports carry the margin
``rhs - lhs``; the claim holds strictly iff the margin is positive.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, sub
from random import Random
from typing import Callable, Iterable, NamedTuple

from . import closed_forms as cf
from .coloring_engine import profile
from .errors import DomainError, UsageError
from .graph_core import random_graph
from .sequences import PointSums, SumColumns, shared_cache


def _cross(lo, hi):
    """The claim ``lo.a < hi.a`` cross-multiplied, t1*b2 < t2*b1, for (b, t) runs."""
    return map(mul, lo[1], hi[0]), map(mul, hi[1], lo[0])


# Each statement's sides at every n of v's run (a scan's ``SumColumns`` or
# check's ``PointSums``), read once.  v.sums(d, p) is S_p(n + d), bell(n + d)
# at p = 0; a cycle of order n + d is cf.hnr_form(v.alt, d, 0, p), and the
# tailed triangle of order n cf.hnr_form(v.alt_shift, 3, -3, p): tail n - 3.
def _t_path_shift(v, p):
    return _cross(cf.tree_form(v.sums, 0, p + 1), cf.tree_form(v.sums, 1, p))


def _c9(v, p):
    return map(mul, v.sums(0, p + 1), v.sums(0, p)), map(mul, v.sums(-1, p + 1), v.sums(1, p))


def _t_h3_vs_path(v, p):
    return _cross(cf.hnr_form(v.alt_shift, 3, -3, p), cf.tree_form(v.sums, 1, p))


def _c11(v, p):
    s_2, s_1, s0, s1 = (v.sums(d, p) for d in (-2, -1, 0, 1))
    return map(mul, s0, map(sub, s0, s_1)), map(mul, s1, map(sub, s_1, s_2))


def _t_cycle_vs_h3(v, p):
    return _cross(cf.hnr_form(v.alt, 0, 0, p), cf.hnr_form(v.alt_shift, 3, -3, p))


def _c14(v, p):
    s_2, s_1, s0 = (v.sums(d, p) for d in (-2, -1, 0))
    lhs = map(mul, v.alt(0, 1, p), map(sub, s_1, s_2))
    return lhs, map(mul, v.alt(0, 0, p), map(sub, s0, s_1))


def _t_cycle_vs_path(v, p):
    return _cross(cf.tree_form(v.sums, 0, p), cf.hnr_form(v.alt, 0, 0, p))


def _c17(v, p):
    return map(mul, v.sums(0, p), v.alt(0, 0, p)), map(mul, v.sums(-1, p), v.alt(0, 1, p))


def _t_cycle_drop2(v, p):
    return _cross(cf.hnr_form(v.alt, -2, 0, p + 2), cf.hnr_form(v.alt, 0, 0, p))


# The I statements read no p, so ``scan`` and ``check`` evaluate them at
# p = 0 alone, where S_0 is bell: I3, I4 and I5 are then the sides of C11,
# C14 and C17 term for term, and the table reuses those.
def _i1(v, _p):
    b_1, b0, b1 = (v.sums(d, 0) for d in (-1, 0, 1))
    return map(mul, b0, b0), map(mul, b_1, b1)


def _i2(v, _p):
    b_1, b0, b1, b2 = (v.sums(d, 0) for d in (-1, 0, 1, 2))
    return map(mul, b0, map(add, b0, b1)), map(mul, b_1, map(add, b1, b2))


def _i6(v, _p):
    b_2, b_1, b0 = (v.sums(d, 0) for d in (-2, -1, 0))
    s = [-1 if n % 2 else 1 for n in v.ns]
    lhs = map(mul, [x + y + 7 * e for x, y, e in zip(b0, b_1, s)], v.alt(0, 0, 0))
    return lhs, map(mul, [x + y + 3 * e for x, y, e in zip(b_1, b_2, s)], v.alt(0, 1, 0))


class InequalityDef(NamedTuple):
    """One named statement: normalized sides plus its documented validity data.

    ``extensions`` are points below ``n_min`` verified to hold strictly and
    flagged in reports; they lie directly below ``n_min``, so the points a
    scan asserts are one run of n.  ``equality_points`` are in-range n
    values where the two sides provably coincide (the compared families are
    the same graph); there the verifier asserts an exact zero margin instead
    of strictness.  ``reads_bell`` is False for a statement whose sides
    read no Bell term, so that a scan of it grows no Bell column.
    """

    id: str
    claim: str
    n_min: int
    eval_min: int
    uses_p: bool
    sides: Callable[[object, int], tuple[Iterable[int], Iterable[int]]]
    extensions: tuple[int, ...] = ()
    equality_points: tuple[int, ...] = ()
    reads_bell: bool = True

    def in_range(self, n: int) -> bool:
        """Whether the statement is asserted at ``n``: from ``n_min`` up, or an extension."""
        return n >= self.n_min or n in self.extensions


_DEFS: dict[str, InequalityDef] = {
    d.id: d
    for d in [
        InequalityDef(
            "T_PATH_SHIFT",
            "avg of path(n) + (p+1) isolated < avg of path(n+1) + p isolated",
            1, 1, True, _t_path_shift,
        ),
        InequalityDef(
            "C9",
            "cross-multiplied binomial-Bell-sum form of T_PATH_SHIFT",
            1, 1, True, _c9,
        ),
        InequalityDef(
            "T_H3_VS_PATH",
            "avg of tailed triangle (order n) + p isolated < avg of path(n+1) + p isolated",
            4, 3, True, _t_h3_vs_path,
        ),
        InequalityDef(
            "C11",
            "cross-multiplied difference-weighted-sum form of T_H3_VS_PATH",
            4, 2, True, _c11,
        ),
        InequalityDef(
            "T_CYCLE_VS_H3",
            "avg of cycle(n) + p isolated < avg of tailed triangle (order n) + p isolated",
            3, 3, True, _t_cycle_vs_h3, equality_points=(3,),
        ),
        InequalityDef(
            "C14",
            "cross-multiplied alternating-sum form of T_CYCLE_VS_H3",
            3, 2, True, _c14, equality_points=(3,),
        ),
        InequalityDef(
            "T_CYCLE_VS_PATH",
            "avg of path(n) + p isolated < avg of cycle(n) + p isolated",
            5, 3, True, _t_cycle_vs_path,
        ),
        InequalityDef(
            "C17",
            "cross-multiplied alternating-sum form of T_CYCLE_VS_PATH",
            5, 2, True, _c17,
        ),
        InequalityDef(
            "T_CYCLE_DROP2",
            "avg of cycle(n-2) + (p+2) isolated < avg of cycle(n) + p isolated",
            5, 5, True, _t_cycle_drop2,
        ),
        InequalityDef(
            "I1", "bell(n)^2 < bell(n-1)*bell(n+1) (strict log-convexity)",
            1, 1, False, _i1,
        ),
        InequalityDef(
            "I2", "bell(n)*(bell(n)+bell(n+1)) < bell(n-1)*(bell(n+1)+bell(n+2))",
            1, 1, False, _i2,
        ),
        InequalityDef(
            "I3", "bell(n)*(bell(n)-bell(n-1)) < bell(n+1)*(bell(n-1)-bell(n-2))",
            4, 2, False, _c11,
        ),
        InequalityDef(
            "I4",
            "(bell(n-1)-bell(n-2)) * altsum(n,1) < (bell(n)-bell(n-1)) * altsum(n,0)",
            3, 2, False, _c14, extensions=(2,), equality_points=(3,),
        ),
        InequalityDef(
            "I5", "bell(n) * altsum(n,0) < bell(n-1) * altsum(n,1)",
            5, 2, False, _c17,
        ),
        InequalityDef(
            "I6",
            "(bell(n)+bell(n-1)+7(-1)^n) * altsum(n,0) < (bell(n-1)+bell(n-2)+3(-1)^n) * altsum(n,1)",
            5, 2, False, _i6, extensions=(4,),
        ),
        InequalityDef(
            "PROP7_MIX",
            "averages mix below the larger one: seeded random-instance check of the mediant bound",
            1, 1, False,
            lambda v, p: zip(*[_prop7_sides(Random(_point_seed(n, p))) for n in v.ns]),
            reads_bell=False,
        ),
    ]
}

INEQUALITY_IDS = tuple(_DEFS)


class InequalityReport(NamedTuple):
    """One grid point: the normalized sides of statement ``id`` at (n, p).

    Everything else is derived: ``margin`` and ``holds_strict`` from the
    sides, the range flags from the statement table and ``seed`` from the
    point.  A point with ``expected_equality`` passes iff the margin is
    exactly zero; every other in-range point passes iff the claim holds
    strictly.  A report is an immutable tuple of its five fields and
    compares as one.
    """

    id: str
    n: int
    p: int
    lhs: int
    rhs: int

    @property
    def in_range(self) -> bool:
        return _DEFS[self.id].in_range(self.n)

    @property
    def boundary_extension(self) -> bool:
        return self.n in _DEFS[self.id].extensions

    @property
    def expected_equality(self) -> bool:
        return self.n in _DEFS[self.id].equality_points

    @property
    def seed(self) -> int | None:
        """The instance seed of the sampled statement; None for every other."""
        return _point_seed(self.n, self.p) if self.id == "PROP7_MIX" else None

    @property
    def margin(self) -> int:
        return self.rhs - self.lhs

    @property
    def holds_strict(self) -> bool:
        return self.rhs > self.lhs

    @property
    def as_expected(self) -> bool:
        if self.expected_equality:
            return self.margin == 0
        return self.holds_strict

    def as_dict(self) -> dict:
        out = {
            "id": self.id,
            "n": self.n,
            "p": self.p,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "margin": str(self.margin),
            "holds_strict": self.holds_strict,
        }
        if self.boundary_extension:
            out["boundary_extension"] = True
        if not self.in_range:
            out["in_range"] = False
        if self.expected_equality:
            out["expected_equality"] = True
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def definition(id: str) -> InequalityDef:
    try:
        return _DEFS[id]
    except KeyError:
        raise UsageError(
            f"unknown inequality id {id!r}; valid ids: {', '.join(INEQUALITY_IDS)}"
        ) from None


def check(id: str, n: int, p: int = 0) -> InequalityReport:
    """Evaluate one named inequality at (n, p) exactly and report the margin.

    A point is refused past the Bell cap exactly when ``scan(id, n, p)`` is,
    and before any term grows.
    """
    d = definition(id)
    if p < 0:
        raise DomainError("p must be nonnegative")
    if not d.in_range(n):
        raise DomainError(f"{id} holds for n >= {d.n_min}; n={n} is out of range")
    p = p if d.uses_p else 0
    shared_cache().grow_capacity(n + p + 6)  # scan's reach, n + p + 5
    (lhs,), (rhs,) = d.sides(PointSums(n), p)
    return InequalityReport(d.id, n, p, lhs, rhs)


def scan(
    id: str,
    n_max: int,
    p_max: int = 0,
    *,
    explore: bool = False,
) -> list[InequalityReport]:
    """All reports for ``id`` on the grid up to (n_max, p_max), sorted by (n, p).

    By default only the documented validity range is covered (extension
    points included, flagged).  With ``explore`` every evaluable n is
    covered and sub-range points are marked not-in-range rather than
    asserted.  The Bell column is grown through ``n_max + p_max + 5`` first,
    so a grid past the Bell cap is refused before any term grows.  A
    statement that reads no p is scanned at p = 0 alone, so its ``p_max``
    is neither grown nor checked: it scans as ``scan(id, n_max, 0)``.
    The sides are evaluated at each p over the whole run of n at once, from
    one ``SumColumns`` that the scan creates and drops: each sum is a slice
    of a Pascal-rule column, a column costs one big-integer operation per
    sum, and the shared cache keeps only its Bell column.  A statement that
    reads no Bell term (``PROP7_MIX``) is refused past the cap the same way,
    but grows no term and builds no column.
    """
    d = definition(id)
    if n_max < 0 or p_max < 0:
        raise DomainError("scan bounds must be nonnegative")
    if not d.uses_p:
        p_max = 0
    lowest = d.eval_min if explore else min(d.extensions + (d.n_min,))
    top, cache = n_max + p_max + 5, shared_cache()
    if d.reads_bell:
        cache.ensure(top)
    else:
        cache.grow_capacity(top + 1)
    run, width = range(lowest, n_max + 1), p_max + 1
    if not run:
        return []
    view = SumColumns(cache, run, top)
    # The reports in (n, p) order: those at p fill every width-th slot.  A
    # report is built from its five fields in one step, as
    # ``namedtuple._make`` does, skipping the generated ``__new__``.
    reports: list = [None] * (len(run) * width)
    ident, new, cls = d.id, tuple.__new__, repeat(InequalityReport)
    for p in range(width):
        lhs, rhs = d.sides(view, p)
        reports[p::width] = map(new, cls, zip(repeat(ident), run, repeat(p), lhs, rhs))
    return reports


def summarize(reports: list[InequalityReport]) -> dict:
    """Counts for a scan: in-range deviations from expectation fail;
    exploration points only inform."""
    violations = sum(1 for r in reports if r.in_range and not r.as_expected)
    first_oor = next(
        (
            (r.n, r.p)
            for r in reports
            if not r.in_range and not r.holds_strict
        ),
        None,
    )
    return {
        "reports": len(reports),
        "violations": violations,
        "first_out_of_range_failure": first_oor,
    }


# --- sampled mediant check -------------------------------------------------

_PROP7_SEED_BASE = 0x5BE11


def _point_seed(n: int, p: int) -> int:
    return _PROP7_SEED_BASE + 1_000_003 * n + 7919 * p


def _prop7_sides(rng: Random) -> tuple[int, int]:
    """One sampled instance of the mediant bound, as exact cross-products.

    Draws a reference graph H and lower-average partners F_i (resampled until
    the strict hypothesis holds), mixes their aggregate pairs with positive
    integer weights, and returns the cross-multiplied claim that the mixture
    average stays below the reference average.  Each graph is one draw: an
    order ``rng.randint(4, 7)``, then ``random_graph`` at that order, kept as
    its (Bell number, total) pair.  The generator is read in this order: H,
    the partner count ``rng.randint(1, 3)``, then up to 60 draws per partner
    until one has the lower average; if none does, H is redrawn and all of
    it repeats.  Last come the weights, one ``rng.randint(1, 5)`` per
    partner.  The goldens pin every report, so the order stays.
    """
    randint = rng.randint

    def draw() -> tuple[int, int]:
        # No memo: the engine answers graphs on at most 7 vertices from its
        # table before it would read one.
        g = profile(random_graph(randint(4, 7), rng), None)
        return g.bell, g.total

    while True:
        h_bell, h_total = draw()
        partners = []
        for _ in range(randint(1, 3)):
            for _ in range(60):
                b, t = draw()
                if t * h_bell < h_total * b:
                    partners.append((b, t))
                    break
            else:
                # reference average too small to dominate anything; redraw H
                break
        else:
            mix_b, mix_t = h_bell, h_total
            for b, t in partners:
                w = randint(1, 5)
                mix_b += w * b
                mix_t += w * t
            return mix_t * h_bell, mix_b * h_total


def prop7_sample_check(trials: int, seed: int) -> bool:
    """Run ``trials`` seeded mediant-bound instances; True iff every one is strict."""
    if trials < 1:
        raise DomainError("at least one trial is required")
    rng = Random(seed)
    for _ in range(trials):
        lhs, rhs = _prop7_sides(rng)
        if not lhs < rhs:
            return False
    return True
