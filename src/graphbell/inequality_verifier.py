"""Grid verification of strict inequalities between partition-count invariants.

Every named statement is normalized to ``lhs < rhs`` over big integers:
average comparisons are cross-multiplied (t1*b2 vs t2*b1), never evaluated
as decimals.  Validity ranges live in a data table so out-of-range points
can be explored without being asserted.  Reports carry the margin
``rhs - lhs``; the claim holds strictly iff the margin is positive.
"""

from __future__ import annotations

from random import Random
from typing import Callable, NamedTuple

from . import closed_forms as cf
from .coloring_engine import profile
from .errors import DomainError, UsageError
from .graph_core import random_graph
from .sequences import alt_binomial_sum, bell, bell_binomial_sum, shared_cache


def _cross(lo: cf.FamilyAggregates, hi: cf.FamilyAggregates) -> tuple[int, int]:
    """Cross-multiplied form of the claim ``lo.a < hi.a``."""
    return lo.t * hi.b, hi.t * lo.b


def _t_path_shift(n, p):
    return _cross(cf.tree_pk1_aggregates(n, p + 1), cf.tree_pk1_aggregates(n + 1, p))


def _c9(n, p):
    lhs = bell_binomial_sum(n, p + 1) * bell_binomial_sum(n, p)
    return lhs, bell_binomial_sum(n - 1, p + 1) * bell_binomial_sum(n + 1, p)


def _t_h3_vs_path(n, p):
    return _cross(cf.hnr_pk1_aggregates(3, n - 3, p), cf.tree_pk1_aggregates(n + 1, p))


def _c11(n, p):
    s0, s_1 = bell_binomial_sum(n, p), bell_binomial_sum(n - 1, p)
    return s0 * (s0 - s_1), bell_binomial_sum(n + 1, p) * (s_1 - bell_binomial_sum(n - 2, p))


def _t_cycle_vs_h3(n, p):
    return _cross(cf.hnr_pk1_aggregates(n, 0, p), cf.hnr_pk1_aggregates(3, n - 3, p))


def _c14(n, p):
    s_1 = bell_binomial_sum(n - 1, p)
    lhs = alt_binomial_sum(n, 1, p) * (s_1 - bell_binomial_sum(n - 2, p))
    rhs = alt_binomial_sum(n, 0, p) * (bell_binomial_sum(n, p) - s_1)
    return lhs, rhs


def _t_cycle_vs_path(n, p):
    return _cross(cf.tree_pk1_aggregates(n, p), cf.hnr_pk1_aggregates(n, 0, p))


def _c17(n, p):
    lhs = bell_binomial_sum(n, p) * alt_binomial_sum(n, 0, p)
    return lhs, bell_binomial_sum(n - 1, p) * alt_binomial_sum(n, 1, p)


def _t_cycle_drop2(n, p):
    return _cross(cf.hnr_pk1_aggregates(n - 2, 0, p + 2), cf.hnr_pk1_aggregates(n, 0, p))


def _i1(n, _p):
    return bell(n) ** 2, bell(n - 1) * bell(n + 1)


def _i2(n, _p):
    return bell(n) * (bell(n) + bell(n + 1)), bell(n - 1) * (bell(n + 1) + bell(n + 2))


def _i3(n, _p):
    return bell(n) * (bell(n) - bell(n - 1)), bell(n + 1) * (bell(n - 1) - bell(n - 2))


def _i4(n, _p):
    lhs = (bell(n - 1) - bell(n - 2)) * alt_binomial_sum(n, 1, 0)
    return lhs, (bell(n) - bell(n - 1)) * alt_binomial_sum(n, 0, 0)


def _i5(n, _p):
    return bell(n) * alt_binomial_sum(n, 0, 0), bell(n - 1) * alt_binomial_sum(n, 1, 0)


def _i6(n, _p):
    s = -1 if n % 2 else 1
    lhs = (bell(n) + bell(n - 1) + 7 * s) * alt_binomial_sum(n, 0, 0)
    rhs = (bell(n - 1) + bell(n - 2) + 3 * s) * alt_binomial_sum(n, 1, 0)
    return lhs, rhs


class InequalityDef(NamedTuple):
    """One named statement: normalized sides plus its documented validity data.

    ``extensions`` are points below ``n_min`` verified to hold strictly and
    flagged in reports.  ``equality_points`` are in-range n values where the
    two sides provably coincide (the compared families are the same graph);
    there the verifier asserts an exact zero margin instead of strictness.
    ``reads_bell`` is False for a statement whose sides read no Bell term,
    so that a scan of it grows no Bell column.
    """

    id: str
    claim: str
    n_min: int
    eval_min: int
    uses_p: bool
    sides: Callable[[int, int], tuple[int, int]]
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
            4, 2, False, _i3,
        ),
        InequalityDef(
            "I4",
            "(bell(n-1)-bell(n-2)) * altsum(n,1) < (bell(n)-bell(n-1)) * altsum(n,0)",
            3, 2, False, _i4, extensions=(2,), equality_points=(3,),
        ),
        InequalityDef(
            "I5", "bell(n) * altsum(n,0) < bell(n-1) * altsum(n,1)",
            5, 2, False, _i5,
        ),
        InequalityDef(
            "I6",
            "(bell(n)+bell(n-1)+7(-1)^n) * altsum(n,0) < (bell(n-1)+bell(n-2)+3(-1)^n) * altsum(n,1)",
            5, 2, False, _i6, extensions=(4,),
        ),
        InequalityDef(
            "PROP7_MIX",
            "averages mix below the larger one: seeded random-instance check of the mediant bound",
            1, 1, False, lambda n, p: _prop7_sides(Random(_point_seed(n, p))),
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
    """Evaluate one named inequality at (n, p) exactly and report the margin."""
    d = definition(id)
    if p < 0:
        raise DomainError("p must be nonnegative")
    if not d.in_range(n):
        raise DomainError(f"{id} holds for n >= {d.n_min}; n={n} is out of range")
    p = p if d.uses_p else 0
    return InequalityReport(d.id, n, p, *d.sides(n, p))


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
    While the scan runs, the shared cache serves binomial Bell sums from
    Pascal-rule columns (``BigSeqCache.open_columns``): a sum is one index
    into a built column, and a column costs one addition per sum; they are
    dropped when the scan ends, also when it raises.  A statement that
    reads no Bell term (``PROP7_MIX``) is refused past the cap the same
    way, but grows no term and opens no column.
    """
    d = definition(id)
    if n_max < 0 or p_max < 0:
        raise DomainError("scan bounds must be nonnegative")
    if not d.uses_p:
        p_max = 0
    lowest = d.eval_min if explore else min(d.extensions + (d.n_min,))
    # A report is built from its five fields in one step, as
    # ``namedtuple._make`` does, skipping the generated ``__new__``.
    ident, sides, ps, new = d.id, d.sides, range(p_max + 1), tuple.__new__
    cache = shared_cache()
    if d.reads_bell:
        cache.ensure(n_max + p_max + 5)
        # Every statement reads its sums at indices up to n_max + 1.
        cache.open_columns(n_max + 2)
    else:
        cache.grow_capacity(n_max + p_max + 6)
    try:
        return [
            new(InequalityReport, (ident, n, p, *sides(n, p)))
            for n in range(lowest, n_max + 1)
            if explore or d.in_range(n)
            for p in ps
        ]
    finally:
        cache.close_columns()


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
        g = profile(random_graph(randint(4, 7), rng))
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
