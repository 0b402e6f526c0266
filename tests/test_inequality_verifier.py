"""Named inequality checks: spot values, grid scans, and report semantics."""

import csv
import io
from functools import cache
from math import comb
from random import Random

import pytest

from graphbell import sequences
from graphbell.cli import _REPORT_FIELDS, _report_row
from graphbell.closed_forms import hnr_pk1_aggregates
from graphbell.coloring_engine import ProfileCache, profile
from graphbell.errors import DomainError, ResourceError, UsageError
from graphbell.inequality_verifier import (
    _DEFS,
    INEQUALITY_IDS,
    InequalityReport,
    _point_seed,
    _prop7_sides,
    check,
    definition,
    prop7_sample_check,
    scan,
    summarize,
)
from graphbell.graph_core import FamilyKind, FamilySpec, build, random_graph
from graphbell.sequences import (
    BigSeqCache, PointSums, SumColumns, alt_binomial_sum, bell, shared_cache, stirling_rows,
)

GRID_IDS = [i for i in INEQUALITY_IDS if i != "PROP7_MIX"]
PAIRS = [
    ("T_PATH_SHIFT", "C9"),
    ("T_H3_VS_PATH", "C11"),
    ("T_CYCLE_VS_H3", "C14"),
    ("T_CYCLE_VS_PATH", "C17"),
]


def test_id_catalog_complete():
    assert set(INEQUALITY_IDS) == {
        "T_PATH_SHIFT", "T_H3_VS_PATH", "T_CYCLE_VS_H3", "T_CYCLE_VS_PATH",
        "T_CYCLE_DROP2", "C9", "C11", "C14", "C17",
        "I1", "I2", "I3", "I4", "I5", "I6", "PROP7_MIX",
    }


# --- spot values -------------------------------------------------------------------


def test_i1_spot():
    r = check("I1", 4)
    assert (r.lhs, r.rhs, r.margin) == (225, 260, 35)
    assert r.holds_strict


def test_i3_spot():
    r = check("I3", 4)
    assert (r.lhs, r.rhs) == (15 * (15 - 5), 52 * (5 - 2)) == (150, 156)


def test_i5_spot():
    r = check("I5", 5)
    assert (r.lhs, r.rhs) == (52 * 11, 15 * 40) == (572, 600)


def test_i6_spot():
    r = check("I6", 5)
    assert (r.lhs, r.rhs) == ((52 + 15 - 7) * 11, (15 + 5 - 3) * 40) == (660, 680)


def test_cycle_vs_path_spot():
    r = check("T_CYCLE_VS_PATH", 5, 0)
    # normalized to lhs < rhs: path side crossed with cycle side
    assert (r.lhs, r.rhs) == (11 * 52, 40 * 15) == (572, 600)


def test_cycle_drop2_spot():
    r = check("T_CYCLE_DROP2", 5, 0)
    small = hnr_pk1_aggregates(3, 0, 2)
    big = hnr_pk1_aggregates(5, 0, 0)
    assert (small.b, small.t) == (17, 60)
    assert (r.lhs, r.rhs) == (small.t * big.b, big.t * small.b) == (660, 680)


def test_h3_vs_path_spot():
    r = check("T_H3_VS_PATH", 4, 0)
    lo = hnr_pk1_aggregates(3, 1, 0)
    assert (lo.b, lo.t) == (3, 10)
    assert (r.lhs, r.rhs) == (150, 156)


# --- report semantics ----------------------------------------------------------------


def test_margin_matches_strictness_everywhere():
    # Read back from the JSON and CSV renderings, not from the report's own
    # properties: margin = rhs - lhs, and strict exactly when it is positive.
    for id in GRID_IDS:
        reports = scan(id, 12, 2)
        buf = io.StringIO()
        csv.writer(buf).writerows(map(_report_row, reports))
        rows = [dict(zip(_REPORT_FIELDS, row)) for row in csv.reader(io.StringIO(buf.getvalue()))]
        assert len(rows) == len(reports)
        for r, row in zip(reports, rows):
            d = r.as_dict()
            assert int(d["margin"]) == int(d["rhs"]) - int(d["lhs"])
            assert d["holds_strict"] is (int(d["margin"]) > 0)
            assert int(row["margin"]) == int(row["rhs"]) - int(row["lhs"])
            assert row["holds_strict"] == ("true" if int(row["margin"]) > 0 else "false")


def test_out_of_range_check_names_bound():
    with pytest.raises(DomainError, match="n >= 4"):
        check("I3", 2)
    with pytest.raises(DomainError, match="n >= 5"):
        check("T_CYCLE_VS_PATH", 4, 0)


def test_unknown_id_rejected():
    with pytest.raises(UsageError):
        check("I9", 5)
    with pytest.raises(UsageError):
        scan("NOPE", 5)


def test_boundary_extensions_flagged_and_hold():
    r4 = check("I4", 2)
    assert r4.boundary_extension and r4.holds_strict
    r6 = check("I6", 4)
    assert r6.boundary_extension and r6.holds_strict
    assert not check("I4", 4).boundary_extension
    assert not check("I6", 5).boundary_extension


def test_coinciding_families_report_exact_equality():
    # at order 3 the cycle and the tailed triangle are the same graph, so the
    # strict comparison degenerates to an equality for every p
    for id in ("T_CYCLE_VS_H3", "C14"):
        for p in range(4):
            r = check(id, 3, p)
            assert r.expected_equality
            assert r.margin == 0 and not r.holds_strict
            assert r.as_expected
    r = check("I4", 3)
    assert r.expected_equality and r.margin == 0


@pytest.mark.parametrize("id", INEQUALITY_IDS)
def test_check_matches_scan_at_every_in_range_point(id):
    # check and scan share one range rule: every explored point scan marks
    # in range is the report check gives there, and check refuses the rest.
    # The points up to p = 40 compare the scan's Pascal-rule columns with
    # the dot products check takes.
    d = definition(id)
    for r in scan(id, 9, 2, explore=True) + scan(id, 9, 40)[-41::8]:
        assert r.in_range == d.in_range(r.n)
        if r.in_range:
            assert check(id, r.n, r.p) == r
        else:
            with pytest.raises(DomainError):
                check(id, r.n, r.p)


@pytest.mark.parametrize("id", INEQUALITY_IDS)
def test_scan_is_its_points_at_every_run_length(id):
    # Every run a small scan can start: for n_max 0-9 and p_max 0-3, explored
    # or not, the scan holds exactly its grid points in (n, p) order, each
    # the report of a run of that one point (check's, where check asserts
    # the point), and is [] when no n qualifies.  A slice off by one, or
    # one that starts below index 0, shows up at the low end of a run.
    d = definition(id)

    def point(n, p):
        if d.in_range(n):
            return check(id, n, p)
        (lhs,), (rhs,) = d.sides(PointSums(n), p)
        return InequalityReport(id, n, p, lhs, rhs)

    points = {(n, p): point(n, p) for n in range(d.eval_min, 10) for p in range(4)}
    for explore in (False, True):
        for n_max in range(10):
            for p_max in range(4):
                ps = range(p_max + 1) if d.uses_p else (0,)
                expected = [
                    points[n, p]
                    for n in range(d.eval_min, n_max + 1)
                    if explore or d.in_range(n)
                    for p in ps
                ]
                assert scan(id, n_max, p_max, explore=explore) == expected


def test_i_series_ignore_p():
    assert check("I1", 7, 3) == check("I1", 7, 0)


# --- scans ---------------------------------------------------------------------------


@pytest.mark.parametrize("id", GRID_IDS)
def test_scan_clean_on_reduced_grid(id):
    reports = scan(id, 15, 3)
    assert summarize(reports)["violations"] == 0
    assert reports == sorted(reports, key=lambda r: (r.n, r.p))


def test_scan_i1_shape():
    reports = scan("I1", 200, 0)
    assert len(reports) == 200
    assert summarize(reports)["violations"] == 0


def test_scan_p_grid_shape():
    d = definition("T_PATH_SHIFT")
    reports = scan("T_PATH_SHIFT", 10, 4)
    assert len(reports) == (10 - d.n_min + 1) * 5


def direct_cycle_sum(n, p, shift):
    """The double sum summed over j outside, i inside: the reference order."""
    return sum(
        (-1) ** (j + 1) * sum(comb(p, i) * bell(n + i - j + shift) for i in range(p + 1))
        for j in range(1, n)
    )


def test_cycle_sums_match_direct_double_sum():
    for n in range(2, 61):
        for p in range(7):
            b, t = direct_cycle_sum(n, p, 0), direct_cycle_sum(n, p, 1)
            assert (alt_binomial_sum(n, 0, p), alt_binomial_sum(n, 1, p)) == (b, t)
            if n >= 3:
                agg = hnr_pk1_aggregates(n, 0, p)
                assert (agg.b, agg.t) == (b, t)


def test_explore_reports_sub_range_failures_without_asserting():
    reports = scan("I3", 10, 0, explore=True)
    by_n = {r.n: r for r in reports}
    assert not by_n[2].in_range and not by_n[2].holds_strict
    assert not by_n[3].in_range and by_n[3].margin == 0
    summary = summarize(reports)
    assert summary["violations"] == 0
    assert summary["first_out_of_range_failure"] == (2, 0)


def test_explore_i5_boundary_pattern():
    reports = scan("I5", 10, 0, explore=True)
    by_n = {r.n: r for r in reports}
    # below the documented range the claim genuinely breaks at 2 and 4
    assert by_n[2].margin == 0 and by_n[4].margin == 0
    assert by_n[3].holds_strict
    assert all(by_n[n].holds_strict for n in range(5, 11))


def test_average_form_and_cross_multiplied_form_agree():
    # each T_* id compares averages via aggregates; its C* partner evaluates
    # the spelled-out Bell-sum products -- same statement, two pipelines
    for avg_form, cross_form in PAIRS:
        a_reports = scan(avg_form, 15, 3)
        c_reports = scan(cross_form, 15, 3)
        assert len(a_reports) == len(c_reports)
        for ra, rc in zip(a_reports, c_reports):
            assert (ra.n, ra.p) == (rc.n, rc.p)
            assert (ra.lhs, ra.rhs) == (rc.lhs, rc.rhs)


def test_c9_and_c17_sides_from_stirling_rows():
    # C9 and C17 call the same sums as their T_* partners, so for them
    # test_average_form_and_cross_multiplied_form_agree checks nothing.  Here
    # both sides are rebuilt from Bell numbers taken as Stirling row sums,
    # with the sums written out.
    bells = [sum(row) for row in stirling_rows(35)]

    def binomial_sum(m, p):  # sum_i C(p, i) * bell(m + i)
        return sum(comb(p, i) * bells[m + i] for i in range(p + 1))

    def alternating(n, s):  # sum_{j=1..n-1} (-1)^(j+1) * bell(n - j + s)
        return sum((-1) ** (j + 1) * bells[n - j + s] for j in range(1, n))

    def alternating_sum(n, shift, p):  # sum_i C(p, i) * alternating(n, shift + i)
        return sum(comb(p, i) * alternating(n, shift + i) for i in range(p + 1))

    expected = {
        "C9": lambda n, p: (binomial_sum(n, p + 1) * binomial_sum(n, p),
                            binomial_sum(n - 1, p + 1) * binomial_sum(n + 1, p)),
        "C17": lambda n, p: (binomial_sum(n, p) * alternating_sum(n, 0, p),
                             binomial_sum(n - 1, p) * alternating_sum(n, 1, p)),
    }
    for id, sides in expected.items():
        reports = scan(id, 30, 3, explore=True)
        assert {(r.n, r.p) for r in reports} == {
            (n, p) for n in range(definition(id).eval_min, 31) for p in range(4)
        }
        for r in reports:
            assert (r.lhs, r.rhs) == sides(r.n, r.p)


def test_path_shift_and_cycle_vs_path_sides_match_profiles():
    # The T_* sides cross-multiply closed-form aggregates; here each
    # aggregate is the bell and total of the engine's profile of the built
    # graph instead, for all five statements.  The engine peels the paths,
    # tails and isolated vertices in place and branches on the cycles
    # without a scan, so this checks both against the closed forms.
    @cache
    def aggregates(kind, n, p, r=0):
        pr = profile(build(FamilySpec(kind, n, r=r, p=p)), ProfileCache())
        return pr.bell, pr.total

    def h3(n, p):  # the tailed triangle of order n
        return aggregates(FamilyKind.HNR, 3, p, r=n - 3)

    def cross(lo, hi):
        return lo[1] * hi[0], hi[1] * lo[0]

    expected = {
        "T_PATH_SHIFT": lambda n, p: cross(aggregates(FamilyKind.PATH, n, p + 1),
                                           aggregates(FamilyKind.PATH, n + 1, p)),
        "T_CYCLE_VS_PATH": lambda n, p: cross(aggregates(FamilyKind.PATH, n, p),
                                              aggregates(FamilyKind.CYCLE, n, p)),
        "T_H3_VS_PATH": lambda n, p: cross(h3(n, p), aggregates(FamilyKind.PATH, n + 1, p)),
        "T_CYCLE_VS_H3": lambda n, p: cross(aggregates(FamilyKind.CYCLE, n, p), h3(n, p)),
        "T_CYCLE_DROP2": lambda n, p: cross(aggregates(FamilyKind.CYCLE, n - 2, p + 2),
                                            aggregates(FamilyKind.CYCLE, n, p)),
    }
    assert set(expected) == {id for id in INEQUALITY_IDS if id.startswith("T_")}
    for id, sides in expected.items():
        reports = scan(id, 30, 3, explore=True)
        assert len(reports) == 4 * (31 - definition(id).eval_min)
        for r in reports:
            assert (r.lhs, r.rhs) == sides(r.n, r.p)


def test_scan_capacity_guardrail(monkeypatch):
    # The grid needs Bell terms through n_max + p_max + 5; a grid past the
    # cap is refused before any term grows.
    cache = shared_cache()
    terms = len(cache._bell)
    with pytest.raises(ResourceError, match=f"requested capacity {10**6 + 6} exceeds"):
        scan("I1", 10**6, 0)
    with pytest.raises(ResourceError, match="requested capacity 4097 exceeds"):
        scan("C9", 10, 4081)
    assert len(cache._bell) == terms

    # A statement that reads no p grows and checks only what
    # scan(id, n_max, 0) does, whatever its p_max.
    fresh = BigSeqCache()
    monkeypatch.setattr(sequences, "_SHARED", fresh)
    reports = scan("I1", 5, 4000)
    assert len(fresh._bell) == 5 + 5 + 1
    assert reports == scan("I1", 5, 0)
    for p_max in (0, 4000):
        with pytest.raises(ResourceError, match="requested capacity 4097 exceeds"):
            scan("I1", 4091, p_max)
    assert len(fresh._bell) == 5 + 5 + 1

    # A statement that reads no Bell term is refused the same way, but grows
    # no term and builds no column.
    def refuse(*args):
        raise AssertionError("a scan that reads no Bell term built a column")

    fresh = BigSeqCache()
    monkeypatch.setattr(sequences, "_SHARED", fresh)
    monkeypatch.setattr(SumColumns, "_column", refuse)
    assert len(scan("PROP7_MIX", 300)) == 300
    with pytest.raises(ResourceError, match="requested capacity 4097 exceeds"):
        scan("PROP7_MIX", 4091)
    assert len(fresh._bell) == 1


@pytest.mark.parametrize("id", INEQUALITY_IDS)
def test_check_refuses_what_scan_refuses_before_any_term_grows(monkeypatch, id):
    # Under a cap of 40 terms both reach n + p + 5 (p as 0 for a statement
    # that reads no p): (20, 14) and (34, 0) are the last accepted points,
    # (20, 15) and (35, 0) the first refused.  check grew every term up to
    # the cap before it refused, where scan refused at once.
    monkeypatch.setattr(sequences, "HARD_MAX_TERMS", 40)

    def outcome(evaluate, n, p):
        fresh = BigSeqCache()
        monkeypatch.setattr(sequences, "_SHARED", fresh)
        try:
            evaluate(id, n, p)
        except ResourceError as exc:
            assert len(fresh._bell) == 1
            return str(exc)
        return None

    points = [(20, 14), (20, 15), (20, 19), (33, 1), (34, 0), (34, 1), (35, 0)]
    outcomes = [outcome(check, n, p) for n, p in points]
    assert outcomes == [outcome(scan, n, p) for n, p in points]
    assert outcomes[4] is None
    assert outcomes[6] == "requested capacity 41 exceeds the hard cap of 40 terms"
    if definition(id).uses_p:
        assert outcomes[0] is None
        assert outcomes[2] == "requested capacity 45 exceeds the hard cap of 40 terms"


def test_scan_holds_no_column_afterwards(monkeypatch):
    # The columns belong to the scan's own SumColumns: the shared cache
    # keeps only its Bell state, the column uncut, and no column of sums,
    # also when the sides raise after a column is built.
    cache = shared_cache()
    fields = {"_bell", "_alt_prefix", "_bell_triangle_row"}
    scan("C14", 12, 3)
    assert set(vars(cache)) == fields
    built = []

    def failing_sides(v, p):
        v.sums(0, p + 1)
        built.append(len(v._sums))
        raise ArithmeticError("side failed")

    monkeypatch.setitem(_DEFS, "C9", _DEFS["C9"]._replace(sides=failing_sides))
    with pytest.raises(ArithmeticError):
        scan("C9", 12, 3)
    assert built == [2]
    assert set(vars(cache)) == fields
    assert len(cache._alt_prefix) == len(cache._bell) >= 12 + 3 + 6


@pytest.mark.parametrize("id", INEQUALITY_IDS)
def test_scan_reads_every_sum_from_its_columns(id, monkeypatch):
    # With the binomial rows refused, a sum that took the dot product would
    # raise: every sum a scan reads, explored points included, is one
    # addition from a column.
    def refuse(*args, **kwargs):
        raise AssertionError("a scan took a binomial sum by dot product")

    monkeypatch.setattr(sequences, "_binomial_row", refuse)
    assert summarize(scan(id, 40, 6, explore=True))["violations"] == 0


@pytest.mark.parametrize("id", INEQUALITY_IDS)
def test_scan_reads_built_columns_in_one_step(id, monkeypatch):
    # Inside a scan a run's sums are one slice of a built column:
    # ``_column`` is entered only to build a column, and each column is
    # built once.  The Bell column grows once, in the scan's own up-front
    # ``ensure``; every later call finds it grown.  A statement that reads
    # no Bell term grows none and builds no column.
    ensure, column = BigSeqCache.ensure, SumColumns._column
    ensured, built, idle = [], [], []

    def counting_ensure(cache, n):
        ensured.append((n, len(cache._bell)))
        return ensure(cache, n)

    def counting_column(view, cols, p, op):
        have = len(cols)
        col = column(view, cols, p, op)
        built.extend((op, q) for q in range(have, len(cols)))
        if len(cols) == have:
            idle.append((p, op))
        return col

    monkeypatch.setattr(BigSeqCache, "ensure", counting_ensure)
    monkeypatch.setattr(SumColumns, "_column", counting_column)
    scan(id, 40, 4)
    if _DEFS[id].reads_bell:
        assert ensured[0][0] == 40 + (4 if _DEFS[id].uses_p else 0) + 5
        assert all(n < terms for n, terms in ensured[1:])
    else:
        assert ensured == [] and built == []
    assert idle == []
    assert len(built) == len(set(built))


def test_scan_reports_equal_constructed_ones():
    # scan builds each report with tuple.__new__, as namedtuple._make does,
    # which skips the generated __new__: that holds only while the report
    # has no field defaults and no constructor of its own.
    assert InequalityReport._field_defaults == {}
    for id in INEQUALITY_IDS:
        for r in scan(id, 12, 2, explore=True):
            assert type(r) is InequalityReport
            assert InequalityReport(*r) == r


# --- sampled mediant check -------------------------------------------------------------


def test_prop7_sample_check_runs_clean():
    assert prop7_sample_check(100, seed=42)


def test_prop7_requires_trials():
    with pytest.raises(DomainError):
        prop7_sample_check(0, seed=1)


def _flagged_prop7_sides(rng):
    # The sampling loop as it was written with ``ok`` and ``found`` flags,
    # reading every partner's Bell number and total again in the sums.
    while True:
        h = profile(random_graph(rng.randint(4, 7), rng))
        h_bell, h_total = h.bell, h.total
        partners = []
        ok = True
        for _ in range(rng.randint(1, 3)):
            found = None
            for _ in range(60):
                f = profile(random_graph(rng.randint(4, 7), rng))
                if f.total * h_bell < h_total * f.bell:
                    found = f
                    break
            if found is None:
                ok = False
                break
            partners.append(found)
        if not ok:
            continue
        weights = [rng.randint(1, 5) for _ in partners]
        mix_b = h_bell + sum(w * f.bell for w, f in zip(weights, partners))
        mix_t = h_total + sum(w * f.total for w, f in zip(weights, partners))
        return mix_t * h_bell, mix_b * h_total


def test_prop7_sides_match_the_flagged_loop():
    # Same sides and the same generator state after each instance, on every
    # point seed through n = 90 (the first redraws of the reference graph are
    # at n = 42, 55, 75, 76 and 82) and on the sample check's seeds.
    rngs = [Random(_point_seed(n, 0)) for n in range(1, 91)]
    for seed in (42, 7, 12345):
        rngs += [Random(seed)] * 100
    for rng in rngs:
        old = Random()
        old.setstate(rng.getstate())
        assert _prop7_sides(rng) == _flagged_prop7_sides(old)
        assert rng.getstate() == old.getstate()


def test_prop7_reports_deterministic_and_seeded():
    a = scan("PROP7_MIX", 8, 0)
    b = scan("PROP7_MIX", 8, 0)
    assert a == b
    assert len(a) == 8
    assert all(r.seed is not None for r in a)
    assert all(r.holds_strict for r in a)
    assert check("I1", 5).seed is None  # only the sampled statement has one


# --- violation accounting (synthetic, since the real grids are all clean) -------------


def test_summarize_counts_expectation_deviations():
    from graphbell.inequality_verifier import InequalityReport

    good = InequalityReport("I1", 5, 0, 1, 2)
    bad = InequalityReport("I1", 6, 0, 3, 2)
    eq_ok = InequalityReport("C14", 3, 0, 4, 4)
    eq_bad = InequalityReport("C14", 3, 1, 4, 5)
    oor = InequalityReport("I3", 2, 0, 2, 0)
    ext = InequalityReport("I4", 2, 0, 1, 2)
    # The flags are read from the statement table, not stored.
    assert eq_ok.expected_equality and eq_bad.expected_equality
    assert not oor.in_range and not oor.boundary_extension
    assert ext.boundary_extension and ext.in_range and not good.boundary_extension
    summary = summarize([good, bad, eq_ok, eq_bad, oor, ext])
    assert summary["violations"] == 2
    assert summary["first_out_of_range_failure"] == (2, 0)
