"""Binomial Bell sums over slices of the cached columns.

``bell_binomial_sum(m, p)`` is sum_i C(p, i) * bell(m + i) and
``alt_binomial_sum(n, shift, p)`` is sum_i C(p, i) * A(n, shift + i), where
the alternating Bell sum A(n, s) = sum_j (-1)**(j+1) * bell(n - j + s), j = 1..n-1,
is ``alt_binomial_sum(n, s, 0)``.
Each is checked against its per-term sum, and the Bell sum also against
the Stirling triangle, whose recurrence shares nothing with the Bell
column.  The Pascal-rule columns a scan reads from (``SumColumns``) are
checked against the same per-term sums.  The settings profile registered in ``conftest.py`` derandomizes
the search.
"""

from math import comb

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from graphbell.errors import DomainError, ResourceError  # noqa: E402
from graphbell.sequences import (  # noqa: E402
    HARD_MAX_TERMS,
    BigSeqCache,
    SumColumns,
    alt_binomial_sum,
    bell,
    bell_binomial_sum,
    shared_cache,
    stirling_rows,
)

# p from 0 to 40; every binomial row is built per call.
P_MAX = 40


@settings(max_examples=150)
@given(st.integers(0, 120), st.integers(0, P_MAX))
def test_bell_binomial_sum_is_its_per_term_sum(m, p):
    assert bell_binomial_sum(m, p) == sum(comb(p, i) * bell(m + i) for i in range(p + 1))


@settings(max_examples=60)
@given(st.integers(0, 40), st.integers(0, P_MAX))
def test_bell_binomial_sum_matches_stirling_rows(m, p):
    bells = [sum(row) for row in stirling_rows(m + p)]
    by_rows = sum(comb(p, i) * bells[m + i] for i in range(p + 1))
    assert bell_binomial_sum(m, p) == by_rows


@settings(max_examples=200)
@given(st.integers(0, 80), st.integers(0, 8), st.integers(0, P_MAX))
def test_alt_binomial_sum_is_its_per_term_sum(n, shift, p):
    expected = sum(comb(p, i) * alt_binomial_sum(n, shift + i, 0) for i in range(p + 1))
    assert alt_binomial_sum(n, shift, p) == expected
    # Each A(n, shift + i), term by term: sum_j (-1)**(j+1) * bell(n - j + shift + i).
    direct = sum(
        comb(p, i) * (-1) ** (j + 1) * bell(n - j + shift + i)
        for i in range(p + 1)
        for j in range(1, n)
    )
    assert expected == direct


@settings(max_examples=100)
@given(
    st.integers(2, 40), st.integers(1, 8), st.integers(0, 1), st.integers(0, 16),
)
def test_column_sums_are_their_per_term_sums(lo, length, shift, p):
    # A scan's columns over the run n = lo..lo+length-1, read at every
    # offset a statement reads.  Column p + 1 is read first, so column p
    # (p >= 1) is already cut to the indices the run reads: every read must
    # still give the per-term sums, and a read that would start below index
    # 0 (or at order 0) is refused, not wrapped.
    run = range(lo, lo + length)
    bell(run.stop + p + 4)
    view = SumColumns(shared_cache(), run, run.stop + p + 4)
    view.sums(0, p + 1)
    view.alt(0, 0, p + 1)
    if p >= 1:
        assert len(view._sums[p]) == len(view._alts[p]) == run.stop + 1

    def alt(n, s):
        return sum(
            comb(p, i) * (-1) ** (j + 1) * bell(n - j + s + i)
            for i in range(p + 1)
            for j in range(1, n)
        )

    for d in (-2, -1, 0, 1):
        assert view.sums(d, p) == [
            sum(comb(p, i) * bell(n + d + i) for i in range(p + 1)) for n in run
        ]
    for d in (-2, 0):
        if lo + d < 1:
            with pytest.raises(DomainError):
                view.alt(d, shift, p)
        else:
            assert list(view.alt(d, shift, p)) == [alt(n + d, shift) for n in run]
    for d in (-3, -2):
        if lo + d < 0:
            with pytest.raises(DomainError):
                view.alt_shift(3, d, p)
        else:
            assert list(view.alt_shift(3, d, p)) == [alt(3, n + d) for n in run]
    with pytest.raises(DomainError):
        view.sums(-lo - 1, p)


@pytest.mark.parametrize("m", [0, 1, 7])
def test_p_zero_is_one_term(m):
    assert bell_binomial_sum(m, 0) == bell(m)
    for shift in (0, 3):
        assert alt_binomial_sum(m + 2, shift, 0) == sum(
            (-1) ** (j + 1) * bell(m + 2 - j + shift) for j in range(1, m + 2)
        )


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_order_below_two_is_empty(n):
    assert alt_binomial_sum(n, 0, 5) == 0
    assert alt_binomial_sum(n, -7, P_MAX) == 0


def test_negative_indices_are_domain_errors():
    with pytest.raises(DomainError):
        bell_binomial_sum(-1, 3)
    with pytest.raises(DomainError):
        bell_binomial_sum(4, -1)
    with pytest.raises(DomainError):
        alt_binomial_sum(5, -1, 0)
    with pytest.raises(DomainError):
        alt_binomial_sum(5, -2, 1)
    with pytest.raises(DomainError):
        alt_binomial_sum(5, 0, -1)


def test_negative_p_refused_before_any_term_grows():
    cache = BigSeqCache()
    with pytest.raises(DomainError, match="p must be nonnegative"):
        cache.bell_binomial_sum(1500, -1)
    with pytest.raises(DomainError, match="p must be nonnegative"):
        cache.alt_binomial_sum(1500, 0, -1)
    assert len(cache._bell) == 1
    assert cache.alt_binomial_sum(1, 0, -1) == 0  # n < 2 is empty for every p


def test_cap_refused_before_any_term_grows():
    cache = BigSeqCache()
    with pytest.raises(ResourceError):
        cache.bell_binomial_sum(HARD_MAX_TERMS - 3, 3)
    with pytest.raises(ResourceError):
        cache.bell_binomial_sum(HARD_MAX_TERMS - P_MAX, P_MAX)
    with pytest.raises(ResourceError):
        cache.alt_binomial_sum(HARD_MAX_TERMS - 2, 0, 3)
    with pytest.raises(ResourceError):
        cache.alt_binomial_sum(3, 0, HARD_MAX_TERMS)
    assert len(cache._bell) == 1  # refused before any term grew
