"""Binomial Bell sums over slices of the cached columns.

``bell_binomial_sum(m, p)`` is sum_i C(p, i) * bell(m + i) and
``alt_binomial_sum(n, shift, p)`` is sum_i C(p, i) * A(n, shift + i), where
the alternating Bell sum A(n, s) = sum_j (-1)**(j+1) * bell(n - j + s), j = 1..n-1,
is ``alt_binomial_sum(n, s, 0)``.
Each is checked against its per-term sum, and the Bell sum also against
the Stirling triangle, whose recurrence shares nothing with the Bell
column.  The Pascal-rule columns a scan reads from are checked against
the same per-term sums.  The settings profile registered in ``conftest.py`` derandomizes
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
    alt_binomial_sum,
    bell,
    bell_binomial_sum,
    stirling2,
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
    by_rows = sum(
        comb(p, i) * sum(stirling2(m + i, k) for k in range(m + i + 1)) for i in range(p + 1)
    )
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


@settings(max_examples=150)
@given(
    st.integers(0, 110), st.integers(1, 30),
    st.integers(0, 60), st.integers(0, 5), st.integers(0, P_MAX),
)
def test_column_sums_are_their_per_term_sums(grown, kept, m, shift, p):
    # Columns opened over a Bell column of ``grown + 1`` terms and cut to
    # ``kept`` entries.  Column p + 1 is read first, so column p (p >= 1)
    # is already cut: a read past the end of a cut or short column must
    # fall back to the dot product and give the same sum.
    cache = BigSeqCache()
    cache.ensure(grown)
    cache.open_columns(kept)
    try:
        cache.bell_binomial_sum(0, p + 1)
        cache.alt_binomial_sum(2, 0, p + 1)
        if p >= 1:
            assert len(cache._sum_cols[p]) <= kept and len(cache._alt_cols[p]) <= kept
        for index in (0, m):
            assert cache.bell_binomial_sum(index, p) == sum(
                comb(p, i) * bell(index + i) for i in range(p + 1)
            )
        for n in (2, m):
            assert cache.alt_binomial_sum(n, shift, p) == sum(
                comb(p, i) * (-1) ** (j + 1) * bell(n - j + shift + i)
                for i in range(p + 1)
                for j in range(1, n)
            )
    finally:
        cache.close_columns()


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
