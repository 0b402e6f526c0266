"""Integer-sequence tables: frozen prefixes, identities, and brute-force oracles."""

from fractions import Fraction

import pytest

from graphbell.coloring_engine import brute_force_profile
from graphbell.errors import DomainError, ResourceError
from graphbell.graph_core import Graph
from graphbell.sequences import (
    HARD_MAX_TERMS,
    STIRLING_MAX_ROWS,
    BigSeqCache,
    alt_binomial_sum,
    avg_blocks,
    bell,
    shared_cache,
    stirling2,
    two_bell,
)

BELL_PREFIX = [1, 1, 2, 5, 15, 52, 203]
TWO_BELL_PREFIX = [1, 3, 10, 37, 151, 674]


def partitions_by_block_count(n):
    """Independent oracle: tally the set partitions of an n-set by block count.

    Every partition of the edgeless graph's vertices is stable, so the
    brute-force oracle counts them all; it shares nothing with the Bell or
    Stirling recurrences.  Entry k of the result counts the k-block ones.
    """
    return brute_force_profile(Graph.from_edges(n)).counts


def test_bell_prefix():
    assert [bell(i) for i in range(7)] == BELL_PREFIX


def test_two_bell_prefix():
    assert [two_bell(i) for i in range(6)] == TWO_BELL_PREFIX
    assert two_bell(4) == bell(6) - bell(5) == 203 - 52


def test_bell_matches_partition_enumeration():
    for n in range(11):
        assert bell(n) == sum(partitions_by_block_count(n))


def test_stirling_matches_partition_enumeration():
    assert stirling2(4, 2) == partitions_by_block_count(4)[2] == 7
    for n in range(9):
        assert partitions_by_block_count(n) == tuple(stirling2(n, k) for k in range(n + 1))


@pytest.mark.parametrize(
    "n,k,value",
    [(0, 0, 1), (1, 1, 1), (5, 1, 1), (9, 1, 1), (6, 6, 1), (3, 0, 0), (2, 5, 0)],
)
def test_stirling_edge_cases(n, k, value):
    assert stirling2(n, k) == value


def test_stirling_negative_k_is_zero():
    assert stirling2(4, -1) == 0


def test_row_sum_identity():
    # Bell column grows by its own triangle; row sums are the cross-check.
    for n in range(0, 61):
        assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))


def test_two_bell_both_closed_forms():
    for n in range(0, 101):
        weighted = sum(k * stirling2(n + 1, k) for k in range(n + 2))
        assert two_bell(n) == weighted == bell(n + 2) - bell(n + 1)


def test_avg_blocks_values():
    assert avg_blocks(1) == Fraction(1)
    assert avg_blocks(3) == Fraction(10, 5) == 2
    assert avg_blocks(5) == Fraction(151, 52)


def test_avg_blocks_reduced_positive_denominator():
    for n in range(1, 40):
        a = avg_blocks(n)
        assert a.denominator > 0
        from math import gcd

        assert gcd(a.numerator, a.denominator) == 1


def test_avg_blocks_zero_rejected():
    with pytest.raises(DomainError):
        avg_blocks(0)


def test_alternating_bell_sum_values():
    assert alt_binomial_sum(5, 0, 0) == 15 - 5 + 2 - 1 == 11
    assert alt_binomial_sum(5, 1, 0) == 52 - 15 + 5 - 2 == 40
    assert alt_binomial_sum(3, 0, 0) == 1


def test_alternating_bell_sum_domain():
    with pytest.raises(DomainError):
        alt_binomial_sum(5, -2, 0)
    with pytest.raises(DomainError):
        alt_binomial_sum(4, -2, 0)


def direct_alt_sum(n, shift):
    return sum((-1) ** (j + 1) * bell(n - j + shift) for j in range(1, n))


def test_alternating_sums_match_direct_j_sum():
    for n in range(121):
        for shift in range(0, 7):
            assert alt_binomial_sum(n, shift, 0) == direct_alt_sum(n, shift)


def test_growth_order_does_not_change_values():
    stirling_first, bell_first = BigSeqCache(), BigSeqCache()
    rows = [[stirling_first.stirling2(n, k) for k in range(n + 1)] for n in range(81)]
    bells = [bell_first.bell(n) for n in range(81)]
    assert len(bell_first._stirling) == 1  # Bell growth leaves the triangle alone
    assert rows == [[bell_first.stirling2(n, k) for k in range(n + 1)] for n in range(81)]
    assert bells == [stirling_first.bell(n) for n in range(81)] == [sum(r) for r in rows]
    assert [stirling_first.alt_binomial_sum(n, 1, 0) for n in range(80)] == [
        bell_first.alt_binomial_sum(n, 1, 0) for n in range(80)
    ]


def test_bell_and_stirling_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(61):
        assert bell(n) == int(sympy.bell(n))
        assert [stirling2(n, k) for k in range(n + 1)] == [
            int(stirling(n, k)) for k in range(n + 1)
        ]


def test_strict_log_convexity():
    for n in range(1, 121):
        assert bell(n) ** 2 < bell(n - 1) * bell(n + 1)


def test_exact_rational_comparison_is_cross_multiplication():
    # Fraction comparison must agree with integer cross-products everywhere.
    import random

    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randint(0, 10**18), rng.randint(1, 10**18)
        c, d = rng.randint(0, 10**18), rng.randint(1, 10**18)
        assert (Fraction(a, b) < Fraction(c, d)) == (a * d < c * b)
        assert (Fraction(a, b) == Fraction(c, d)) == (a * d == c * b)


def test_capacity_guardrail():
    cache = BigSeqCache()
    with pytest.raises(ResourceError):
        cache.bell(HARD_MAX_TERMS)
    with pytest.raises(ResourceError):
        cache.alt_binomial_sum(HARD_MAX_TERMS + 1, 0, 0)
    assert len(cache._bell) == 1  # refused before any term grew
    shared_cache().grow_capacity(HARD_MAX_TERMS)
    with pytest.raises(ResourceError):
        shared_cache().grow_capacity(HARD_MAX_TERMS + 1)


def test_stirling_row_cap():
    cache = BigSeqCache()
    with pytest.raises(ResourceError):
        cache.stirling2(STIRLING_MAX_ROWS, 1)
    assert len(cache._stirling) == 1  # refused before any row grew
    n = STIRLING_MAX_ROWS - 1
    assert cache.stirling2(n, 1) == 1
    assert cache.stirling2(n, 2) == 2 ** (n - 1) - 1
    assert cache.stirling2(n, n - 1) == n * (n - 1) // 2
    assert sum(cache.stirling2(n, k) for k in range(n + 1)) == cache.bell(n)
