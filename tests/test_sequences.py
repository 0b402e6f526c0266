"""Integer-sequence tables: frozen prefixes, identities, and brute-force oracles."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from graphbell.coloring_engine import restricted_growth_strings
from graphbell.errors import DomainError, ResourceError
from graphbell.sequences import (
    HARD_MAX_TERMS,
    STIRLING_MAX_ROWS,
    BigSeqCache,
    alt_sum,
    alternating_bell_sum,
    avg_blocks,
    bell,
    shared_cache,
    stirling2,
    two_bell,
)

BELL_PREFIX = [1, 1, 2, 5, 15, 52, 203]
TWO_BELL_PREFIX = [1, 3, 10, 37, 151, 674]


def partitions_by_block_count(n):
    """Independent oracle: tally set partitions of an n-set by block count."""
    tally = {}
    for rgs in restricted_growth_strings(n):
        k = max(rgs) + 1 if rgs else 0
        tally[k] = tally.get(k, 0) + 1
    return tally


def test_bell_prefix():
    assert [bell(i) for i in range(7)] == BELL_PREFIX


def test_two_bell_prefix():
    assert [two_bell(i) for i in range(6)] == TWO_BELL_PREFIX
    assert two_bell(4) == bell(6) - bell(5) == 203 - 52


def test_bell_matches_partition_enumeration():
    for n in range(11):
        assert bell(n) == sum(partitions_by_block_count(n).values())


def test_stirling_matches_partition_enumeration():
    tally = partitions_by_block_count(4)
    assert stirling2(4, 2) == tally[2] == 7
    for n in range(9):
        tally = partitions_by_block_count(n)
        for k in range(n + 1):
            assert stirling2(n, k) == tally.get(k, 0)


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
    assert alternating_bell_sum(5, 0) == 15 - 5 + 2 - 1 == 11
    assert alternating_bell_sum(5, 1) == 52 - 15 + 5 - 2 == 40
    assert alternating_bell_sum(3, 0) == 1


def test_alternating_bell_sum_domain():
    with pytest.raises(DomainError):
        alternating_bell_sum(2, 0)
    with pytest.raises(DomainError):
        alternating_bell_sum(5, -2)
    with pytest.raises(DomainError):
        alt_sum(4, -2)


def direct_alt_sum(n, shift):
    return sum((-1) ** (j + 1) * bell(n - j + shift) for j in range(1, n))


def test_alternating_sums_match_direct_j_sum():
    for n in range(121):
        for shift in range(-1, 7):
            want = direct_alt_sum(n, shift)
            assert alt_sum(n, shift) == want
            if n >= 3:
                assert alternating_bell_sum(n, shift) == want
            else:
                with pytest.raises(DomainError):
                    alternating_bell_sum(n, shift)


def test_growth_order_does_not_change_values():
    stirling_first, bell_first = BigSeqCache(), BigSeqCache()
    rows = [[stirling_first.stirling2(n, k) for k in range(n + 1)] for n in range(81)]
    bells = [bell_first.bell(n) for n in range(81)]
    assert len(bell_first._stirling) == 1  # Bell growth leaves the triangle alone
    assert rows == [[bell_first.stirling2(n, k) for k in range(n + 1)] for n in range(81)]
    assert bells == [stirling_first.bell(n) for n in range(81)] == [sum(r) for r in rows]
    assert [stirling_first.alt_sum(n, 1) for n in range(80)] == [
        bell_first.alt_sum(n, 1) for n in range(80)
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
        cache.alt_sum(HARD_MAX_TERMS + 1)
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


def test_shared_cache_concurrent_growth():
    cache = BigSeqCache()

    def read(i):
        if i % 3 == 0:
            return cache.bell(200)
        if i % 3 == 1:
            return cache.alt_sum(200, 1)
        return tuple(cache.stirling2(150, k) for k in range(151))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the growth loops too
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(read, range(24), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    ref = shared_cache()
    assert set(results[0::3]) == {ref.bell(200)}
    assert set(results[1::3]) == {ref.alt_sum(200, 1)}
    assert set(results[2::3]) == {tuple(ref.stirling2(150, k) for k in range(151))}
