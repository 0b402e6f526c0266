"""Exact arbitrary-precision tables for set-partition counts.

``bell(n)`` counts the set partitions of an n-element set, ``stirling2(n, k)``
those with exactly k blocks, and ``two_bell(n)`` the total number of blocks
over all partitions of an (n+1)-element set.  The Bell column and the
Stirling triangle are grown by *independent* recurrences (Bell triangle vs.
the two-term triangle rule) so the test suite can cross-check one pipeline
against the other.  The Bell column carries its alternating prefix sums, so
every alternating Bell sum is one subtraction (``alt_binomial_sum`` at
p = 0).  A binomial Bell sum sum_i C(p, i) * bell(m + i), and its
alternating counterpart, is one dot product of a binomial row with one
slice of a cached column, so a family with p isolated vertices costs one
call, not p + 1; the binomial row is built per call.  A scan reads both
kinds over a whole run of n from the Pascal-rule columns of its own
``SumColumns``, one slice per read; ``PointSums`` gives the same reads for
one n by dot product.
The Stirling triangle is grown only as far as ``stirling2`` has been
asked, so Bell lookups cost memory linear in the index.  Each table has
one hard cap, checked before it grows: ``HARD_MAX_TERMS`` Bell terms and
``STIRLING_MAX_ROWS`` triangle rows.
Everything is exact integer or Fraction arithmetic; there is no floating
point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, mul, sub
from typing import Iterator

from .errors import DomainError, ResourceError

# Bell indices 0..HARD_MAX_TERMS-1 may be grown; bell(4095) has about 10k
# digits and takes about 10 s to reach on a 2-vCPU box.
HARD_MAX_TERMS = 4096
# Rows 0..STIRLING_MAX_ROWS-1 of the Stirling triangle may be grown.  The
# triangle holds about n**2/2 big integers and its decimal form grows like
# n**3.  Measured on a 2-vCPU box: growing 512 rows takes 0.06 s and 41 MB,
# 768 rows 0.2 s and 103 MB.  ``seq --kind stirling2 --n 511`` prints 48 MB
# in 0.8-2.1 s at 43 MB peak RSS (208 MB with --json, which holds every
# row); at n = 767 and 1023 the output is 177 and 440 MB, and --json peaked
# near 0.7 and 1.6 GB.
STIRLING_MAX_ROWS = 512


def _binomial_row(p: int, signed: bool = False) -> tuple[int, ...]:
    """C(p, i) for i = 0..p, times (-1)**i when ``signed``, built per call."""
    return tuple(-comb(p, i) if signed and i % 2 else comb(p, i) for i in range(p + 1))


class BigSeqCache:
    """Append-only cache of Bell numbers and the k-block partition triangle.

    Rows are never mutated after being appended.  Next to the Bell column
    sits ``_alt_prefix[m] = sum_{i<=m} (-1)**i * bell(i)``, grown in the same
    step; the Stirling triangle is grown on its own, by ``stirling2``.  Each
    table refuses, with ResourceError, to grow past its one hard cap.
    """

    def __init__(self):
        self._bell: list[int] = [1]
        self._alt_prefix: list[int] = [1]
        self._bell_triangle_row: list[int] = [1]
        self._stirling: list[list[int]] = [[1]]

    def grow_capacity(self, terms: int) -> None:
        """Raise ResourceError at once if ``terms`` Bell terms exceed the hard cap.

        A stateless up-front check for callers that know their largest index
        before any term grows; ``ensure`` makes the same check per call.  It
        stays a method of its own because the ``perfbench`` harness calls it
        by name.
        """
        if terms > HARD_MAX_TERMS:
            raise ResourceError(
                f"requested capacity {terms} exceeds the hard cap of {HARD_MAX_TERMS} terms"
            )

    def ensure(self, n: int) -> None:
        """Extend the Bell column and its alternating prefix sums through index n.

        Raises ResourceError before any term grows if n >= HARD_MAX_TERMS.
        """
        if n < len(self._bell):
            return
        self.grow_capacity(n + 1)
        while len(self._bell) <= n:
            # Bell triangle: next row starts with the previous row's last entry.
            row = self._bell_triangle_row
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            self._bell_triangle_row = nxt
            m = len(self._bell)
            self._alt_prefix.append(self._alt_prefix[-1] + (-nxt[0] if m % 2 else nxt[0]))
            self._bell.append(nxt[0])

    def bell(self, n: int) -> int:
        if n < 0:
            raise DomainError("Bell index must be nonnegative")
        self.ensure(n)
        return self._bell[n]

    def stirling2(self, n: int, k: int) -> int:
        """Partitions of an n-set into exactly k nonempty blocks (0 when k is out of range).

        Growing the triangle to row ``STIRLING_MAX_ROWS`` or beyond raises
        ResourceError before any row is added.
        """
        if n < 0:
            raise DomainError("Stirling row index must be nonnegative")
        if k < 0 or k > n:
            return 0
        if n >= len(self._stirling):
            if n >= STIRLING_MAX_ROWS:
                raise ResourceError(
                    f"Stirling row {n} exceeds the cap of {STIRLING_MAX_ROWS} triangle rows"
                )
            # Triangle rule: count(n, k) = k*count(n-1, k) + count(n-1, k-1).
            while len(self._stirling) <= n:
                prev = self._stirling[-1]
                m = len(self._stirling)
                srow = [0] * (m + 1)
                for j in range(1, m + 1):
                    srow[j] = j * (prev[j] if j < m else 0) + prev[j - 1]
                self._stirling.append(srow)
        return self._stirling[n][k]

    def bell_binomial_sum(self, m: int, p: int) -> int:
        """Sum of C(p, i) * bell(m + i) for i = 0..p.

        One dot product of a binomial row with the slice bell[m : m+p+1];
        ``SumColumns`` reads the same sum over a run of m.  Raises
        DomainError for a negative m or p, and ResourceError if
        m + p >= HARD_MAX_TERMS, both before any term grows.
        """
        if m < 0:
            raise DomainError("Bell index must be nonnegative")
        if p < 0:
            raise DomainError(f"the binomial order p must be nonnegative, not {p}")
        self.ensure(m + p)
        return sum(map(mul, _binomial_row(p), self._bell[m : m + p + 1]))

    def alt_binomial_sum(self, n: int, shift: int, p: int) -> int:
        """Sum of C(p, i) * A(n, shift + i) for i = 0..p.

        A(n, s), the sum of (-1)**(j+1) * bell(n - j + s) for j = 1..n-1, is
        the alternating Bell sum; p = 0 gives A(n, shift) alone.  With the
        alternating prefix sums P, term i is
        (-1)**(n+shift+1) * (-1)**i * (P[n+shift-1+i] - P[shift+i]), so the
        sum is two dot products of the signed binomial row with two slices
        of P; ``SumColumns`` reads the same sum over a run.
        The sum is 0 for n < 2; otherwise a negative shift or p raises
        DomainError, and an index past HARD_MAX_TERMS ResourceError, before
        any term grows.
        """
        if n < 2:
            return 0
        if shift < 0:
            raise DomainError("the alternating Bell sum shift must be nonnegative")
        if p < 0:
            raise DomainError(f"the binomial order p must be nonnegative, not {p}")
        top = n + shift - 1
        self.ensure(top + p)
        row = _binomial_row(p, signed=True)
        prefix = self._alt_prefix
        diff = sum(map(mul, row, prefix[top : top + p + 1]))
        diff -= sum(map(mul, row, prefix[shift : shift + p + 1]))
        return -diff if (n + shift) % 2 == 0 else diff


class SumColumns:
    """Binomial Bell sums over one run ``ns`` of consecutive n, from Pascal-rule columns.

    A scan creates one once the Bell column reaches ``top``, and drops it.
    Column p holds S_p[m] = ``bell_binomial_sum(m, p)``, or
    Q_p[j] = sum_i C(p, i) * (-1)**i * P[j + i] over the alternating prefix
    column P; column 0 is the cache's, through ``top``.  Column p is built
    on first read from column p-1, one big-integer operation per sum:
    S_p[m] = S_{p-1}[m] + S_{p-1}[m+1], Q_p[j] = Q_{p-1}[j] - Q_{p-1}[j+1].
    Once column p+1 is built, column p (p >= 1) is cut to the indices a run
    reads, 0..ns[-1]+1, so memory follows the points.  A read gives one
    value per n; one outside a column raises DomainError, as a negative
    slice start would wrap.
    """

    def __init__(self, cache: BigSeqCache, ns: range, top: int):
        self.ns = ns
        self._sums = [cache._bell[: top + 1]]
        self._alts = [cache._alt_prefix[: top + 1]]

    def _column(self, cols: list[list[int]], p: int, op) -> list[int]:
        while len(cols) <= p:
            prev = cols[-1]
            cols.append(list(map(op, prev, prev[1:])))
            if len(cols) > 2:
                del prev[self.ns.stop + 1 :]
        return cols[p]

    def _run(self, col: list[int], start: int) -> list[int]:
        stop = start + len(self.ns)
        if start < 0 or stop > len(col):
            raise DomainError(f"a run reads indices {start}..{stop - 1} of a column of {len(col)}")
        return col[start:stop]

    def sums(self, d: int, p: int) -> list[int]:
        """``bell_binomial_sum(n + d, p)`` for each n of the run (p = 0: bell(n + d))."""
        cols = self._sums
        return self._run(cols[p] if p < len(cols) else self._column(cols, p, add), self.ns.start + d)

    def alt(self, d: int, s: int, p: int) -> Iterator[int]:
        """``alt_binomial_sum(n + d, s, p)`` for each n of the run (n + d >= 1), read once."""
        return self._alt(self.ns.start + d, s, False, p)

    def alt_shift(self, k: int, d: int, p: int) -> Iterator[int]:
        """``alt_binomial_sum(k, n + d, p)`` for each n of the run (k >= 1), read once."""
        return self._alt(k, self.ns.start + d, True, p)

    def _alt(self, order: int, shift: int, shift_runs: bool, p: int) -> Iterator[int]:
        # ±(Q_p[order + shift - 1] - Q_p[shift]), operands swapped where
        # order + shift is even; along the run the order or the shift steps.
        if order < 1 or shift < 0:
            raise DomainError(f"a run reads alternating sums from order {order}, shift {shift}")
        cols = self._alts
        q = cols[p] if p < len(cols) else self._column(cols, p, sub)
        top = self._run(q, order + shift - 1)
        base = self._run(q, shift) if shift_runs else [q[shift]] * len(top)
        even = (order + shift) % 2
        top[even::2], base[even::2] = base[even::2], top[even::2]
        return map(sub, top, base)


class PointSums:
    """The reads of ``SumColumns`` for the run of one n, each one dot product."""

    def __init__(self, n: int):
        self.ns = range(n, n + 1)

    def sums(self, d: int, p: int) -> tuple[int]:
        return (bell_binomial_sum(self.ns.start + d, p),)

    def alt(self, d: int, s: int, p: int) -> tuple[int]:
        return (alt_binomial_sum(self.ns.start + d, s, p),)

    def alt_shift(self, k: int, d: int, p: int) -> tuple[int]:
        return (alt_binomial_sum(k, self.ns.start + d, p),)


_SHARED = BigSeqCache()


def shared_cache() -> BigSeqCache:
    return _SHARED


def bell(n: int) -> int:
    return _SHARED.bell(n)


def stirling2(n: int, k: int) -> int:
    return _SHARED.stirling2(n, k)


def two_bell(n: int) -> int:
    """Total block count over all partitions of an (n+1)-set."""
    if n < 0:
        raise DomainError("2-Bell index must be nonnegative")
    return bell(n + 2) - bell(n + 1)


def avg_blocks(n: int) -> Fraction:
    """Exact average number of blocks in a partition of an n-set (n >= 1)."""
    if n < 1:
        raise DomainError("average block count requires n >= 1")
    return Fraction(two_bell(n - 1), bell(n))


def bell_binomial_sum(m: int, p: int) -> int:
    return _SHARED.bell_binomial_sum(m, p)


def alt_binomial_sum(n: int, shift: int, p: int) -> int:
    return _SHARED.alt_binomial_sum(n, shift, p)

