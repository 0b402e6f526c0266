"""Exact arbitrary-precision tables for set-partition counts.

``bell(n)`` counts the set partitions of an n-element set, ``stirling2(n, k)``
those with exactly k blocks, and ``two_bell(n)`` the total number of blocks
over all partitions of an (n+1)-element set.  The Bell column and the
Stirling triangle are grown by *independent* recurrences (Bell triangle vs.
the two-term triangle rule) so the test suite can cross-check one pipeline
against the other.  The Bell column carries its alternating prefix sums, so
every alternating Bell sum is one subtraction; the Stirling triangle is
grown only as far as ``stirling2`` has been asked, so Bell lookups cost
memory linear in the index.  Each table has one hard cap, checked before
it grows: ``HARD_MAX_TERMS`` Bell terms and ``STIRLING_MAX_ROWS`` triangle
rows.  Everything is exact integer or Fraction arithmetic; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

import threading
from fractions import Fraction

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


class BigSeqCache:
    """Append-only cache of Bell numbers and the k-block partition triangle.

    Growth is lock-guarded so concurrent readers may share one instance;
    rows are never mutated after being appended.  Next to the Bell column
    sits ``_alt_prefix[m] = sum_{i<=m} (-1)**i * bell(i)``, grown in the same
    step; the Stirling triangle is grown on its own, by ``stirling2``.  Each
    table refuses, with ResourceError, to grow past its one hard cap.
    """

    def __init__(self):
        self._lock = threading.Lock()
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
        with self._lock:
            while len(self._bell) <= n:
                # Bell triangle: next row starts with the previous row's last entry.
                row = self._bell_triangle_row
                nxt = [row[-1]]
                for x in row:
                    nxt.append(nxt[-1] + x)
                self._bell_triangle_row = nxt
                # The prefix goes first: the unlocked fast path above reads
                # len(self._bell), so index m of both columns must exist by then.
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
            with self._lock:
                # Triangle rule: count(n, k) = k*count(n-1, k) + count(n-1, k-1).
                while len(self._stirling) <= n:
                    prev = self._stirling[-1]
                    m = len(self._stirling)
                    srow = [0] * (m + 1)
                    for j in range(1, m + 1):
                        srow[j] = j * (prev[j] if j < m else 0) + prev[j - 1]
                    self._stirling.append(srow)
        return self._stirling[n][k]

    def two_bell(self, n: int) -> int:
        """Total block count over all partitions of an (n+1)-set."""
        if n < 0:
            raise DomainError("2-Bell index must be nonnegative")
        return self.bell(n + 2) - self.bell(n + 1)

    def avg_blocks(self, n: int) -> Fraction:
        """Exact average number of blocks in a partition of an n-set (n >= 1)."""
        if n < 1:
            raise DomainError("average block count requires n >= 1")
        return Fraction(self.two_bell(n - 1), self.bell(n))

    def alt_sum(self, n: int, shift: int = 0) -> int:
        """Sum of (-1)**(j+1) * bell(n - j + shift) for j = 1..n-1, for any n.

        The sum is empty (0) for n < 2.  Substituting i = n - j + shift gives
        (-1)**(n+shift+1) * (P[n+shift-1] - P[shift]) with the alternating
        prefix sums P, so each call is one subtraction after the column is
        grown.  Raises DomainError if a term would need a negative Bell index.
        """
        if n < 2:
            return 0
        if 1 + shift < 0:
            raise DomainError("alternating Bell sum would need a negative Bell index")
        self.ensure(n + shift - 1)
        prefix = self._alt_prefix
        diff = prefix[n + shift - 1] - (prefix[shift] if shift >= 0 else 0)
        return -diff if (n + shift) % 2 == 0 else diff

    def alternating_bell_sum(self, n: int, shift: int = 0) -> int:
        """Sum of (-1)**(j+1) * bell(n - j + shift) for j = 1..n-1, for n >= 3.

        With shift 0 this equals the partition count of an n-cycle into
        stable sets; with shift 1, the corresponding total block count.
        """
        if n < 3:
            raise DomainError("alternating Bell sum requires n >= 3")
        return self.alt_sum(n, shift)


_SHARED = BigSeqCache()


def shared_cache() -> BigSeqCache:
    return _SHARED


def bell(n: int) -> int:
    return _SHARED.bell(n)


def stirling2(n: int, k: int) -> int:
    return _SHARED.stirling2(n, k)


def two_bell(n: int) -> int:
    return _SHARED.two_bell(n)


def avg_blocks(n: int) -> Fraction:
    return _SHARED.avg_blocks(n)


def alt_sum(n: int, shift: int = 0) -> int:
    return _SHARED.alt_sum(n, shift)


def alternating_bell_sum(n: int, shift: int = 0) -> int:
    return _SHARED.alternating_bell_sum(n, shift)
