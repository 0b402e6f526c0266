"""Machine-speed reference for normalising request times.

The 2-vCPU box the benchmark was built on changes speed by up to 2x over a
few seconds with load from outside the guest, and the guest sees no steal
time: the same ``profile()`` call averaged 57 ms in one 5 s stretch and
91 ms in another.  A fixed loop of plain Python is timed before and after
every request, in the process that does the request's work, and the
request's time is scaled to a machine on which that loop takes
``REFERENCE_S``.  That cut the stretch-to-stretch swing of the same call
from 12% to 2%.  The loop allocates no containers, so the program's heap
cannot slow it.
"""

import time

REFERENCE_S = 0.002


def reference_work() -> int:
    """Fixed pure-Python work: dict updates and integer mixing."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(10_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    return acc


def reference_seconds() -> float:
    """Fastest of three runs of the reference loop, so one interrupt or an
    emptied cache does not count as a slow machine."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor from a time measured between two reference runs to the reference machine."""
    return 2 * REFERENCE_S / (before + after)
