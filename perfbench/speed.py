"""Host-speed calibration for the end-to-end timings.

The benchmark host is shared, and its CPU speed swings by up to 1.8x for
seconds to minutes at a time; a whole run can fall inside a slow phase.
So every query is bracketed by a fixed pure-Python kernel that does not
touch limitalg, and the query's wall time is scaled by

    REFERENCE_S / mean(time of the kernels run within WINDOW_S of the query)

The result is in *reference milliseconds*: the time the query would take
on a CPU where the kernel takes exactly 1 ms.  A change to limitalg
leaves the kernel's time alone, so it moves the scaled times as much as
the raw ones.  The garbage collector is off while the kernel runs, so
the size of the program's heap does not change the kernel's time.
"""
from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

REFERENCE_S = 0.001
WINDOW_S = 4.0


def _kernel():
    table: dict = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * 3 // 7
        if i % 50 == 0:
            acc += Fraction(i, 7)
    return sorted(table.items()), acc


def kernel_time() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kernel_sample() -> tuple[float, float]:
    """(time taken, seconds) of one kernel run."""
    seconds = kernel_time()
    return time.perf_counter(), seconds


def scales(queries: list[tuple[float, float]],
           kernels: list[tuple[float, float]]) -> list[float]:
    """Scale factor of each query (start, seconds) of a run.

    `kernels` holds (time taken, seconds) of every kernel run, in time
    order, with one just before and one just after each query.  A
    query's factor uses the kernels within WINDOW_S of it: the speed
    phases are long, and a window this wide also covers multi-second
    queries evenly.
    """
    times = [t for t, _ in kernels]
    prefix = [0.0]
    for _, k in kernels:
        prefix.append(prefix[-1] + k)
    out = []
    for start, seconds in queries:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + seconds + WINDOW_S)
        out.append(REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
