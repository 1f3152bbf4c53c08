"""The machine's current speed, for reference-speed timings.

The benchmark machine (two virtual cores on a shared host) alternates,
for seconds to minutes at a time, between speeds up to about 1.45 times
apart; CPU time moves exactly like wall time, so the slowdown is the
processor's, not preemption. A raw timing therefore says as much about
the host as about the program. :func:`factor` runs a fixed pure-Python
probe (dict, heap and float work, like a search loop) and returns how
much slower than ``REFERENCE_S`` it ran; a duration divided by the
factor measured around it is the duration at the reference speed.
Probes run only at quiesced points, never alongside timed work.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Probe CPU time at the reference speed (the host's fast phase).
REFERENCE_S = 0.0013
PROBES = 5


def _probe() -> float:
    # The cyclic collector stays off: its cost grows with the program's
    # heap, which must not leak into the machine's speed.
    gc.disable()
    try:
        started = time.thread_time()
        heap, table, total = [], {}, 0.0
        for i in range(2000):
            table[(i, i % 7)] = i * 0.5
            heapq.heappush(heap, (total + i % 13, i))
            if len(heap) > 50:
                total += heapq.heappop(heap)[0] * 1e-9
        for value in table.values():
            total += value * 1e-9
        return time.thread_time() - started
    finally:
        gc.enable()


def factor() -> float:
    """How many times slower than the reference the machine runs now."""
    return statistics.median(_probe() for _ in range(PROBES)) / REFERENCE_S


def timed(fn, *args):
    """``fn(*args)``, and its wall time at the reference speed.

    The factor is the mean of probes just before and just after.
    """
    before = factor()
    started = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - started
    return result, elapsed / ((before + factor()) / 2)


def around(fn, *args):
    """``fn(*args)``, and the mean speed factor just before and after."""
    before = factor()
    result = fn(*args)
    return result, (before + factor()) / 2
