"""EpochGate: one graph's shared/exclusive gate over its cost state.

A query holds the **shared** side from admission to answer; a cost
epoch holds the **exclusive** side across the write and the whole
listener fan-out, so no query sees a half-applied epoch or derived
state (cache keys, CCH metric, fleet trees) behind the graph.

* Writer-preferring: once a writer waits, new readers queue behind it.
  Readers already waiting when an epoch ends go before the next writer,
  so neither a query stream nor an epoch loop starves the other.
* Shared is re-entrant (a query nests CSR builds and SSSPs), even while
  a writer waits; the writing thread may take it too (listeners run
  SSSPs); exclusive is re-entrant for its holder.
* Never upgrade: a shared holder asking for the exclusive side would
  wait for itself, so it gets :class:`RuntimeError`.

Lock order: a graph's gate before any component lock, and a parent
graph's gate before its shard graphs' gates.
"""

from __future__ import annotations

import threading
from threading import get_ident
from typing import Dict, Optional


class EpochGate:
    """Shared side for queries, exclusive side for one cost epoch."""

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers: Dict[int, int] = {}  # thread id -> shared depth
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._writers_waiting = 0
        self._readers_waiting = 0
        # Readers waiting when the last epoch ended, admitted first.
        self._reader_pass = 0
        self._shared = _Side(self.acquire_shared, self.release_shared)
        self._exclusive = _Side(self.acquire_exclusive, self.release_exclusive)

    def shared(self) -> "_Side":
        """Hold the cost state still: no epoch is written meanwhile."""
        return self._shared

    def exclusive(self) -> "_Side":
        """Write one epoch alone: waits for every shared holder to leave."""
        return self._exclusive

    def acquire_shared(self) -> None:
        me = get_ident()
        with self._cond:
            depth = self._readers.get(me, 0)
            if not depth and self._writer != me and (
                self._writer is not None or self._writers_waiting
            ):
                self._readers_waiting += 1
                try:
                    while self._writer is not None or (
                        self._writers_waiting and not self._reader_pass
                    ):
                        self._cond.wait()
                finally:
                    self._readers_waiting -= 1
                    if self._reader_pass:
                        self._reader_pass -= 1
            self._readers[me] = depth + 1

    def release_shared(self) -> None:
        me = get_ident()
        with self._cond:
            depth = self._readers[me] - 1
            if depth:
                self._readers[me] = depth
            else:
                del self._readers[me]
                if not self._readers and self._writers_waiting:
                    self._cond.notify_all()

    def acquire_exclusive(self) -> None:
        me = get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "a thread holding a graph's shared gate cannot take its "
                    "exclusive side (apply the epoch before admission)"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers or self._reader_pass:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_exclusive(self) -> None:
        with self._cond:
            self._writer_depth -= 1
            if not self._writer_depth:
                self._writer = None
                self._reader_pass = self._readers_waiting
                self._cond.notify_all()


class _Side:
    """One side of a gate as a reusable context manager."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc_info) -> None:
        self._release()
