"""Closed- and open-loop load generation over one seeded request stream.

Both loops pull stream positions from a :class:`_Sequencer`. When a
client pulls a position that carries an epoch, it waits until every
request in flight has completed, applies the epoch while holding the
sequencer, and only then serves. The system's epoch ``log`` records the
order epochs were applied in and ``LoopResult.epoch_of`` how many had
been applied when each request was taken, so every answer is priced on
a known state, which is what makes the audit exact.

The open loop keeps a fixed schedule: request ``i`` of a segment is due
at ``start + i / rate`` whatever happened before, and its latency is
measured from that due time, so a stall is charged to every request it
delays. Lateness (``sent - due``) says how far the generator fell
behind; a backlog still growing at the end marks the run invalid.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from audit import Answer

#: Client threads; the benchmark machine has two cores.
CLIENTS = 2


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


@dataclass
class LoopResult:
    """Timings and answers of one loop, or of several merged."""

    answers: Dict[int, Answer] = field(default_factory=dict)
    #: position -> (due, sent, done), perf_counter seconds.
    times: Dict[int, tuple] = field(default_factory=dict)
    #: position -> epochs applied to the system when it was taken.
    epoch_of: Dict[int, int] = field(default_factory=dict)
    epoch_seconds: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: Every position handed to a client, answered or not.
    positions: List[int] = field(default_factory=list)

    def latencies_ms(self) -> List[float]:
        return [(done - due) * 1e3 for due, _sent, done in self.times.values()]

    def lateness_ms(self) -> List[float]:
        return [max(0.0, (sent - due) * 1e3) for due, sent, _ in
                (self.times[p] for p in sorted(self.times))]

    def backlog_grew(self) -> bool:
        """True when requests at the end were sent much later than due.

        Compares the median lateness of the last quarter with the first:
        a drained stall leaves the last quarter on time, a rate above
        capacity leaves it further behind than anything before.
        """
        late = self.lateness_ms()
        quarter = max(1, len(late) // 4)
        head = statistics.median(late[:quarter])
        tail = statistics.median(late[-quarter:])
        return tail > 10.0 and tail > 2.0 * head


def merged(results: List[LoopResult]) -> LoopResult:
    out = LoopResult()
    for result in results:
        out.answers.update(result.answers)
        out.times.update(result.times)
        out.epoch_of.update(result.epoch_of)
        out.epoch_seconds += result.epoch_seconds
        out.wall_s += result.wall_s
        out.positions += result.positions
    return out


class _Sequencer:
    def __init__(self, start: int, stop: int, epochs: Dict[int, list],
                 apply_epoch: Callable[[list], object], log: List[int],
                 result: LoopResult, deadline: Optional[float]) -> None:
        self._cond = threading.Condition()
        self._next = start
        self._stop = stop
        self._epochs = epochs
        self._apply = apply_epoch
        self._log = log
        self._result = result
        self._deadline = deadline
        self._in_flight = 0

    def take(self) -> Optional[int]:
        with self._cond:
            while True:
                if self._next >= self._stop or (
                    self._deadline is not None
                    and time.perf_counter() >= self._deadline
                ):
                    return None
                position = self._next
                if position in self._epochs and position not in self._log:
                    if self._in_flight:
                        # wait() releases the lock: another client may
                        # apply this epoch meanwhile, so re-check.
                        self._cond.wait()
                        continue
                    started = time.perf_counter()
                    self._apply(self._epochs[position])
                    self._result.epoch_seconds.append(time.perf_counter() - started)
                    self._log.append(position)
                self._result.epoch_of[position] = len(self._log)
                self._result.positions.append(position)
                self._next += 1
                self._in_flight += 1
                return position

    def done(self) -> None:
        with self._cond:
            self._in_flight -= 1
            if not self._in_flight:
                self._cond.notify_all()


def _run(serve: Callable[[int], Answer], sequencer: _Sequencer,
         due_of: Callable[[int], Optional[float]], result: LoopResult,
         tracer=None) -> None:
    def client() -> None:
        while True:
            position = sequencer.take()
            if position is None:
                return
            due = due_of(position)
            if due is not None:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            if due is None:
                due = sent
            if tracer is not None:
                token = tracer.root(position, "request", due)
                tracer.child(token, "client.wait", due, sent)
            try:
                answer = serve(position)
            except Exception as exc:  # noqa: BLE001 - counted as errored
                answer = Answer(error=f"{type(exc).__name__}: {exc}")
            finished = time.perf_counter()
            if tracer is not None:
                tracer.end_root(token, finished)
            result.answers[position] = answer
            result.times[position] = (due, sent, finished)
            sequencer.done()

    started = time.perf_counter()
    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - started


def closed_loop(serve, epochs, apply_epoch, log, start: int, stop: int,
                seconds: Optional[float] = None) -> LoopResult:
    """``CLIENTS`` clients, each sending its next request on completion.

    Stops at ``stop`` or once ``seconds`` have passed, whichever is first.
    """
    result = LoopResult()
    deadline = None if seconds is None else time.perf_counter() + seconds
    sequencer = _Sequencer(start, stop, epochs, apply_epoch, log, result, deadline)
    _run(serve, sequencer, lambda position: None, result)
    return result


def open_loop(serve, epochs, apply_epoch, log, start: int, stop: int,
              rate: float, tracer=None) -> LoopResult:
    """Requests ``start..stop`` due at a fixed ``rate`` per second.

    With a ``tracer`` each request is a root span from its due time,
    with the wait before it was sent as its ``client.wait`` child.
    """
    result = LoopResult()
    sequencer = _Sequencer(start, stop, epochs, apply_epoch, log, result, None)
    origin = time.perf_counter() + 0.01
    _run(serve, sequencer, lambda position: origin + (position - start) / rate,
         result, tracer)
    return result
