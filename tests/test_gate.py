"""EpochGate: the one shared/exclusive gate over a graph's cost state.

Every thread a test starts is joined with a timeout and checked, so a
deadlock fails the test instead of hanging the suite. No test starts
more than four threads.
"""

import threading
import time

import pytest

from repro.graphs.gate import EpochGate
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr
from repro.traffic import TrafficFeed

TIMEOUT = 10.0


def start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def finish(*threads):
    for thread in threads:
        thread.join(timeout=TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "deadlocked"


def hold(side, entered, release):
    with side:
        entered.set()
        release.wait(TIMEOUT)


def first_edge(graph):
    edge = next(iter(graph.edges()))
    return edge.source, edge.target


class TestExclusion:
    def test_writer_excludes_readers(self):
        gate = EpochGate()
        writing, end_write = threading.Event(), threading.Event()
        writer = start(hold, gate.exclusive(), writing, end_write)
        assert writing.wait(TIMEOUT)
        reading, end_read = threading.Event(), threading.Event()
        end_read.set()
        reader = start(hold, gate.shared(), reading, end_read)
        assert not reading.wait(0.05), "a reader entered while a writer held"
        end_write.set()
        assert reading.wait(TIMEOUT)
        finish(writer, reader)

    def test_readers_exclude_the_writer(self):
        gate = EpochGate()
        reading, end_read = threading.Event(), threading.Event()
        reader = start(hold, gate.shared(), reading, end_read)
        assert reading.wait(TIMEOUT)
        writing, end_write = threading.Event(), threading.Event()
        end_write.set()
        writer = start(hold, gate.exclusive(), writing, end_write)
        assert not writing.wait(0.05), "a writer entered while a reader held"
        end_read.set()
        assert writing.wait(TIMEOUT)
        finish(reader, writer)

    def test_readers_share(self):
        gate = EpochGate()
        both = threading.Barrier(2, timeout=TIMEOUT)

        def read():
            with gate.shared():
                both.wait()

        finish(start(read), start(read))

    def test_a_shared_holder_cannot_take_the_exclusive_side(self):
        gate = EpochGate()
        with gate.shared():
            with pytest.raises(RuntimeError):
                with gate.exclusive():
                    pass
        with gate.exclusive():
            with gate.exclusive():
                with gate.shared():
                    pass


class TestEpochs:
    def test_a_reader_admitted_mid_epoch_sees_the_whole_fan_out(self):
        graph = make_paper_grid(4, seed=1)
        feed = TrafficFeed(graph)
        in_fan_out, end_fan_out = threading.Event(), threading.Event()
        absorbed = []

        def listener(epoch):
            in_fan_out.set()
            end_fan_out.wait(TIMEOUT)
            absorbed.append(epoch.fingerprint)

        feed.subscribe(listener)
        u, v = first_edge(graph)
        epochs = []
        writer = start(lambda: epochs.append(feed.apply([(u, v, 99.0)])))
        assert in_fan_out.wait(TIMEOUT)
        seen = []

        def read():
            with graph.gate.shared():
                seen.append((graph.fingerprint, list(absorbed), graph.edge_cost(u, v)))

        reader = start(read)
        reader.join(timeout=0.05)
        assert reader.is_alive(), "a reader entered during the fan-out"
        end_fan_out.set()
        finish(writer, reader)
        (epoch,) = epochs
        assert seen == [(epoch.fingerprint, [epoch.fingerprint], 99.0)]

    def test_a_reader_admitted_after_apply_returns_sees_the_new_fingerprint(self):
        graph = make_paper_grid(4, seed=1)
        feed = TrafficFeed(graph)
        u, v = first_edge(graph)
        before = csr.csr_for(graph)
        epochs = []
        finish(start(lambda: epochs.append(feed.apply([(u, v, 99.0)]))))
        (epoch,) = epochs
        with graph.gate.shared():
            assert graph.fingerprint == epoch.fingerprint != before.fingerprint
            assert csr.csr_for(graph).fingerprint == epoch.fingerprint

    def test_the_writing_thread_may_read(self):
        graph = make_paper_grid(4, seed=1)
        feed = TrafficFeed(graph)
        built = []
        feed.subscribe(lambda epoch: built.append(csr.csr_for(epoch.graph).fingerprint))
        u, v = first_edge(graph)
        finish(start(feed.apply, [(u, v, 99.0)]))
        assert built == [graph.fingerprint]


class TestProgress:
    def test_a_reentrant_read_while_a_writer_waits_does_not_deadlock(self):
        gate = EpochGate()
        reading, writer_queued = threading.Event(), threading.Event()
        reentered, wrote = threading.Event(), threading.Event()

        def read():
            with gate.shared():
                reading.set()
                writer_queued.wait(TIMEOUT)
                with gate.shared():
                    reentered.set()

        def write():
            with gate.exclusive():
                wrote.set()

        reader = start(read)
        assert reading.wait(TIMEOUT)
        writer = start(write)
        deadline = time.monotonic() + TIMEOUT
        while not gate._writers_waiting:
            assert time.monotonic() < deadline, "the writer never queued"
            time.sleep(0.001)
        writer_queued.set()
        assert reentered.wait(TIMEOUT), "the re-entrant read deadlocked"
        finish(reader, writer)
        assert wrote.is_set()

    def test_a_stream_of_readers_does_not_starve_the_writer(self):
        gate = EpochGate()
        stop = threading.Event()

        def read():
            while not stop.is_set():
                with gate.shared():
                    time.sleep(0.001)

        readers = [start(read) for _ in range(3)]
        wrote = threading.Event()

        def write():
            with gate.exclusive():
                wrote.set()

        try:
            time.sleep(0.01)
            writer = start(write)
            assert wrote.wait(TIMEOUT), "the writer starved"
        finally:
            stop.set()
        finish(writer, *readers)
