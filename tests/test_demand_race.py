"""Concurrent update-vs-skim races: single-epoch matrix guarantees.

Epochs flip every edge of a chain between 1.0 and 10.0 while readers
skim. Under single-epoch pricing every cell of one matrix is
``hops * k`` for the *same* ``k``; a matrix assembled across an epoch
boundary would mix the two unit costs and price some multi-hop cell
off the pure ladder — which the asserts below would catch.
"""

import math
import threading

import pytest

from repro.demand import skim
from repro.graphs.graph import Graph
from repro.service import RouteService
from repro.traffic import TrafficFeed

pytestmark = pytest.mark.demand

_N = 4  # chain 0 -> 1 -> 2 -> 3


def chain_graph(cost: float) -> Graph:
    graph = Graph(name="chain")
    for index in range(_N):
        graph.add_node(index, index, 0)
    for index in range(_N - 1):
        graph.add_edge(index, index + 1, cost)
    return graph


def single_epoch_faults(matrix):
    """Complaints if the matrix is not priced on one pure epoch.

    The unit cost ``k`` is inferred from the one-hop cell (0, 1) —
    a single edge read is atomic, so it is always pure — and every
    other cell must then be exactly ``hops * k`` (or ``inf`` for the
    backward, unreachable pairs).
    """
    k = matrix.cost(0, 1)
    faults = []
    if k not in (1.0, 10.0):
        faults.append(f"impossible unit cost {k}")
        return faults
    for o in matrix.origins:
        for d in matrix.destinations:
            got = matrix.cost(o, d)
            want = (d - o) * k if d >= o else math.inf
            if got != want:
                faults.append(
                    f"cell ({o},{d}) = {got}, want {want} at k={k}"
                )
    return faults


class TestSkimEpochRaces:
    def test_kernel_skim_never_returns_a_mixed_epoch_matrix(self):
        graph = chain_graph(1.0)
        feed = TrafficFeed(graph)
        complaints = []
        lock = threading.Lock()
        stop = threading.Event()

        def updater():
            flip = True
            while not stop.is_set():
                cost = 10.0 if flip else 1.0
                feed.apply([(i, i + 1, cost) for i in range(_N - 1)])
                flip = not flip

        def reader():
            for _ in range(120):
                matrix = skim(graph, list(range(_N)))
                faults = single_epoch_faults(matrix)
                if faults:
                    with lock:
                        complaints.extend(faults)

        update_thread = threading.Thread(target=updater)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        update_thread.start()
        try:
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join()
        finally:
            stop.set()
            update_thread.join()
        assert complaints == [], complaints[:5]

    def test_service_skim_races_epochs_without_stale_or_mixed_serves(self):
        """The cached path adds a second hazard: a matrix computed at
        epoch N must never be *served* once the subscriber has dropped
        it for epoch N+1 under a changed fingerprint. Each answer must
        be pure AND carry a fingerprint its costs actually match."""
        graph = chain_graph(1.0)
        service = RouteService(default_algorithm="dijkstra")
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        complaints = []
        lock = threading.Lock()
        stop = threading.Event()

        def updater():
            flip = True
            while not stop.is_set():
                cost = 10.0 if flip else 1.0
                feed.apply([(i, i + 1, cost) for i in range(_N - 1)])
                flip = not flip

        def reader():
            for _ in range(100):
                matrix = service.skim(graph, list(range(_N)))
                faults = single_epoch_faults(matrix)
                if faults:
                    with lock:
                        complaints.extend(faults)

        update_thread = threading.Thread(target=updater)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        update_thread.start()
        try:
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join()
        finally:
            stop.set()
            update_thread.join()
        assert complaints == [], complaints[:5]
        snap = service.snapshot()
        assert snap["skims_computed"] >= 1

    def test_quiesced_skim_matches_fingerprint_and_retries_are_counted(self):
        """After the updater stops, one more skim must agree cell for
        cell with the settled graph and carry its live fingerprint."""
        graph = chain_graph(1.0)
        feed = TrafficFeed(graph)
        feed.apply([(i, i + 1, 10.0) for i in range(_N - 1)])
        matrix = skim(graph, list(range(_N)))
        assert matrix.fingerprint == graph.fingerprint
        assert single_epoch_faults(matrix) == []
        assert matrix.cost(0, _N - 1) == 10.0 * (_N - 1)
