"""Concurrent update-vs-plan races: single-epoch pricing guarantees."""

import threading

import pytest

from repro.faults import ChaosConfig, run_chaos
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.graphs.roadmap import make_minneapolis_map
from repro.service import RouteService
from repro.traffic import TrafficFeed

pytestmark = pytest.mark.traffic


def chain_graph(cost: float) -> Graph:
    graph = Graph(name="chain")
    for index in range(4):
        graph.add_node(index, index, 0)
    for index in range(3):
        graph.add_edge(index, index + 1, cost)
    return graph


def _replay_config(**overrides) -> ChaosConfig:
    """A concurrent in-memory A* replay: an epoch of 0.6-2.5x sweeps
    before every round, 40 queries per round over 24 recurring pairs."""
    fields = dict(
        backend="memory",
        algorithm="astar",
        rounds=8,
        queries_per_round=40,
        distinct_pairs=24,
        concurrency=4,
        batch_size=8,
        update_period=1,
        update_fraction=0.05,
        update_factor_range=(0.6, 2.5),
    )
    fields.update(overrides)
    return ChaosConfig(**fields)


class TestSingleEpochPricing:
    def test_no_route_priced_on_a_mix_of_epochs(self):
        """Epochs swing every edge between 1.0 and 10.0 while readers
        plan. Any mixed-epoch route would price strictly between the
        two pure totals (3.0 and 30.0) and is therefore detectable."""
        graph = chain_graph(1.0)
        service = RouteService(default_algorithm="dijkstra")
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        legal = {3.0, 30.0}
        observed = []
        errors = []
        stop = threading.Event()

        def updater():
            flip = True
            while not stop.is_set():
                cost = 10.0 if flip else 1.0
                feed.apply([(i, i + 1, cost) for i in range(3)])
                flip = not flip

        def reader():
            try:
                for _ in range(200):
                    result = service.plan(graph, 0, 3)
                    observed.append(result.cost)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        update_thread = threading.Thread(target=updater)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        update_thread.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        update_thread.join()

        assert not errors
        assert observed
        mixed = [cost for cost in observed if cost not in legal]
        assert mixed == [], f"routes priced on mixed epochs: {mixed[:5]}"

    def test_plan_many_answers_each_single_epoch(self):
        graph = chain_graph(1.0)
        service = RouteService(default_algorithm="dijkstra")
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        legal = {1.0, 10.0, 2.0, 20.0, 3.0, 30.0}
        errors = []
        stop = threading.Event()

        def updater():
            flip = True
            while not stop.is_set():
                cost = 10.0 if flip else 1.0
                feed.apply([(i, i + 1, cost) for i in range(3)])
                flip = not flip

        update_thread = threading.Thread(target=updater)
        update_thread.start()
        try:
            for _ in range(60):
                batch = [(0, 1), (0, 2), (0, 3), (0, 3)]
                results = service.plan_many(graph, batch)
                for result in results:
                    if result.cost not in legal:
                        errors.append(result.cost)
        finally:
            stop.set()
            update_thread.join()
        assert errors == [], f"mixed-epoch batch answers: {errors[:5]}"

    def test_plan_many_concurrent_batches_race_epochs(self):
        """Several threads issue overlapping plan_many batches (with
        in-batch duplicates, so dedup is in play) while an updater
        flips every edge between epochs. This is the single-service
        baseline the fleet's exactness audit is compared against:
        every answer must price on one epoch, and every batch must
        return exactly one result per query, in order."""
        graph = chain_graph(1.0)
        service = RouteService(default_algorithm="dijkstra")
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        legal = {1.0, 10.0, 2.0, 20.0, 3.0, 30.0}
        batch = [(0, 1), (0, 2), (0, 3), (0, 3), (1, 3)]
        complaints = []
        lock = threading.Lock()
        stop = threading.Event()

        def updater():
            flip = True
            while not stop.is_set():
                cost = 10.0 if flip else 1.0
                feed.apply([(i, i + 1, cost) for i in range(3)])
                flip = not flip

        def caller():
            for _ in range(40):
                results = service.plan_many(graph, batch)
                faults = []
                if len(results) != len(batch):
                    faults.append(f"{len(results)} results for {len(batch)}")
                for (s, d), result in zip(batch, results):
                    if (result.source, result.destination) != (s, d):
                        faults.append(f"order: {result.source}->{result.destination}")
                    if result.cost not in legal:
                        faults.append(f"mixed-epoch cost {result.cost}")
                if faults:
                    with lock:
                        complaints.extend(faults)

        update_thread = threading.Thread(target=updater)
        callers = [threading.Thread(target=caller) for _ in range(3)]
        update_thread.start()
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join()
        finally:
            stop.set()
            update_thread.join()
        assert complaints == [], complaints[:5]

    def test_replay_with_mid_round_updates_serves_no_stale(self):
        graph = make_paper_grid(10, "variance")
        config = _replay_config(
            rounds=6,
            queries_per_round=24,
            distinct_pairs=20,
            update_fraction=0.02,
            mid_round_updates=True,
            seed=5,
        )
        report = run_chaos(graph, config=config)
        assert report.queries == 6 * 24
        assert report.wrong_unflagged == 0

    def test_faulting_listener_does_not_starve_later_subscribers(self):
        """Crash consistency of apply(): a handler that faults mid
        fan-out must not skip the remaining subscribers, and the epoch
        itself (costs + fingerprint) must land fully applied."""
        from repro.exceptions import TransientIOError

        graph = chain_graph(1.0)
        feed = TrafficFeed(graph)
        seen = []

        def flaky(epoch):
            raise TransientIOError("listener", operation="write")

        feed.subscribe(flaky)
        feed.subscribe(lambda epoch: seen.append(epoch))
        before = graph.fingerprint
        with pytest.raises(TransientIOError):
            feed.apply([(i, i + 1, 10.0) for i in range(3)])
        # The batch applied fully: every cost changed, exactly one
        # fingerprint bump, and the later subscriber saw the epoch.
        assert [graph.edge_cost(i, i + 1) for i in range(3)] == [10.0] * 3
        assert graph.fingerprint != before
        assert feed.epoch_count == 1
        assert len(seen) == 1
        assert seen[0].deltas and seen[0].fingerprint == graph.fingerprint

    def test_faulting_listener_never_yields_mixed_epoch_routes(self):
        """Readers racing an updater whose epochs sometimes fault in a
        subscriber must still never see a partial batch: every route
        prices a pure epoch (3.0 or 30.0), never a mix."""
        from repro.exceptions import FaultError, TransientIOError

        graph = chain_graph(1.0)
        service = RouteService(default_algorithm="dijkstra")
        feed = TrafficFeed(graph)
        feed.subscribe(service)

        counter = {"n": 0}

        def flaky(epoch):
            counter["n"] += 1
            if counter["n"] % 3 == 0:
                raise TransientIOError("listener", operation="write")

        feed.subscribe(flaky)
        legal = {3.0, 30.0}
        observed, errors = [], []
        stop = threading.Event()

        def updater():
            flip = True
            while not stop.is_set():
                cost = 10.0 if flip else 1.0
                try:
                    feed.apply([(i, i + 1, cost) for i in range(3)])
                except FaultError:
                    pass  # the epoch still applied; only the fan-out raised
                flip = not flip

        def reader():
            try:
                for _ in range(150):
                    observed.append(service.plan(graph, 0, 3).cost)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        update_thread = threading.Thread(target=updater)
        readers = [threading.Thread(target=reader) for _ in range(2)]
        update_thread.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        update_thread.join()

        assert not errors
        mixed = [cost for cost in observed if cost not in legal]
        assert mixed == [], f"routes priced on mixed epochs: {mixed[:5]}"

    def test_fault_mid_sync_leaves_dirty_set_intact(self):
        """Crash consistency of sync(): an injected fault mid-refresh
        leaves the dirty set and fingerprints untouched, so the retry
        sees the same work list and completes it."""
        from repro.engine import RelationalGraph
        from repro.exceptions import FaultError
        from repro.faults import FaultInjector, FaultPlan
        from repro.storage.database import Database
        from repro.storage.iostats import IOStatistics

        graph = chain_graph(1.0)
        stats = IOStatistics()
        plan = FaultPlan(seed=11)  # all rates 0 while we set up
        db = Database(stats=stats, injector=FaultInjector(plan, stats))
        rgraph = RelationalGraph(graph, database=db)
        feed = TrafficFeed(graph)
        feed.subscribe(rgraph)
        feed.apply([(0, 1, 5.0), (1, 2, 6.0)])
        assert rgraph.stale

        plan.read_error_rate = 1.0  # every index probe now faults
        with pytest.raises(FaultError):
            rgraph.sync()
        # Nothing was consumed: the dirty set and staleness survive.
        assert rgraph._dirty_begins == {0, 1}
        assert rgraph.stale

        plan.read_error_rate = 0.0
        assert rgraph.sync() == 2
        assert not rgraph.stale
        assert rgraph._dirty_begins == set()
        # S now agrees with the graph edge for edge.
        costs = {
            (row["begin"], row["end"]): row["cost"]
            for _rid, row in rgraph.S.heap.scan()
        }
        assert costs[(0, 1)] == 5.0 and costs[(1, 2)] == 6.0

    def test_quiesced_replay_serves_no_stale(self):
        cases = [
            (
                make_paper_grid(10, "variance"),
                _replay_config(rounds=5, queries_per_round=20,
                               distinct_pairs=16, seed=3),
            ),
            # The 0.6-2.5x sweeps price Minneapolis edges below their
            # straight-line length, so the default A* runs scaled.
            (make_minneapolis_map().graph, _replay_config()),
        ]
        for graph, config in cases:
            service = RouteService(
                default_algorithm=config.algorithm,
                default_backend=config.backend,
            )
            report = run_chaos(graph, config=config, service=service)
            assert report.wrong_unflagged == 0, graph.name
            assert service.metrics.cache_hits > 0
            assert report.epochs == config.rounds - 1
