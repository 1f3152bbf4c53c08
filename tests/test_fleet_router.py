"""FleetRouter exactness, backpressure, and epoch consistency."""

import random
import threading

import pytest

from repro.exceptions import NodeNotFoundError
from repro.fleet import FleetRouter, partition_graph
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr
from repro.traffic.feed import TrafficFeed

pytestmark = pytest.mark.fleet


def make_fleet(graph, rows, cols, **kwargs):
    partition = partition_graph(graph, rows, cols)
    router = FleetRouter(partition, **kwargs)
    feed = TrafficFeed(graph)
    feed.subscribe(router)
    return router, feed


def assert_exact(graph, router, source, destination):
    result = router.plan(source, destination)
    reference = csr.uniform_cost(graph, source, destination)
    assert not result.shed
    assert result.found == reference.found
    if reference.found:
        assert result.cost == pytest.approx(reference.cost, abs=1e-9)
        assert result.path[0] == source and result.path[-1] == destination
        walked = sum(
            graph.edge_cost(a, b)
            for a, b in zip(result.path, result.path[1:])
        )
        assert walked == pytest.approx(result.cost, abs=1e-9)
    return result


class TestExactness:
    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 3)])
    def test_randomized_equivalence_vs_whole_graph_dijkstra(self, rows, cols):
        graph = make_paper_grid(9, "variance", seed=23)
        router, _feed = make_fleet(graph, rows, cols)
        try:
            rng = random.Random(5)
            nodes = list(graph.node_ids())
            for _ in range(60):
                assert_exact(graph, router, rng.choice(nodes), rng.choice(nodes))
        finally:
            router.shutdown()

    def test_reentrant_same_shard_path_is_stitched(self):
        # Optimal a1 -> a2 leaves shard 0 through b and re-enters:
        #   a1 --10--> a2   (internal, expensive)
        #   a1 --1--> b --1--> a2  (via the other shard)
        graph = Graph(name="reentry")
        graph.add_node("a1", 0.0, 0.0)
        graph.add_node("a2", 0.0, 1.0)
        graph.add_node("b", 2.0, 0.5)
        graph.add_edge("a1", "a2", 10.0)
        graph.add_edge("a1", "b", 1.0)
        graph.add_edge("b", "a2", 1.0)
        partition = partition_graph(graph, 1, 2, refine_passes=0)
        assert partition.shard_of("a1") == partition.shard_of("a2")
        assert partition.shard_of("a1") != partition.shard_of("b")
        router = FleetRouter(partition)
        try:
            result = router.plan("a1", "a2")
            assert result.found and not result.cross_shard
            assert result.stitched  # local 10.0 was beaten
            assert result.cost == pytest.approx(2.0)
            assert result.path == ["a1", "b", "a2"]
        finally:
            router.shutdown()

    def test_trivial_and_unreachable_queries(self):
        graph = make_paper_grid(6, "uniform", seed=1)
        graph.add_node("island", -50.0, -50.0)
        router, _feed = make_fleet(graph, 2, 2)
        try:
            trivial = router.plan((3, 3), (3, 3))
            assert trivial.found and trivial.cost == 0.0
            assert trivial.path == [(3, 3)]
            marooned = router.plan((0, 0), "island")
            assert not marooned.found and not marooned.shed
        finally:
            router.shutdown()

    def test_unknown_node_raises(self):
        graph = make_paper_grid(4, "uniform", seed=1)
        router, _feed = make_fleet(graph, 2, 2)
        try:
            with pytest.raises(NodeNotFoundError):
                router.plan((0, 0), "nowhere")
        finally:
            router.shutdown()

    def test_exact_after_quiesced_epoch(self):
        graph = make_paper_grid(7, "variance", seed=3)
        router, feed = make_fleet(graph, 2, 2)
        try:
            rng = random.Random(9)
            edges = list(graph.edges())
            picks = rng.sample(edges, 12)
            feed.apply([(e.source, e.target, e.cost * 3.0) for e in picks])
            assert router.version == 2
            nodes = list(graph.node_ids())
            for _ in range(25):
                assert_exact(graph, router, rng.choice(nodes), rng.choice(nodes))
        finally:
            router.shutdown()


class TestTreeTable:
    def test_repeated_od_admits_no_new_task(self):
        graph = make_paper_grid(8, "variance", seed=11)
        router, _feed = make_fleet(graph, 2, 2)
        try:
            source, destination = (0, 0), (7, 7)
            first = assert_exact(graph, router, source, destination)
            assert first.cross_shard
            accepted = {
                name: shard["accepted"]
                for name, shard in router.snapshot().items()
                if name != "fleet"
            }
            again = assert_exact(graph, router, source, destination)
            assert again.cost == first.cost and again.path == first.path
            assert {
                name: shard["accepted"]
                for name, shard in router.snapshot().items()
                if name != "fleet"
            } == accepted
        finally:
            router.shutdown()

    def test_epoch_repricing_the_route_is_seen_by_the_same_od(self):
        graph = make_paper_grid(8, "variance", seed=11)
        router, feed = make_fleet(graph, 2, 2)
        try:
            source, destination = (0, 0), (7, 7)
            before = assert_exact(graph, router, source, destination)
            shard_of = router.partition.shard_of
            inside = [
                (a, b) for a, b in zip(before.path, before.path[1:])
                if shard_of(a) == shard_of(b)
            ]
            a, b = inside[len(inside) // 2]
            feed.apply([(a, b, graph.edge_cost(a, b) * 20.0)])
            after = assert_exact(graph, router, source, destination)
            assert after.fleet_version == before.fleet_version + 1
            assert after.cost > before.cost
        finally:
            router.shutdown()


    def test_tree_priced_before_a_racing_epoch_is_not_remembered(self):
        # Chain 0-1-2-3 split {0,1} | {2,3}. The first query for 0 -> 1
        # pauses in its in-tree stage, after the out-tree of 0 was
        # priced at the old costs, and a second thread applies an epoch
        # raising every cost to 10. The epoch waits for the query: the
        # answer is 1.0 at the old fleet version, and later answers
        # price the new costs. A tree served across the epoch without a
        # repair would answer 0 -> 1 with 1 and 0 -> 3 with 21.
        graph = Graph(name="chain")
        for index in range(4):
            graph.add_node(index, float(index), 0.0)
        for index in range(3):
            graph.add_edge(index, index + 1, 1.0)
        router, feed = make_fleet(graph, 1, 2)
        worker = router.workers[router.partition.shard_of(1)].workers[0]
        in_tree = worker.distances_from_boundary
        paused, resume = threading.Event(), threading.Event()

        def pausing(destination, *stale):
            if not paused.is_set():
                paused.set()
                resume.wait(timeout=10)
            return in_tree(destination, *stale)

        worker.distances_from_boundary = pausing
        answers = []
        query = threading.Thread(target=lambda: answers.append(router.plan(0, 1)))
        epoch = threading.Thread(
            target=feed.apply, args=([(i, i + 1, 10.0) for i in range(3)],)
        )
        version = router.version
        try:
            query.start()
            assert paused.wait(timeout=10)
            epoch.start()
            epoch.join(timeout=0.1)
            assert epoch.is_alive(), "the epoch must wait for the query"
            assert graph.edge_cost(0, 1) == 1.0
            resume.set()
            query.join(timeout=10)
            epoch.join(timeout=10)
            assert not query.is_alive() and not epoch.is_alive()
            (first,) = answers
            assert first.cost == 1.0 and first.fleet_version == version
            assert router.version == version + 1
            assert router.plan(0, 1).cost == 10.0
            assert router.plan(0, 3).cost == 30.0
        finally:
            resume.set()
            router.shutdown()


class TestHeldTrees:
    def test_trees_held_across_epochs_answer_like_a_fresh_router(self):
        """Trees kept over k mixed epochs and repaired on read answer
        every query as a router built on the current costs does."""
        graph = make_paper_grid(9, "variance", seed=23)
        router, feed = make_fleet(graph, 2, 2)
        rng = random.Random(41)
        nodes = list(graph.node_ids())
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(40)]
        edges = list(graph.edges())
        try:
            for source, destination in pairs:
                assert_exact(graph, router, source, destination)
            held = router.snapshot()["fleet"]["trees_held"]
            for _ in range(4):
                feed.apply([
                    (e.source, e.target, e.cost * rng.choice([0.5, 0.9, 2.0, 4.0]))
                    for e in rng.sample(edges, 10)
                ])
            fresh = FleetRouter(partition_graph(graph, 2, 2))
            try:
                for source, destination in pairs:
                    held_answer = assert_exact(graph, router, source, destination)
                    fresh_answer = fresh.plan(source, destination)
                    assert held_answer.found == fresh_answer.found
                    assert held_answer.cost == pytest.approx(fresh_answer.cost, abs=1e-9)
            finally:
                fresh.shutdown()
            snap = router.snapshot()["fleet"]
            assert snap["tree_repairs"] > 0
            assert snap["trees_held"] >= held
        finally:
            router.shutdown()

    def test_table_holds_one_out_tree_and_one_in_tree_per_node(self):
        graph = make_paper_grid(7, "variance", seed=3)
        router, feed = make_fleet(graph, 2, 2)
        rng = random.Random(8)
        nodes = list(graph.node_ids())
        edges = list(graph.edges())
        try:
            for round_ in range(6):
                for _ in range(60):
                    router.plan(rng.choice(nodes), rng.choice(nodes))
                feed.apply([
                    (e.source, e.target, e.cost * rng.uniform(0.5, 2.0))
                    for e in rng.sample(edges, 6)
                ])
            keys = list(router._trees)
            assert len(keys) == router.snapshot()["fleet"]["trees_held"]
            assert {direction for direction, _ in keys} <= {"out", "in"}
            assert all(node in graph for _, node in keys)
            assert len(keys) <= 2 * len(graph)
        finally:
            router.shutdown()


class TestBackpressure:
    def test_zero_capacity_sheds_with_flag(self):
        graph = make_paper_grid(6, "uniform", seed=1)
        router, _feed = make_fleet(graph, 2, 2, max_queue=0)
        try:
            result = router.plan((0, 0), (5, 5))
            assert result.shed and not result.found
            assert "queue full" in result.shed_reason
            assert result.cost == float("inf") and result.path == []
            assert router.sheds == 1
        finally:
            router.shutdown()

    def test_shed_counted_per_worker_and_in_snapshot(self):
        graph = make_paper_grid(6, "uniform", seed=1)
        router, _feed = make_fleet(graph, 2, 2, max_queue=0)
        try:
            for _ in range(5):
                assert router.plan((0, 0), (5, 5)).shed
            snapshot = router.snapshot()
            assert snapshot["fleet"]["sheds"] == 5
            total = sum(
                snapshot[name]["shed"]
                for name in snapshot if name != "fleet"
            )
            assert total == 5
        finally:
            router.shutdown()


class TestEpochConsistency:
    def test_concurrent_epochs_never_yield_mixed_costs(self):
        # Chain 0-1-2-3 split {0,1} | {2,3}; every epoch flips all
        # three edge costs between 1 and 10 atomically, so the only
        # legal end-to-end totals are 3 and 30. A torn answer (some
        # edges old, some new) would land in between.
        graph = Graph(name="chain")
        for index in range(4):
            graph.add_node(index, float(index), 0.0)
        for index in range(3):
            graph.add_edge(index, index + 1, 1.0)
        partition = partition_graph(graph, 1, 2, refine_passes=0)
        assert partition.shard_of(1) != partition.shard_of(2)
        router = FleetRouter(partition)
        feed = TrafficFeed(graph)
        feed.subscribe(router)
        observed = []
        lock = threading.Lock()
        done = threading.Event()

        def writer():
            # Keep flipping until every reader finished, so epochs
            # genuinely overlap the whole read workload.
            cost = 10.0
            while not done.is_set():
                feed.apply([(i, i + 1, cost) for i in range(3)])
                cost = 1.0 if cost == 10.0 else 10.0

        def reader():
            for _ in range(30):
                result = router.plan(0, 3)
                if not result.shed:
                    with lock:
                        observed.append(result.cost)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        flipper = threading.Thread(target=writer)
        try:
            flipper.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            done.set()
            flipper.join(timeout=30)
            router.shutdown()
        assert observed, "readers never served an answer"
        assert set(observed) <= {3.0, 30.0}, sorted(set(observed))

    def test_concurrent_epochs_with_repeated_sources_never_mix_costs(self):
        # The chain-flip race again, with every reader repeating the
        # same few sources, so most trees come from the tree table: a
        # tree priced at one version must never serve another.
        graph = Graph(name="chain")
        for index in range(4):
            graph.add_node(index, float(index), 0.0)
        for index in range(3):
            graph.add_edge(index, index + 1, 1.0)
        router, feed = make_fleet(graph, 1, 2)
        legal = {(0, 3): {3.0, 30.0}, (0, 2): {2.0, 20.0}, (1, 3): {2.0, 20.0}}
        observed = {od: set() for od in legal}
        lock = threading.Lock()
        done = threading.Event()

        def writer():
            cost = 10.0
            while not done.is_set():
                feed.apply([(i, i + 1, cost) for i in range(3)])
                cost = 1.0 if cost == 10.0 else 10.0

        def reader():
            for _ in range(20):
                for od in legal:
                    result = router.plan(*od)
                    if not result.shed:
                        with lock:
                            observed[od].add(result.cost)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        flipper = threading.Thread(target=writer)
        try:
            flipper.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            done.set()
            flipper.join(timeout=30)
            router.shutdown()
        assert observed[(0, 3)], "readers never served an answer"
        for od, costs in observed.items():
            assert costs <= legal[od], (od, sorted(costs))

    def test_epoch_fans_out_to_shard_and_cut_tables(self):
        graph = Graph(name="chain")
        for index in range(4):
            graph.add_node(index, float(index), 0.0)
        for index in range(3):
            graph.add_edge(index, index + 1, 1.0)
        router, feed = make_fleet(graph, 1, 2)
        try:
            feed.apply([(0, 1, 5.0), (1, 2, 7.0), (2, 3, 9.0)])
            result = router.plan(0, 3)
            assert result.cost == pytest.approx(21.0)
            # Internal deltas landed in the owning worker's subgraph...
            shard0 = router.partition.shard_of(0)
            assert router.workers[shard0].spec.graph.edge_cost(0, 1) == 5.0
            # ...and the cut edge in the router's cut-cost table.
            assert router._cut_costs[(1, 2)] == 7.0
        finally:
            router.shutdown()

    def test_a_raising_shard_does_not_stop_the_epoch_fan_out(self):
        # Shard 0's slice of the epoch comes first and raises; shard 1's
        # slice must still land, or the fleet serves its old costs.
        graph = make_paper_grid(6, "variance", seed=11)
        router, feed = make_fleet(graph, 2, 2)
        try:
            partition = router.partition
            assert partition.shard_of((0, 0)) == partition.shard_of((0, 1)) == 0
            assert partition.shard_of((0, 3)) == partition.shard_of((0, 4)) == 1

            def broken(updates):
                raise RuntimeError("shard 0 fan-out failed")

            router.workers[0].apply_deltas = broken
            bump = graph.edge_cost((0, 0), (0, 1)) + 0.5
            with pytest.raises(RuntimeError, match="shard 0 fan-out failed"):
                feed.apply([((0, 0), (0, 1), bump), ((0, 3), (0, 4), 50.0)])
            assert router.workers[1].spec.graph.edge_cost((0, 3), (0, 4)) == 50.0
            result = router.plan((0, 3), (0, 4))
            reference = csr.uniform_cost(graph, (0, 3), (0, 4))
            assert reference.cost == pytest.approx(3.453928658537465)
            assert result.shed or result.cost == pytest.approx(reference.cost)
        finally:
            router.shutdown()


class TestSnapshot:
    def test_nested_shape_with_numeric_leaves(self):
        graph = make_paper_grid(6, "variance", seed=2)
        router, _feed = make_fleet(graph, 2, 2)
        try:
            rng = random.Random(1)
            nodes = list(graph.node_ids())
            for _ in range(10):
                router.plan(rng.choice(nodes), rng.choice(nodes))
            snapshot = router.snapshot()
            assert set(snapshot) == {"fleet"} | {
                f"shard_{s.shard_id}" for s in router.partition.shards
            }
            for group in snapshot.values():
                for name, value in group.items():
                    assert isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ), name
            assert snapshot["fleet"]["queries"] == 10
        finally:
            router.shutdown()
