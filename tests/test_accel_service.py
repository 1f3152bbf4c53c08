"""Accelerator pipeline wired through the serving layers.

The kernel suite (tests/test_accel.py) proves the accelerators exact in
isolation; this one proves the plumbing: RouteService routes eligible
queries through its per-graph accelerator and re-*customizes* on
traffic epochs (never serving stale answers, never re-preprocessing),
the TrafficFeed classifies accelerators as customize listeners and the
service as an invalidate listener, the estimator pool bills its
preparation time along the same phase boundary, and a fleet of
accelerated shard workers answers boundary cliques with point queries
while staying cost-exact against whole-graph Dijkstra.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import kernel
from repro.fleet import FleetRouter, partition_graph
from repro.graphs.grid import make_paper_grid
from repro.service.pool import EstimatorPool
from repro.service.service import RouteService
from repro.traffic.feed import TrafficFeed

pytestmark = pytest.mark.accel


def _exact(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _epoch_updates(graph, number, stride=9):
    edges = sorted((e.source, e.target) for e in graph.edges())
    return [
        (u, v, graph.edge_cost(u, v) * (0.7 + 0.2 * ((number + i) % 4)))
        for i, (u, v) in enumerate(edges[::stride])
    ]


class TestServiceAccel:
    def test_bad_accelerator_name_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            RouteService(accelerator="warp-drive")
        message = str(excinfo.value)
        assert "cch" in message and "dijkstra" in message

    def test_accelerated_dijkstra_exact_across_epochs(self):
        graph = make_paper_grid(7, seed=11)
        service = RouteService(
            accelerator="cch",
            default_algorithm="dijkstra",
            default_estimator="zero",
        )
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        nodes = sorted(node.node_id for node in graph.nodes())
        pairs = [(s, d) for s in nodes[::6] for d in nodes[::6]]

        def check_round():
            for source, destination in pairs:
                served = service.plan(graph, source, destination)
                ref = kernel.search(graph, source, destination, trace=True)
                assert served.found == ref.found
                if ref.found:
                    assert _exact(served.cost, ref.cost)

        check_round()
        for number in range(1, 4):
            feed.apply(_epoch_updates(graph, number))
            check_round()
        snap = service.snapshot()
        assert snap["accel_instances"] == 1
        assert snap["accel_preprocesses"] == 1
        # One initial full pass plus one customize per absorbed epoch.
        assert snap["accel_customizes"] >= 4
        assert snap["accel_queries_served"] > 0
        assert snap["accel_customize_time_s"] > 0
        assert snap["accel_preprocess_time_s"] > 0

    def test_cch_serves_dijkstra_only(self):
        graph = make_paper_grid(5, seed=3)
        service = RouteService(accelerator="cch", default_estimator="zero")
        service.plan(graph, (0, 0), (4, 4), algorithm="astar")
        service.plan(graph, (0, 0), (4, 4), algorithm="iterative")
        assert service.snapshot()["accel_queries_served"] == 0
        service.plan(graph, (0, 0), (4, 4), algorithm="dijkstra")
        assert service.snapshot()["accel_queries_served"] == 1

    def test_one_stage_serves_own_algorithm_only(self):
        graph = make_paper_grid(5, seed=3)
        service = RouteService(
            accelerator="bidirectional", default_estimator="zero"
        )
        service.plan(graph, (0, 0), (4, 4), algorithm="dijkstra")
        assert service.snapshot()["accel_queries_served"] == 0
        served = service.plan(graph, (0, 0), (4, 4), algorithm="bidirectional")
        ref = kernel.search(graph, (0, 0), (4, 4), trace=True)
        assert _exact(served.cost, ref.cost)
        assert service.snapshot()["accel_queries_served"] == 1

    def test_feed_listener_kinds(self):
        """The service invalidates; the accelerator object customizes.

        RouteService must keep exposing ``handle_epoch`` only — growing
        a ``customize_epoch`` method would make the feed prefer it and
        silently skip cache invalidation.
        """
        graph = make_paper_grid(4, seed=1)
        service = RouteService(accelerator="cch")
        assert not hasattr(service, "customize_epoch")
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        snap = feed.snapshot()
        assert snap["invalidate_listeners"] == 1
        assert snap["customize_listeners"] == 0
        service.plan(graph, (0, 0), (3, 3), algorithm="dijkstra")
        feed.subscribe(service.accelerator_instance(graph))
        snap = feed.snapshot()
        assert snap["customize_listeners"] == 1

    def test_epoch_never_builds_an_instance(self):
        """Customization in the traffic path touches existing overlays
        only — building one there would charge preprocess to traffic."""
        graph = make_paper_grid(4, seed=1)
        service = RouteService(accelerator="cch")
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        feed.apply(_epoch_updates(graph, 1, stride=5))
        assert service.snapshot()["accel_instances"] == 0

    def test_update_edge_cost_recustomizes(self):
        graph = make_paper_grid(5, seed=7)
        service = RouteService(
            accelerator="cch",
            default_algorithm="dijkstra",
            default_estimator="zero",
        )
        service.plan(graph, (0, 0), (4, 4))
        before = service.snapshot()["accel_customizes"]
        service.update_edge_cost(graph, (0, 0), (0, 1), 25.0)
        assert service.snapshot()["accel_customizes"] == before + 1
        served = service.plan(graph, (0, 0), (4, 4))
        ref = kernel.search(graph, (0, 0), (4, 4), trace=True)
        assert _exact(served.cost, ref.cost)
        assert service.snapshot()["accel_preprocesses"] == 1

    def test_pool_bills_both_pipeline_phases(self):
        graph = make_paper_grid(6, seed=2)
        pool = EstimatorPool(
            estimator_kwargs={"landmark": {"landmarks": "farthest:3"}}
        )
        service = RouteService(estimator_pool=pool)
        service.plan(graph, (0, 0), (5, 5), algorithm="astar", estimator="landmark")
        snap = pool.snapshot()
        assert snap["preprocess_time_s"] > 0
        assert snap["customize_time_s"] == 0
        service.update_edge_cost(graph, (0, 0), (0, 1), 30.0)
        snap = pool.snapshot()
        assert snap["refreshed"] >= 1
        assert snap["customize_time_s"] > 0


class TestFleetAccel:
    def test_accelerated_fleet_exact_across_epochs(self):
        graph = make_paper_grid(8, "variance", seed=17)
        partition = partition_graph(graph, 2, 2)
        router = FleetRouter(partition, accelerator="cch")
        feed = TrafficFeed(graph)
        feed.subscribe(router)
        try:
            rng = random.Random(9)
            nodes = list(graph.node_ids())

            def check_round():
                for _ in range(25):
                    source = rng.choice(nodes)
                    destination = rng.choice(nodes)
                    result = router.plan(source, destination)
                    ref = kernel.search(graph, source, destination)
                    assert result.found == ref.found
                    if ref.found:
                        assert _exact(result.cost, ref.cost)

            check_round()
            for number in range(1, 4):
                feed.apply(_epoch_updates(graph, number, stride=11))
                check_round()
            snap = router.snapshot()
            assert snap["fleet"]["accelerated"] == 1
            shard = snap["shard_0"]
            # Boundary cliques were answered by accelerator point
            # queries, against a single per-shard preprocess.
            assert shard["clique_point_queries"] > 0
            assert shard["accel_preprocesses"] == 1
            assert shard["accel_customizes"] >= 1
        finally:
            router.shutdown()

    def test_unaccelerated_fleet_has_no_point_queries(self):
        graph = make_paper_grid(6, seed=4)
        partition = partition_graph(graph, 1, 2)
        router = FleetRouter(partition)
        try:
            router.plan((0, 0), (5, 5))
            snap = router.snapshot()
            assert snap["fleet"]["accelerated"] == 0
            assert snap["shard_0"]["clique_point_queries"] == 0
            assert "accel_preprocesses" not in snap["shard_0"]
        finally:
            router.shutdown()
