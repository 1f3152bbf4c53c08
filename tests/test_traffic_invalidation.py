"""Edge-granular cache invalidation: precision, re-keying, counters."""

import math
import random

import pytest

from repro.audit import Oracle
from repro.engine.relational_graph import RelationalGraph
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.graphs.roadmap import make_minneapolis_map
from repro.kernel import csr, reference_sssp
from repro.service import RouteService
from repro.service.cache import query_key
from repro.traffic import TrafficFeed

pytestmark = pytest.mark.traffic


def two_corridor_graph() -> Graph:
    """Two disjoint corridors sharing no edges.

    North: a -> n1 -> b (each hop cost 1)
    South: c -> s1 -> d (each hop cost 1)
    """
    graph = Graph(name="corridors")
    graph.add_node("a", 0, 1)
    graph.add_node("n1", 1, 1)
    graph.add_node("b", 2, 1)
    graph.add_node("c", 0, -1)
    graph.add_node("s1", 1, -1)
    graph.add_node("d", 2, -1)
    graph.add_edge("a", "n1", 1.0)
    graph.add_edge("n1", "b", 1.0)
    graph.add_edge("c", "s1", 1.0)
    graph.add_edge("s1", "d", 1.0)
    return graph


@pytest.fixture
def wired():
    graph = two_corridor_graph()
    service = RouteService()
    feed = TrafficFeed(graph)
    feed.subscribe(service)
    return graph, service, feed


class TestPrecision:
    def test_update_evicts_only_crossing_routes(self, wired):
        graph, service, feed = wired
        service.plan(graph, "a", "b")
        service.plan(graph, "c", "d")
        hits_before = service.metrics.cache_hits

        feed.apply([("a", "n1", 5.0)])

        # The south corridor's answer survived the epoch (re-keyed to
        # the new fingerprint) and serves warm with its correct cost.
        south = service.plan(graph, "c", "d")
        assert service.metrics.cache_hits == hits_before + 1
        assert south.cost == 2.0
        # The north corridor's answer was evicted; the recompute prices
        # the new epoch.
        north = service.plan(graph, "a", "b")
        assert north.cost == 6.0
        assert service.metrics.cache_hits == hits_before + 1

    def test_increase_off_route_keeps_entry(self, wired):
        graph, service, feed = wired
        service.plan(graph, "a", "b")
        feed.apply([("c", "s1", 50.0)])
        hits_before = service.metrics.cache_hits
        assert service.plan(graph, "a", "b").cost == 2.0
        assert service.metrics.cache_hits == hits_before + 1

    def test_survives_multiple_epochs_via_rekeying(self, wired):
        graph, service, feed = wired
        service.plan(graph, "a", "b")
        for cost in (3.0, 4.0, 5.0):
            feed.apply([("c", "s1", cost)])
        hits_before = service.metrics.cache_hits
        assert service.plan(graph, "a", "b").cost == 2.0
        assert service.metrics.cache_hits == hits_before + 1
        assert service.cache.rekeyed >= 3

    def test_wildcard_entries_evicted_on_any_delta(self, wired):
        graph, service, feed = wired
        # weight > 1.0 makes the answer non-optimal in general: no
        # provenance, so any epoch must evict it.
        service.plan(graph, "a", "b", weight=2.0)
        feed.apply([("c", "s1", 9.0)])
        hits_before = service.metrics.cache_hits
        service.plan(graph, "a", "b", weight=2.0)
        assert service.metrics.cache_hits == hits_before


class TestDecreases:
    def make_detour_graph(self) -> Graph:
        """Direct a->b plus a two-hop detour via m, all on one line."""
        graph = Graph(name="detour")
        graph.add_node("a", 0, 0)
        graph.add_node("m", 2, 0)
        graph.add_node("b", 4, 0)
        graph.add_node("z", 10, 0)
        graph.add_edge("a", "b", 10.0)
        graph.add_edge("a", "m", 6.0)
        graph.add_edge("m", "b", 6.0)
        graph.add_edge("b", "z", 30.0)
        return graph

    def test_decrease_that_can_reroute_evicts(self):
        graph = self.make_detour_graph()
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        assert service.plan(graph, "a", "b").cost == 10.0

        # m->b drops to 1: the detour (6 + 1 = 7) now beats the cached
        # direct route, and the euclidean bound detects the possibility
        # (2 + 1 + 0 = 3 < 10).
        feed.apply([("m", "b", 1.0)])
        hits_before = service.metrics.cache_hits
        assert service.plan(graph, "a", "b").cost == 7.0
        assert service.metrics.cache_hits == hits_before

    def test_distant_decrease_retains_entry(self):
        graph = self.make_detour_graph()
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        service.plan(graph, "a", "b")

        # b->z points away from the cached query: the admissible bound
        # euclid(a, b) + new_cost + euclid(z, b) = 4 + 20 + 6 >= 10
        # proves the decrease cannot improve a->b.
        feed.apply([("b", "z", 20.0)])
        hits_before = service.metrics.cache_hits
        assert service.plan(graph, "a", "b").cost == 10.0
        assert service.metrics.cache_hits == hits_before + 1

    def test_unreachable_answers_survive_decreases(self):
        graph = self.make_detour_graph()
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        # z has no outgoing edges: unreachability is structural and no
        # cost decrease can change it.
        unreachable = service.plan(graph, "z", "a")
        assert not unreachable.found
        feed.apply([("a", "m", 1.0)])
        hits_before = service.metrics.cache_hits
        again = service.plan(graph, "z", "a")
        assert not again.found
        assert service.metrics.cache_hits == hits_before + 1


def price_below_length(graph, feed, rng):
    """One epoch pricing 600 edges at 0.3-1.0x, many below their length."""
    edges = sorted((e.source, e.target) for e in graph.edges())
    feed.apply(
        (u, v, graph.edge_cost(u, v) * rng.uniform(0.3, 1.0))
        for u, v in rng.sample(edges, 600)
    )
    assert csr.csr_for(graph).euclidean_scale(graph) < 1.0


class TestSubEuclideanEpochs:
    """An epoch that prices edges below their straight-line length.

    Plain Euclidean distance then overestimates some remaining costs:
    unscaled, the default A*/euclidean (and the engine tier's A* v1/v2)
    returns inexact routes and the cache's decrease bound keeps answers
    a cheaper edge has beaten. Both must scale by the epoch's
    ``min(cost / length)``.
    """

    def test_plans_and_survivors_stay_exact(self):
        graph = make_minneapolis_map(1993).graph
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        rng = random.Random(11)
        nodes = sorted(graph.node_ids())
        sources = rng.sample(nodes, 20)
        pairs = [(s, d) for s in sources for d in rng.sample(nodes, 20)]
        # Short routes too: only answers much cheaper than the detour
        # through every cheaper edge can survive an epoch this dense.
        nearby = [
            (s, w)
            for s in sources
            for v, _ in graph.neighbors(s)
            for w, _ in graph.neighbors(v)
            if w != s
        ]
        cached_before = pairs[::2] + nearby
        for source, destination in cached_before:
            service.plan(graph, source, destination)

        price_below_length(graph, feed, rng)

        reference = {s: reference_sssp(graph, s)[0] for s in sources}
        survivors = 0
        for source, destination in cached_before:
            key = query_key(graph, source, destination, "astar", "euclidean", 1.0)
            kept = service.cache.get(key)
            if kept is not None:
                survivors += 1
                assert math.isclose(
                    kept.cost, reference[source][destination], rel_tol=1e-9
                ), (source, destination)
        assert survivors > 0
        for source, destination in pairs:
            run = service.plan(graph, source, destination)
            assert math.isclose(
                run.cost, reference[source][destination], rel_tol=1e-9
            ), (source, destination)
        assert service.cache.audit_index() == []

    def test_engine_astar_stays_exact(self):
        graph = make_minneapolis_map(1993).graph
        rgraph = RelationalGraph(graph)
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        feed.subscribe(rgraph)
        rng = random.Random(11)
        price_below_length(graph, feed, rng)
        oracle = Oracle(graph)
        # Routes the unscaled estimator prices 0.8-2.2% above optimal.
        for source, destination in [((7, 23), (27, 24)), ((32, 8), (8, 2))]:
            for version in ("v1", "v2"):
                run = service.plan_engine(rgraph, source, destination, version=version)
                assert oracle.check(source, destination, run).kind == "exact", (
                    version, source, destination,
                )
        assert service.cache.audit_index() == []

    def test_decrease_bound_scales_with_the_epoch(self):
        """Three edges each priced at 0.3x of their length make a
        cheaper detour (9 < 10), yet each one alone passes the unscaled
        bound (0 + 3 + 14.1 >= 10); scaled by 0.3 it evicts."""
        graph = Graph(name="square")
        graph.add_node("a", 0, 0)
        graph.add_node("b", 10, 0)
        graph.add_node("p", 0, 10)
        graph.add_node("q", 10, 10)
        graph.add_edge("a", "b", 10.0)
        graph.add_edge("a", "p", 10.0)
        graph.add_edge("p", "q", 10.0)
        graph.add_edge("q", "b", 10.0)
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        assert service.plan(graph, "a", "b").cost == 10.0
        feed.apply([("a", "p", 3.0), ("p", "q", 3.0), ("q", "b", 3.0)])
        hits_before = service.metrics.cache_hits
        assert service.plan(graph, "a", "b").cost == 9.0
        assert service.metrics.cache_hits == hits_before


class TestPoliciesAndCounters:
    def test_update_edge_cost_returns_eviction_count(self):
        graph = two_corridor_graph()
        service = RouteService()
        service.plan(graph, "a", "b")
        service.plan(graph, "c", "d")
        evicted = service.update_edge_cost(graph, "a", "n1", 4.0)
        assert evicted == 1
        assert graph.edge_cost("a", "n1") == 4.0
        # A no-op update evicts nothing and bumps nothing.
        assert service.update_edge_cost(graph, "a", "n1", 4.0) == 0

    def test_same_cost_update_is_no_epoch(self):
        graph = two_corridor_graph()
        service = RouteService()
        service.plan(graph, "a", "b")
        fingerprint = graph.fingerprint
        assert service.update_edge_cost(graph, "a", "n1", 1.0) == 0
        assert graph.fingerprint == fingerprint
        assert service.epochs_applied == 0
        hits_before = service.metrics.cache_hits
        service.plan(graph, "a", "b")
        assert service.metrics.cache_hits == hits_before + 1

    def test_epoch_counters_accumulate(self):
        graph = two_corridor_graph()
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        service.plan(graph, "a", "b")
        service.plan(graph, "c", "d")
        feed.apply([("a", "n1", 3.0)])
        snap = service.snapshot()
        assert snap["epochs_applied"] == 1
        assert snap["traffic_evicted"] == 1
        assert snap["traffic_retained"] == 1

    def test_snapshot_and_hit_rate_are_consistent(self):
        graph = two_corridor_graph()
        service = RouteService()
        service.plan(graph, "a", "b")
        service.plan(graph, "a", "b")
        snap = service.cache.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert service.cache.hit_rate == 0.5


class TestEstimatorPoolRefresh:
    def test_landmark_tables_refreshed_on_epoch(self):
        graph = make_paper_grid(6, "uniform")
        service = RouteService(default_estimator="landmark")
        feed = TrafficFeed(graph)
        feed.subscribe(service)

        first = service.plan(graph, (0, 0), (5, 5))
        created_before = service.pool.created
        feed.apply([((2, 2), (2, 3), 5.0)])
        assert service.pool.snapshot()["refreshed"] >= 1

        # The refreshed instance serves the new epoch: no cold rebuild,
        # and the answer prices the updated costs.
        second = service.plan(graph, (0, 0), (5, 5))
        assert service.pool.created == created_before
        from repro.core.planner import RoutePlanner

        fresh = RoutePlanner().plan(graph, (0, 0), (5, 5), "dijkstra")
        assert second.cost == pytest.approx(fresh.cost)
        assert first.found and second.found
