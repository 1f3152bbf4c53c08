"""End-to-end tests for RouteService: caching, dedup, invalidation,
metrics, tracing, the relational-engine tier and the CLI entry point."""

import threading

import pytest

from repro import kernel
from repro.core.estimators import (
    EuclideanEstimator,
    ManhattanEstimator,
    ScaledEstimator,
    make_estimator,
)
from repro.core.planner import RoutePlanner
from repro.engine import RelationalGraph
from repro.graphs.grid import make_grid, make_paper_grid
from repro.graphs.roadmap import make_minneapolis_map
from repro.service import RouteService
from repro.service.pool import EstimatorPool

pytestmark = pytest.mark.service


@pytest.fixture
def service() -> RouteService:
    return RouteService()


@pytest.fixture
def grid() -> "Graph":
    return make_paper_grid(10, "variance")


class TestCorrectness:
    @pytest.mark.parametrize("algorithm", ["astar", "dijkstra", "bidirectional"])
    def test_matches_direct_planner(self, service, grid, algorithm):
        served = service.plan(grid, (0, 0), (9, 9), algorithm=algorithm)
        direct = RoutePlanner().plan(grid, (0, 0), (9, 9), algorithm)
        assert served.found
        assert served.cost == pytest.approx(direct.cost)

    def test_warm_hit_returns_same_answer(self, service, grid):
        cold = service.plan(grid, (0, 0), (9, 9))
        warm = service.plan(grid, (0, 0), (9, 9))
        assert warm.cost == pytest.approx(cold.cost)
        assert warm.path == cold.path
        assert service.metrics.cache_hits == 1
        assert service.metrics.cache_misses == 1

    def test_returned_path_is_caller_owned(self, service, grid):
        first = service.plan(grid, (0, 0), (9, 9))
        first.path.clear()
        second = service.plan(grid, (0, 0), (9, 9))
        assert second.path, "mutating a returned result corrupted the cache"

    def test_distinct_estimators_cached_separately(self, service, grid):
        service.plan(grid, (0, 0), (9, 9), estimator="euclidean")
        service.plan(grid, (0, 0), (9, 9), estimator="zero")
        assert service.metrics.cache_misses == 2

    def test_weight_part_of_cache_key(self, service, grid):
        service.plan(grid, (0, 0), (9, 9), weight=1.0)
        service.plan(grid, (0, 0), (9, 9), weight=2.0)
        assert service.metrics.cache_misses == 2

    def test_pooled_landmark_service_is_optimal(self, grid):
        service = RouteService(default_estimator="landmark")
        optimum = kernel.search(grid, (0, 0), (9, 9)).cost
        for _ in range(2):
            result = service.plan(grid, (0, 0), (9, 9))
            assert result.cost == pytest.approx(optimum)
        assert service.pool.created == 1


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteScales:
    """A NaN or infinite scale is refused where it enters. NaN passes a
    ``< 0`` test; on the Minneapolis map a NaN weight once served a
    cost-10.59 route against the optimum 8.66, unflagged and cached,
    and an infinite one makes the estimate at the destination NaN."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_estimator_constructors_reject(self, value):
        with pytest.raises(ValueError, match="cost_per_unit"):
            EuclideanEstimator(cost_per_unit=value)
        with pytest.raises(ValueError, match="cost_per_unit"):
            ManhattanEstimator(cost_per_unit=value)
        with pytest.raises(ValueError, match="weight"):
            ScaledEstimator(EuclideanEstimator(), value)
        with pytest.raises(ValueError, match="weight"):
            make_estimator("euclidean", weight=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_planner_rejects_before_taking_a_pooled_instance(self, grid, value):
        pool = EstimatorPool()
        planner = RoutePlanner(estimator_pool=pool)
        with pytest.raises(ValueError, match="weight"):
            planner.plan(grid, (0, 0), (9, 9), estimator="euclidean", weight=value)
        assert pool.created == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_plan_rejects_before_admission(self, service, value):
        graph = make_minneapolis_map(1993).graph
        nodes = list(graph.node_ids())
        with pytest.raises(ValueError, match="weight"):
            service.plan(graph, nodes[0], nodes[-1], weight=value)
        assert len(service.cache) == 0
        assert service.metrics.queries == 0
        assert service.pool.created == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_plan_many_rejects_the_whole_batch(self, service, grid, value):
        with pytest.raises(ValueError, match="weight"):
            service.plan_many(
                grid,
                [
                    ((0, 0), (9, 9)),
                    {"source": (0, 0), "destination": (5, 5), "weight": value},
                ],
            )
        assert len(service.cache) == 0
        assert service.metrics.queries == 0


class TestInvalidation:
    def test_edge_update_forces_recomputation_with_new_cost(self, service):
        graph = make_grid(5)
        before = service.plan(graph, (0, 0), (0, 4), algorithm="dijkstra",
                              estimator="zero")
        assert before.cost == pytest.approx(4.0)
        # Congest every eastbound edge of the top row: the straight
        # route now costs 4 * 10; the detour through row 1 wins.
        for column in range(4):
            service.update_edge_cost(graph, (0, column), (0, column + 1), 10.0)
        after = service.plan(graph, (0, 0), (0, 4), algorithm="dijkstra",
                             estimator="zero")
        assert after.cost == pytest.approx(
            kernel.search(graph, (0, 0), (0, 4)).cost
        )
        assert after.cost != pytest.approx(before.cost)
        assert service.cache.invalidations >= 1

    def test_stale_hit_impossible_even_without_explicit_invalidation(
        self, service
    ):
        graph = make_grid(5)
        service.plan(graph, (0, 0), (0, 4))
        graph.update_edge_cost((0, 0), (0, 1), 10.0)  # bypasses the service
        replay = service.plan(graph, (0, 0), (0, 4))
        assert replay.cost == pytest.approx(
            kernel.search(graph, (0, 0), (0, 4)).cost
        )


class TestBatchAndDedup:
    def test_plan_many_aligns_results(self, service, grid):
        queries = [((0, 0), (9, 9)), ((0, 0), (5, 5)), ((0, 0), (9, 9))]
        results = service.plan_many(grid, queries)
        assert len(results) == 3
        assert results[0].cost == pytest.approx(results[2].cost)
        assert results[1].destination == (5, 5)
        assert service.metrics.deduplicated == 1

    def test_plan_many_dict_specs(self, service, grid):
        results = service.plan_many(
            grid,
            [
                {"source": (0, 0), "destination": (9, 9), "algorithm": "dijkstra"},
                {"source": (0, 0), "destination": (9, 9), "estimator": "zero"},
            ],
        )
        assert all(result.found for result in results)
        # Different algorithm/estimator -> different keys -> no dedup.
        assert service.metrics.deduplicated == 0

    def test_concurrent_identical_queries_compute_once(self, grid):
        service = RouteService()
        compute_count = {"n": 0}
        gate = threading.Event()
        inner = service.planner._registry["astar"]

        def slow_astar(graph, source, destination, estimator):
            compute_count["n"] += 1
            gate.wait(timeout=5)
            return inner(graph, source, destination, estimator)

        service.planner.register("astar", slow_astar)
        results = []

        def worker():
            results.append(service.plan(grid, (0, 0), (9, 9)))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(results) == 6
        assert len({result.cost for result in results}) == 1
        assert compute_count["n"] == 1, "identical in-flight queries not deduplicated"
        assert service.metrics.queries == 6


class TestEngineTier:
    def test_warm_hit_performs_zero_block_io(self, grid):
        service = RouteService()
        rgraph = RelationalGraph(grid)
        cold = service.plan_engine(rgraph, (0, 0), (9, 9), algorithm="dijkstra")
        before = rgraph.stats.snapshot()
        warm = service.plan_engine(rgraph, (0, 0), (9, 9), algorithm="dijkstra")
        after = rgraph.stats.snapshot()
        assert warm.cost == pytest.approx(cold.cost)
        assert after["block_reads"] == before["block_reads"]
        assert after["block_writes"] == before["block_writes"]
        assert after == before

    def test_astar_versions_served(self, grid):
        service = RouteService()
        rgraph = RelationalGraph(grid)
        run = service.plan_engine(rgraph, (0, 0), (9, 9), version="v1")
        assert run.found
        assert grid.is_valid_path(run.path)

    def test_unknown_engine_algorithm_rejected(self, grid):
        service = RouteService()
        rgraph = RelationalGraph(grid)
        with pytest.raises(ValueError):
            service.plan_engine(rgraph, (0, 0), (9, 9), algorithm="greedy")


class TestRelationalBackendKnob:
    @pytest.mark.parametrize("algorithm", ["astar", "dijkstra", "iterative"])
    def test_matches_memory_backend(self, service, grid, algorithm):
        relational = service.plan(
            grid, (0, 0), (9, 9), algorithm=algorithm, backend="relational"
        )
        memory = service.plan(grid, (0, 0), (9, 9), algorithm=algorithm)
        assert relational.found
        assert relational.cost == pytest.approx(memory.cost)
        assert relational.io is not None
        assert relational.execution_cost > 0
        assert memory.io is None

    def test_warm_hit_performs_zero_block_io(self, service, grid):
        cold = service.plan(grid, (0, 0), (9, 9), backend="relational")
        rgraph = service._rgraphs[grid.uid]
        before = rgraph.stats.snapshot()
        warm = service.plan(grid, (0, 0), (9, 9), backend="relational")
        assert rgraph.stats.snapshot() == before
        assert warm.cost == pytest.approx(cold.cost)
        assert service.metrics.cache_hits == 1

    def test_tiers_do_not_alias_in_the_cache(self, service, grid):
        service.plan(grid, (0, 0), (9, 9), algorithm="dijkstra")
        relational = service.plan(
            grid, (0, 0), (9, 9), algorithm="dijkstra", backend="relational"
        )
        # The second query must be a cold relational run, not a warm
        # in-memory hit with no I/O ledger.
        assert service.metrics.cache_hits == 0
        assert relational.io is not None

    def test_epoch_invalidation_and_sync_billing(self, grid):
        from repro.traffic.feed import TrafficFeed

        service = RouteService()
        feed = TrafficFeed(grid)
        feed.subscribe(service.handle_epoch)
        first = service.plan(grid, (0, 0), (9, 9), backend="relational")
        assert first.sync_cost == 0.0
        edge = (first.path[0], first.path[1])
        feed.apply([(edge[0], edge[1], grid.edge_cost(*edge) + 50.0)])
        replanned = service.plan(grid, (0, 0), (9, 9), backend="relational")
        # The touched edge lay on the cached route: the entry was
        # evicted, the mirror re-fetched the dirtied adjacency blocks
        # (billed as sync), and the new route avoids the repriced edge.
        assert service.metrics.cache_hits == 0
        assert replanned.sync_cost > 0
        assert edge not in set(zip(replanned.path, replanned.path[1:]))

    def test_update_edge_cost_reaches_the_mirror(self, service, grid):
        first = service.plan(grid, (0, 0), (9, 9), backend="relational")
        edge = (first.path[0], first.path[1])
        service.update_edge_cost(grid, edge[0], edge[1], 99.0)
        replanned = service.plan(grid, (0, 0), (9, 9), backend="relational")
        assert replanned.sync_cost > 0
        assert replanned.cost == pytest.approx(
            service.plan(grid, (0, 0), (9, 9), algorithm="dijkstra").cost
        )

    def test_plan_many_accepts_backend_key(self, service, grid):
        results = service.plan_many(
            grid,
            [
                {"source": (0, 0), "destination": (9, 9),
                 "backend": "relational", "algorithm": "dijkstra"},
                {"source": (0, 0), "destination": (9, 9),
                 "algorithm": "dijkstra"},
            ],
        )
        assert results[0].io is not None
        assert results[1].io is None
        assert results[0].cost == pytest.approx(results[1].cost)

    def test_unknown_backend_rejected(self, service, grid):
        with pytest.raises(ValueError):
            service.plan(grid, (0, 0), (9, 9), backend="quantum")
        with pytest.raises(ValueError):
            RouteService(default_backend="quantum")

    def test_relational_unknown_algorithm_rejected(self, service, grid):
        from repro.exceptions import UnknownAlgorithmError

        with pytest.raises(UnknownAlgorithmError):
            service.plan(grid, (0, 0), (9, 9), algorithm="greedy",
                         backend="relational")


class TestObservability:
    def test_snapshot_shape_matches_iostatistics_style(self, service, grid):
        service.plan(grid, (0, 0), (9, 9))
        snap = service.snapshot()
        assert all(isinstance(value, (int, float)) for value in snap.values())
        for required in (
            "queries", "cache_hits", "cache_misses", "cache_hit_rate",
            "average_latency_s", "nodes_expanded", "cache_size",
            "pool_created",
        ):
            assert required in snap

    def test_snapshot_leaves_are_numeric_and_json_safe(self, service, grid):
        """The ``Snapshot`` contract the fleet nests per shard: every
        leaf is a real number (bools are ints in Python — excluded
        explicitly) and the dict survives a JSON round trip verbatim."""
        import json

        service.plan(grid, (0, 0), (9, 9))
        snap = service.snapshot()
        for name, value in snap.items():
            assert isinstance(value, (int, float)), name
            assert not isinstance(value, bool), name
        assert json.loads(json.dumps(snap)) == snap

    def test_trace_spans_recorded(self, service, grid):
        service.plan(grid, (0, 0), (9, 9))
        names = [span.name for span in service.last_trace.spans]
        assert names == ["cache-lookup", "plan", "cache-store"]
        service.plan(grid, (0, 0), (9, 9))
        names = [span.name for span in service.last_trace.spans]
        assert names == ["cache-lookup"]
        assert service.metrics.recent[-1].spans["cache-lookup"] >= 0.0

    def test_request_trace_durations(self):
        from repro.engine.tracing import RequestTrace

        ticks = iter(range(100))
        trace = RequestTrace(clock=lambda: next(ticks))
        with trace.span("a"):
            pass
        with trace.span("b", detail=1) as span:
            span.annotate(more=2)
        assert trace.durations()["a"] >= 1
        payload = trace.to_dict()
        assert payload["spans"][1]["detail"] == 1
        assert payload["spans"][1]["more"] == 2

