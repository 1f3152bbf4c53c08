"""Tests for the relational execution engine (RelationalGraph, frontier
implementations, and the three algorithm runners)."""

import pytest

from repro.exceptions import PlannerError
from repro import kernel
from repro.core.estimators import ManhattanEstimator
from repro.engine import (
    RelationalGraph,
    run_astar,
    run_dijkstra,
    run_iterative,
    run_relational,
)
from repro.engine.frontier import (
    SeparateRelationFrontier,
    StatusAttributeFrontier,
)
from repro.engine import rel_iterative
from repro.graphs.grid import make_grid, make_paper_grid
from repro.graphs.roadmap import make_minneapolis_map, road_queries
from repro.storage.database import Database
from repro.storage.schema import STATUS_CURRENT, STATUS_NULL


@pytest.fixture(scope="module")
def grid8():
    return make_paper_grid(8, "variance")


@pytest.fixture(scope="module")
def rgraph8(grid8):
    return RelationalGraph(grid8)


class TestRelationalGraph:
    def test_edge_relation_loaded(self, grid8, rgraph8):
        assert rgraph8.S.tuple_count == grid8.edge_count
        assert rgraph8.S.hash_index is not None

    def test_edge_blocks_match_blocking_factor(self, grid8, rgraph8):
        expected = -(-grid8.edge_count // 128)
        assert rgraph8.edge_blocks == expected

    def test_fresh_node_relation_populated(self, grid8, rgraph8):
        R = rgraph8.fresh_node_relation(populate=True)
        assert R.tuple_count == grid8.node_count
        assert R.isam is not None
        sample = R.fetch_by_key((0, 0))
        assert sample["status"] == STATUS_NULL
        assert sample["path_cost"] == float("inf")
        rgraph8.drop_node_relation(R)

    def test_fresh_node_relation_lazy(self, rgraph8):
        R = rgraph8.fresh_node_relation(populate=False)
        assert R.tuple_count == 0
        assert R.isam is None
        rgraph8.drop_node_relation(R)

    def test_adjacency_join_fetches_neighbors(self, grid8, rgraph8):
        outer = [{"node_id": (3, 3), "path_cost": 0.0}]
        rows, plan = rgraph8.adjacency_join(outer)
        assert {row["end"] for row in rows} == {
            v for v, _c in grid8.neighbors((3, 3))
        }
        assert plan.strategy_name in {
            "primary-key", "hash", "nested-loop", "sort-merge",
        }


class TestEngineCorrectness:
    @pytest.mark.parametrize(
        "algorithm",
        ["iterative", "dijkstra", "astar-v1", "astar-v2", "astar-v3"],
    )
    def test_engine_finds_optimal_grid_paths(self, grid8, rgraph8, algorithm):
        reference = kernel.search(grid8, (0, 0), (7, 7))
        run = run_relational(grid8, (0, 0), (7, 7), algorithm, rgraph=rgraph8)
        assert run.found
        assert run.cost == pytest.approx(reference.cost)
        assert grid8.is_valid_path(run.path)
        assert run.path[0] == (0, 0) and run.path[-1] == (7, 7)

    def test_engine_iterations_match_core_tier(self, grid8, rgraph8):
        """The two tiers implement the same algorithms: identical
        iteration counts for deterministic-tie-free runs."""
        core = kernel.search(grid8, (0, 0), (7, 7), "iterative")
        engine = run_iterative(rgraph8, (0, 0), (7, 7))
        assert engine.iterations == core.iterations

    def test_dijkstra_engine_iteration_count(self, grid8, rgraph8):
        core = kernel.search(grid8, (0, 0), (7, 7))
        engine = run_dijkstra(rgraph8, (0, 0), (7, 7))
        assert engine.iterations == core.iterations

    def test_unknown_algorithm_rejected(self, grid8):
        with pytest.raises(PlannerError):
            run_relational(grid8, (0, 0), (7, 7), "warshall")

    def test_unknown_astar_version_rejected(self, grid8, rgraph8):
        with pytest.raises(PlannerError):
            run_astar(rgraph8, (0, 0), (7, 7), version="v9")

    def test_rgraph_graph_mismatch_rejected(self, grid8, rgraph8):
        other = make_grid(4)
        with pytest.raises(PlannerError):
            run_relational(other, (0, 0), (3, 3), "dijkstra", rgraph=rgraph8)

    def test_missing_nodes_raise(self, grid8, rgraph8):
        from repro.exceptions import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            run_dijkstra(rgraph8, (0, 0), (99, 99))


class TestEngineAccounting:
    def test_stats_reset_per_run(self, grid8, rgraph8):
        first = run_dijkstra(rgraph8, (0, 0), (7, 7))
        second = run_dijkstra(rgraph8, (0, 0), (7, 7))
        assert first.execution_cost == pytest.approx(second.execution_cost)

    def test_phase_costs_sum_to_total(self, grid8, rgraph8):
        run = run_dijkstra(rgraph8, (0, 0), (7, 7))
        assert run.init_cost + run.iteration_cost + run.cleanup_cost == (
            pytest.approx(run.execution_cost)
        )

    def test_trace_records_every_iteration(self, grid8, rgraph8):
        run = run_dijkstra(rgraph8, (0, 0), (7, 7))
        assert len(run.trace) == run.iterations
        assert run.trace[0].index == 1
        assert run.trace[-1].cumulative_cost <= run.execution_cost

    def test_v1_has_lower_init_cost_than_v2(self, grid8, rgraph8):
        v1 = run_astar(rgraph8, (0, 0), (7, 7), version="v1")
        v2 = run_astar(rgraph8, (0, 0), (7, 7), version="v2")
        assert v1.init_cost < v2.init_cost

    def test_iterative_average_iteration_cost(self, grid8, rgraph8):
        run = run_iterative(rgraph8, (0, 0), (7, 7))
        assert run.average_iteration_cost() == pytest.approx(
            run.iteration_cost / run.iterations
        )

    def test_join_strategy_histogram(self, grid8, rgraph8):
        run = run_iterative(rgraph8, (0, 0), (7, 7))
        histogram = run.join_strategy_histogram()
        assert sum(histogram.values()) == run.iterations

    def test_temporaries_dropped_after_run(self, grid8, rgraph8):
        before = set(rgraph8.db.relation_names())
        run_astar(rgraph8, (0, 0), (7, 7), version="v1")
        assert set(rgraph8.db.relation_names()) == before


class TestFrontierBehaviour:
    def _status_frontier(self, rgraph):
        R = rgraph.fresh_node_relation(populate=True)
        return R, StatusAttributeFrontier(
            R, rgraph.stats, key_of=lambda node_id, path_cost: path_cost
        )

    def test_status_select_best_min_and_close(self, rgraph8):
        R, frontier = self._status_frontier(rgraph8)
        frontier.open_node((0, 0), 5.0, None)
        frontier.open_node((0, 1), 3.0, (0, 0))
        best = frontier.select_best()
        assert best["node_id"] == (0, 1)
        frontier.close(best)
        assert frontier.size() == 1
        assert frontier.select_best()["node_id"] == (0, 0)
        rgraph8.drop_node_relation(R)

    def test_status_select_best_tie_takes_earlier_rid(self, rgraph8):
        R, frontier = self._status_frontier(rgraph8)
        late, early = sorted([(0, 0), (5, 5)], key=R.isam.probe, reverse=True)
        frontier.open_node(late, 3.0, None)
        frontier.open_node(early, 3.0, None)
        best = frontier.select_best()
        assert best["node_id"] == early
        assert best["_rid"] == R.isam.probe(early) < R.isam.probe(late)
        rgraph8.drop_node_relation(R)

    def test_status_relax_only_improves(self, rgraph8):
        R, frontier = self._status_frontier(rgraph8)
        frontier.open_node((2, 2), 4.0, None)
        assert not frontier.relax((2, 2), 9.0, (0, 0))  # worse: rejected
        assert frontier.relax((2, 2), 1.0, (0, 0))  # better: applied
        assert frontier.select_best()["path_cost"] == 1.0
        rgraph8.drop_node_relation(R)

    def test_status_requires_isam(self, rgraph8):
        R = rgraph8.fresh_node_relation(populate=False)
        with pytest.raises(PlannerError):
            StatusAttributeFrontier(R, rgraph8.stats, key_of=lambda node_id, path_cost: 0.0)
        rgraph8.drop_node_relation(R)

    def _separate_frontier(self, rgraph):
        R = rgraph.fresh_node_relation(populate=False)
        frontier = SeparateRelationFrontier(
            rgraph.db.create_relation,
            R,
            rgraph.graph,
            rgraph.stats,
            key_of=lambda node_id, path_cost: path_cost,
        )
        return R, frontier

    def test_separate_frontier_basic_lifecycle(self, rgraph8):
        R, frontier = self._separate_frontier(rgraph8)
        frontier.open_node((0, 0), 2.0, None)
        frontier.relax((1, 0), 7.0, (0, 0))
        assert frontier.size() == 2
        best = frontier.select_best()
        assert best["node_id"] == (0, 0)
        frontier.close(best)
        assert frontier.size() == 1
        rgraph8.drop_node_relation(R)
        rgraph8.db.drop_relation(frontier.F.name)

    def test_separate_relax_replaces_stale_entry(self, rgraph8):
        R, frontier = self._separate_frontier(rgraph8)
        frontier.open_node((0, 0), 9.0, None)
        assert frontier.relax((0, 0), 2.0, None)
        assert frontier.size() == 1  # no duplicate entries
        assert frontier.select_best()["path_cost"] == 2.0
        rgraph8.drop_node_relation(R)
        rgraph8.db.drop_relation(frontier.F.name)

    def test_separate_close_unknown_raises(self, rgraph8):
        R, frontier = self._separate_frontier(rgraph8)
        with pytest.raises(PlannerError):
            frontier.close({"node_id": (5, 5)})
        rgraph8.drop_node_relation(R)
        rgraph8.db.drop_relation(frontier.F.name)


class TestEstimatorOverride:
    def test_custom_estimator_in_astar(self, grid8, rgraph8):
        run = run_astar(
            rgraph8, (0, 0), (7, 7), version="v2",
            estimator=ManhattanEstimator(),
        )
        assert run.found


class _AllRowsWaves(kernel.RelationalWavePolicy):
    """The wave steps reading every row: step 5 keeps the rows of R whose
    status is current, step 7 offers every row to the updater."""

    def __init__(self, rgraph, R):
        super().__init__(rgraph, R)
        batch_update = R.heap.batch_update
        R.heap.batch_update = lambda updater, record_ids=None: batch_update(updater)

    def select(self):
        status = self.R.schema.position("status")
        current = [
            self.R.schema.as_dict(row)
            for _rid, row in self.R.heap.scan_rows()
            if row[status] == STATUS_CURRENT
        ]
        return current or None


class TestWavePolicyRows:
    """The wave policy reads only the current rows and the rows its
    REPLACE pass changes; its answers, trace, ledger and journal equal
    the passes that read every row."""

    @staticmethod
    def _run(graph, pair, capacity):
        from repro.wal import InMemoryStableStore, WriteAheadLog

        wal = WriteAheadLog(store=InMemoryStableStore())
        db = Database(buffer_capacity=capacity, wal=wal)
        result = run_iterative(RelationalGraph(graph, database=db), *pair)
        pool = db.buffer_pool
        return (
            (result.found, result.cost, result.path, result.iterations),
            [(r.updates_applied, r.join_strategy, r.cumulative_cost) for r in result.trace],
            (db.stats.snapshot(), dict(db.stats.phase_costs)),
            (pool.hits, pool.misses, pool.evictions),
            list(wal.records(charge=False)),
        )

    @pytest.mark.parametrize("capacity", [0, 4])
    @pytest.mark.parametrize("pair", [((0, 0), (7, 7)), ((3, 5), (6, 1))])
    def test_equals_the_all_rows_passes(self, grid8, pair, capacity, monkeypatch):
        located = self._run(grid8, pair, capacity)
        assert any(record[0] == "batch" for record in located[4])
        monkeypatch.setattr(rel_iterative, "RelationalWavePolicy", _AllRowsWaves)
        assert self._run(grid8, pair, capacity) == located

    def test_road_map_pair_equals_the_all_rows_passes(self, monkeypatch):
        road_map = make_minneapolis_map(1993)
        pair = road_queries(road_map)["E to F"]
        located = self._run(road_map.graph, pair, 4)
        monkeypatch.setattr(rel_iterative, "RelationalWavePolicy", _AllRowsWaves)
        assert self._run(road_map.graph, pair, 4) == located
