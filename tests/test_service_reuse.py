"""Regression tests for the stale-state reuse bugs the service layer
flushed out.

Each test class pins one of the four bugfixes:

* estimators reused across queries with a different destination (or a
  different graph) must re-prepare instead of estimating against the
  stale target;
* ``LandmarkEstimator`` keys its preprocessing on the stable graph
  fingerprint, not ``id(graph)``, so mutated (or address-recycled)
  graphs can never serve old landmark tables;
* A* version 1's ``select_best`` returns the predecessor recorded in R
  instead of fabricating ``path=None``;
* ``make_estimator`` can name every estimator the codebase implements.
"""

import math

import pytest

from repro import kernel
from repro.kernel import csr
from repro.core.estimators import (
    LandmarkEstimator,
    ScaledEstimator,
    make_estimator,
)
from repro.core.planner import RoutePlanner
from repro.engine import RelationalGraph
from repro.engine.frontier import SeparateRelationFrontier, frontier_schema
from repro.engine.rel_bestfirst import run_astar
from repro.graphs.grid import make_grid, make_paper_grid
from repro.service.pool import default_landmarks

pytestmark = pytest.mark.service

#: (estimator spec name, constructor kwargs) for every registered estimator.
ESTIMATOR_SPECS = [
    ("zero", {}),
    ("euclidean", {}),
    ("manhattan", {}),
    ("landmark", {"landmarks": [(0, 0), (9, 0), (0, 9)]}),
]

ALGORITHMS = ["astar", "greedy", "dijkstra", "bidirectional", "iterative"]


def _fresh(name, kwargs):
    return make_estimator(name, **kwargs)


class TestEstimatorReuseAcrossDestinations:
    """Two consecutive queries, different destinations, one shared
    estimator instance — costs must match fresh-instance runs."""

    @pytest.mark.parametrize("name,kwargs", ESTIMATOR_SPECS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_shared_instance_matches_fresh(self, algorithm, name, kwargs):
        graph = make_paper_grid(10, "variance")
        shared = _fresh(name, kwargs)
        planner = RoutePlanner()
        queries = [((0, 0), (9, 9)), ((0, 0), (0, 9)), ((5, 5), (9, 0))]
        for source, destination in queries:
            reused = planner.plan(graph, source, destination, algorithm, shared)
            fresh = planner.plan(
                graph, source, destination, algorithm, _fresh(name, kwargs)
            )
            assert reused.found and fresh.found
            assert reused.cost == pytest.approx(fresh.cost), (
                f"{algorithm}/{name}: shared estimator returned "
                f"{reused.cost} for {source}->{destination}, fresh "
                f"instance returned {fresh.cost}"
            )

    @pytest.mark.parametrize("name,kwargs", ESTIMATOR_SPECS)
    def test_estimate_tracks_destination_switch(self, name, kwargs):
        """Direct unit: estimate() against dest B after preparing for A."""
        graph = make_grid(10)
        estimator = _fresh(name, kwargs)
        estimator.prepare(graph, (9, 9))
        estimator.estimate(graph, (4, 4), (9, 9))
        switched = estimator.estimate(graph, (4, 4), (0, 9))
        reference = _fresh(name, kwargs)
        reference.prepare(graph, (0, 9))
        assert switched == pytest.approx(reference.estimate(graph, (4, 4), (0, 9)))

    def test_shared_euclidean_stays_admissible_after_switch(self):
        """The original bug made h point at the old destination, which can
        overestimate for the new one and break A* optimality."""
        graph = make_paper_grid(12, "variance")
        shared = make_estimator("euclidean")
        planner = RoutePlanner()
        planner.plan(graph, (0, 0), (11, 11), "astar", shared)
        second = planner.plan(graph, (11, 0), (0, 0), "astar", shared)
        optimum = kernel.search(graph, (11, 0), (0, 0)).cost
        assert second.cost == pytest.approx(optimum)


class TestEstimatorReuseAcrossGraphs:
    @pytest.mark.parametrize("name,kwargs", ESTIMATOR_SPECS)
    def test_shared_instance_across_two_graphs(self, name, kwargs):
        graph_a = make_paper_grid(10, "variance", seed=1)
        graph_b = make_paper_grid(10, "variance", seed=2)
        shared = _fresh(name, kwargs)
        planner = RoutePlanner()
        for graph in (graph_a, graph_b, graph_a):
            reused = planner.plan(graph, (0, 0), (9, 9), "astar", shared)
            fresh = planner.plan(graph, (0, 0), (9, 9), "astar", _fresh(name, kwargs))
            assert reused.found and fresh.found
            assert reused.cost == pytest.approx(fresh.cost), (
                f"{name}: shared estimator returned {reused.cost} on "
                f"{graph.name}, fresh instance returned {fresh.cost}"
            )


class TestLandmarkFingerprintKeying:
    def test_preprocess_keyed_on_fingerprint_not_id(self):
        graph = make_grid(8)
        estimator = LandmarkEstimator([(0, 0), (7, 7)])
        estimator.prepare(graph, (7, 7))
        assert estimator._prepared_for == graph.fingerprint
        assert estimator._prepared_for != id(graph)

    def test_cost_update_invalidates_tables(self):
        """With ``id(graph)`` keying, a traffic update left the exact
        distances stale (same object, same id) and the estimator could
        overestimate — losing A* optimality. The fingerprint bump forces
        re-preprocessing."""
        graph = make_grid(8)
        estimator = LandmarkEstimator([(0, 0), (7, 0), (0, 7)])
        estimator.prepare(graph, (7, 7))
        before = dict(estimator._from_landmark[(0, 0)])
        # Traffic update: every edge triples; old tables now 3x too big
        # relative to nothing — they *overestimate* the new distances if
        # costs instead dropped, so drop them to a third.
        for edge in list(graph.edges()):
            graph.update_edge_cost(edge.source, edge.target, edge.cost / 3.0)
        planner = RoutePlanner()
        result = planner.plan(graph, (0, 0), (7, 7), "astar", estimator)
        optimum = kernel.search(graph, (0, 0), (7, 7)).cost
        assert result.cost == pytest.approx(optimum)
        assert estimator._prepared_for == graph.fingerprint
        after = estimator._from_landmark[(0, 0)]
        assert after[(7, 7)] == pytest.approx(before[(7, 7)] / 3.0)

    def test_estimate_admissible_after_update(self):
        graph = make_grid(6)
        estimator = LandmarkEstimator([(0, 0), (5, 5)])
        estimator.prepare(graph, (5, 5))
        for edge in list(graph.edges()):
            graph.update_edge_cost(edge.source, edge.target, edge.cost / 2.0)
        distances = csr.sssp(graph.reversed(), (5, 5))
        for node in graph.nodes():
            h = estimator.estimate(graph, node.node_id, (5, 5))
            assert h <= distances[node.node_id] + 1e-9


class TestSeparateFrontierSelectBest:
    """A* version 1's select_best must carry the predecessor from R."""

    def _frontier(self, rgraph, key_of=lambda node_id, path_cost: path_cost):
        R = rgraph.fresh_node_relation(populate=False)
        return SeparateRelationFrontier(
            rgraph.db.create_relation, R, rgraph.graph, rgraph.stats, key_of
        )

    def test_select_best_returns_recorded_predecessor(self):
        grid = make_grid(4)
        rgraph = RelationalGraph(grid)
        frontier = self._frontier(rgraph)
        frontier.open_node((0, 0), 0.0, None)
        best = frontier.select_best()
        assert best["node_id"] == (0, 0)
        frontier.close(best)
        frontier.relax((0, 1), 1.0, (0, 0))
        best = frontier.select_best()
        assert best["node_id"] == (0, 1)
        # The regression: this used to come back as None, dropping the
        # predecessor recorded by relax().
        assert best["path"] == (0, 0)
        assert best["path_cost"] == pytest.approx(1.0)

    def test_select_best_charges_the_r_lookup(self):
        grid = make_grid(4)
        rgraph = RelationalGraph(grid)
        frontier = self._frontier(rgraph)
        frontier.open_node((0, 0), 0.0, None)
        before = rgraph.stats.block_reads
        frontier.select_best()
        assert rgraph.stats.block_reads > before

    @pytest.mark.parametrize("k", [6, 10])
    def test_v1_paths_match_dijkstra_on_grid(self, k):
        """End-to-end regression: version-1 reconstructed paths agree
        with the in-memory Dijkstra reference on uniform grids (where
        euclidean is admissible, v1 must be optimal)."""
        grid = make_grid(k)
        rgraph = RelationalGraph(grid)
        reference = kernel.search(grid, (0, 0), (k - 1, k - 1))
        run = run_astar(rgraph, (0, 0), (k - 1, k - 1), version="v1")
        assert run.found
        assert run.cost == pytest.approx(reference.cost)
        assert grid.is_valid_path(run.path)
        assert grid.path_cost(run.path) == pytest.approx(reference.cost)
        assert run.path[0] == (0, 0) and run.path[-1] == (k - 1, k - 1)


class TestEstimatorFactoryRegistration:
    def test_landmark_constructible_by_name(self):
        estimator = make_estimator("landmark", landmarks=[(0, 0)])
        assert isinstance(estimator, LandmarkEstimator)
        assert estimator.name == "landmark"

    def test_weight_kwarg_wraps_in_scaled(self):
        estimator = make_estimator("manhattan", weight=1.5)
        assert isinstance(estimator, ScaledEstimator)
        assert estimator.name == "manhattan*1.5"

    def test_weight_one_returns_bare_estimator(self):
        assert not isinstance(make_estimator("euclidean", weight=1.0),
                              ScaledEstimator)

    def test_weighted_landmark(self):
        estimator = make_estimator("landmark", landmarks=[(0, 0)], weight=2.0)
        assert isinstance(estimator, ScaledEstimator)
        assert isinstance(estimator.inner, LandmarkEstimator)

    def test_unknown_kwarg_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="unknown keyword.*'speed'"):
            make_estimator("euclidean", speed=3)

    def test_landmark_without_landmarks_fails(self):
        with pytest.raises(TypeError):
            make_estimator("landmark")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            make_estimator("zero", weight=-0.5)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="landmark"):
            make_estimator("psychic")

    def test_default_landmarks_are_spread_and_deterministic(self):
        graph = make_grid(9)
        picked = default_landmarks(graph, count=4)
        assert picked == default_landmarks(graph, count=4)
        assert len(picked) == len(set(picked)) == 4
        assert (8, 8) in picked and (0, 0) in picked
