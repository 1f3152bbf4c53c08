"""Tests for the RoutePlanner facade."""

import pytest

from repro.exceptions import UnknownAlgorithmError
from repro.core.estimators import ManhattanEstimator
from repro.core.planner import RoutePlanner, default_planner, plan_route
from repro.kernel.result import PathResult


class TestDispatch:
    def test_default_algorithms_registered(self, planner):
        assert set(planner.algorithms()) >= {
            "iterative",
            "dijkstra",
            "astar",
            "greedy",
            "bidirectional",
        }

    @pytest.mark.parametrize(
        "algorithm", ["iterative", "dijkstra", "astar", "bidirectional"]
    )
    def test_all_optimal_algorithms_agree(self, planner, tiny_graph, algorithm):
        result = planner.plan(tiny_graph, "a", "e", algorithm)
        assert result.found
        assert result.cost == pytest.approx(4.0)

    def test_unknown_algorithm(self, planner, tiny_graph):
        with pytest.raises(UnknownAlgorithmError):
            planner.plan(tiny_graph, "a", "e", "quantum")

    def test_unknown_algorithm_lists_available(self, planner, tiny_graph):
        with pytest.raises(UnknownAlgorithmError) as info:
            planner.plan(tiny_graph, "a", "e", "quantum")
        assert "dijkstra" in str(info.value)


class TestEstimatorResolution:
    def test_estimator_by_name(self, planner, grid10_uniform):
        result = planner.plan(
            grid10_uniform, (0, 0), (9, 9), "astar", estimator="manhattan"
        )
        assert result.estimator == "manhattan"

    def test_estimator_instance(self, planner, grid10_uniform):
        result = planner.plan(
            grid10_uniform, (0, 0), (9, 9), "astar",
            estimator=ManhattanEstimator(),
        )
        assert result.estimator == "manhattan"

    def test_default_estimator_is_euclidean(self, planner, grid10_uniform):
        result = planner.plan(grid10_uniform, (0, 0), (9, 9), "astar")
        assert result.estimator == "euclidean"

    def test_weight_wraps_estimator(self, planner, grid10_uniform):
        result = planner.plan(
            grid10_uniform, (0, 0), (9, 9), "astar",
            estimator="manhattan", weight=2.0,
        )
        assert result.estimator == "manhattan*2"

    def test_bad_estimator_name(self, planner, tiny_graph):
        with pytest.raises(ValueError):
            planner.plan(tiny_graph, "a", "e", "astar", estimator="psychic")


class TestRegistration:
    def test_custom_algorithm(self, planner, tiny_graph):
        def fake(graph, source, destination, estimator):
            return PathResult(
                source=source, destination=destination,
                path=[source, destination], cost=0.0, found=True,
                algorithm="fake",
            )

        planner.register("fake", fake)
        assert planner.plan(tiny_graph, "a", "b", "fake").algorithm == "fake"

    def test_invalid_name_rejected(self, planner):
        with pytest.raises(ValueError):
            planner.register("", lambda *a: None)


class TestSuiteAndModuleHelpers:
    def test_paper_suite_keys(self, planner, grid10_variance):
        suite = planner.plan_paper_suite(grid10_variance, (0, 0), (9, 9))
        assert set(suite) == {"iterative", "dijkstra", "astar-v3"}
        costs = {result.cost for result in suite.values()}
        assert len(costs) == 1  # all optimal on a grid

    def test_plan_route_shortcut(self, tiny_graph):
        result = plan_route(tiny_graph, "a", "e", algorithm="dijkstra")
        assert result.cost == pytest.approx(4.0)

    def test_default_planner_is_cached(self):
        assert default_planner() is default_planner()
