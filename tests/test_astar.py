"""Tests for A* best-first search — Figure 3."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro import kernel
from repro.core.planner import greedy_best_first_search
from repro.core.estimators import (
    EuclideanEstimator,
    ManhattanEstimator,
    ScaledEstimator,
    ZeroEstimator,
)
from repro.graphs.grid import make_grid, make_paper_grid


class TestCorrectness:
    def test_finds_shortest_path_with_euclidean(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "e", "astar", EuclideanEstimator())
        assert result.found
        assert result.cost == pytest.approx(4.0)

    def test_zero_estimator_matches_dijkstra_cost(self, grid10_variance):
        a = kernel.search(grid10_variance, (0, 0), (9, 9), "astar", ZeroEstimator())
        d = kernel.search(grid10_variance, (0, 0), (9, 9))
        assert a.cost == pytest.approx(d.cost)

    def test_default_estimator_is_zero(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "e", "astar")
        assert result.estimator == "zero"
        assert result.cost == pytest.approx(4.0)

    def test_source_equals_destination(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "a", "astar", EuclideanEstimator())
        assert result.found and result.path == ["a"]

    def test_unreachable(self, disconnected_graph):
        result = kernel.search(
            disconnected_graph, "a", "z", "astar", EuclideanEstimator()
        )
        assert not result.found

    def test_missing_nodes_raise(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            kernel.search(tiny_graph, "a", "nope", "astar", ZeroEstimator())

    def test_manhattan_optimal_on_uniform_grid(self):
        """Lemma 3 applies: manhattan is admissible on uniform grids."""
        graph = make_grid(9)
        a = kernel.search(graph, (0, 0), (8, 8), "astar", ManhattanEstimator())
        d = kernel.search(graph, (0, 0), (8, 8))
        assert a.cost == pytest.approx(d.cost)


class TestFocusing:
    def test_manhattan_explores_fewer_nodes_than_dijkstra(self):
        graph = make_paper_grid(15, "variance")
        a = kernel.search(graph, (0, 0), (0, 14), "astar", ManhattanEstimator())
        d = kernel.search(graph, (0, 0), (0, 14))
        assert a.iterations < d.iterations / 3

    def test_uniform_grid_straight_line_is_cheap(self):
        """Tie-breaking toward the goal keeps uniform grids cheap."""
        graph = make_grid(20)
        result = kernel.search(graph, (0, 0), (19, 19), "astar", ManhattanEstimator())
        assert result.iterations <= 2 * 2 * 19  # ~path length, not ~n

    def test_estimator_quality_ordering(self):
        """Better estimators expand no more nodes (manhattan <= euclid
        <= zero on a uniform grid)."""
        graph = make_grid(12)
        query = ((0, 0), (11, 11))
        zero = kernel.search(graph, *query, "astar", ZeroEstimator()).iterations
        euclid = kernel.search(graph, *query, "astar", EuclideanEstimator()).iterations
        manhattan = kernel.search(graph, *query, "astar", ManhattanEstimator()).iterations
        assert manhattan <= euclid <= zero


class TestInadmissible:
    def test_inflated_estimator_may_be_suboptimal_but_finds_path(
        self, grid10_variance
    ):
        heavy = ScaledEstimator(ManhattanEstimator(), 3.0)
        result = kernel.search(grid10_variance, (0, 0), (9, 9), "astar", heavy)
        optimal = kernel.search(grid10_variance, (0, 0), (9, 9))
        assert result.found
        assert result.cost >= optimal.cost - 1e-9
        assert grid10_variance.is_valid_path(result.path)

    def test_weighted_astar_is_faster(self, grid20_variance):
        exact = kernel.search(
            grid20_variance, (0, 0), (19, 19), "astar", ManhattanEstimator()
        )
        weighted = kernel.search(
            grid20_variance,
            (0, 0),
            (19, 19),
            "astar",
            ScaledEstimator(ManhattanEstimator(), 2.0),
        )
        assert weighted.iterations < exact.iterations

    def test_manhattan_on_road_map_never_beats_optimum(self, minneapolis):
        graph = minneapolis.graph
        source = minneapolis.landmark("A")
        destination = minneapolis.landmark("B")
        fast = kernel.search(graph, source, destination, "astar", ManhattanEstimator())
        optimal = kernel.search(graph, source, destination)
        assert fast.found
        assert fast.cost >= optimal.cost - 1e-9

    def test_iteration_guard(self, grid10_variance):
        with pytest.raises(RuntimeError):
            kernel.search(
                grid10_variance,
                (0, 0),
                (9, 9),
                "astar",
                ZeroEstimator(),
                max_iterations=3,
            )


class TestGreedy:
    def test_finds_a_valid_path(self, grid10_variance):
        result = greedy_best_first_search(
            grid10_variance, (0, 0), (9, 9), ManhattanEstimator()
        )
        assert result.found
        assert grid10_variance.is_valid_path(result.path)

    def test_cost_is_path_cost(self, grid10_variance):
        result = greedy_best_first_search(
            grid10_variance, (0, 0), (9, 9), ManhattanEstimator()
        )
        assert result.cost == pytest.approx(
            grid10_variance.path_cost(result.path)
        )

    def test_fewer_iterations_than_astar(self, grid20_variance):
        greedy = greedy_best_first_search(
            grid20_variance, (0, 0), (19, 19), ManhattanEstimator()
        )
        exact = kernel.search(
            grid20_variance, (0, 0), (19, 19), "astar", ManhattanEstimator()
        )
        assert greedy.iterations <= exact.iterations

    def test_unreachable(self, disconnected_graph):
        result = greedy_best_first_search(
            disconnected_graph, "a", "z", EuclideanEstimator()
        )
        assert not result.found
