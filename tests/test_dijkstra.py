"""Tests for single-pair Dijkstra — Figure 2."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro import kernel
from repro.kernel import csr
from repro.graphs.grid import make_grid, make_paper_grid


class TestCorrectness:
    def test_finds_shortest_path(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "e")
        assert result.found
        assert result.path == ["a", "b", "c", "d", "e"]
        assert result.cost == pytest.approx(4.0)

    def test_source_equals_destination(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "a")
        assert result.found
        assert result.path == ["a"]
        assert result.iterations == 0

    def test_unreachable(self, disconnected_graph):
        result = kernel.search(disconnected_graph, "a", "z")
        assert not result.found

    def test_missing_nodes_raise(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            kernel.search(tiny_graph, "q", "e")

    def test_respects_direction(self, tiny_graph):
        """No path backwards along directed edges."""
        result = kernel.search(tiny_graph, "e", "a")
        assert not result.found


class TestTermination:
    def test_terminates_at_destination(self, grid10_uniform):
        """Unlike Iterative, Dijkstra stops early on close destinations."""
        near = kernel.search(grid10_uniform, (0, 0), (0, 1))
        assert near.iterations < grid10_uniform.node_count / 4

    def test_diagonal_expands_nearly_all_nodes(self):
        """Table 5: diagonal queries cost ~n-1 iterations."""
        graph = make_paper_grid(10, "variance")
        result = kernel.search(graph, (0, 0), (9, 9))
        assert result.iterations == graph.node_count - 1

    def test_iterations_grow_with_path_length(self, grid10_variance):
        horizontal = kernel.search(grid10_variance, (0, 0), (0, 9))
        diagonal = kernel.search(grid10_variance, (0, 0), (9, 9))
        assert horizontal.iterations < diagonal.iterations


class TestStats:
    def test_expanded_equals_iterations(self, grid10_uniform):
        result = kernel.search(grid10_uniform, (0, 0), (5, 5))
        assert result.stats.nodes_expanded == result.iterations

    def test_no_reopening_with_nonnegative_costs(self, grid10_variance):
        result = kernel.search(grid10_variance, (0, 0), (9, 9))
        assert result.stats.nodes_reopened == 0

    def test_algorithm_label(self, tiny_graph):
        assert kernel.search(tiny_graph, "a", "e").algorithm == "dijkstra"


class TestSSSP:
    def test_distances_match_single_pair(self, tiny_graph):
        distances = csr.sssp(tiny_graph, "a")
        for destination in "bcde":
            single = kernel.search(tiny_graph, "a", destination)
            assert distances[destination] == pytest.approx(single.cost)

    def test_cutoff_bounds_radius(self):
        graph = make_grid(8)
        near = csr.sssp(graph, (0, 0), cutoff=3.0)
        assert all(distance <= 3.0 for distance in near.values())
        assert (0, 3) in near
        assert (7, 7) not in near

    def test_missing_source_raises(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            csr.sssp(tiny_graph, "nope")
