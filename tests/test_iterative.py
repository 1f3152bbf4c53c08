"""Tests for the Iterative (BFS label-correcting) algorithm — Figure 1."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro import kernel
from repro.graphs.grid import make_grid, make_paper_grid


class TestCorrectness:
    def test_finds_shortest_path(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "e", "iterative")
        assert result.found
        assert result.path == ["a", "b", "c", "d", "e"]
        assert result.cost == pytest.approx(4.0)

    def test_source_equals_destination(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "a", "iterative")
        assert result.found
        assert result.path == ["a"]
        assert result.cost == 0.0

    def test_unreachable_destination(self, disconnected_graph):
        result = kernel.search(disconnected_graph, "a", "z", "iterative")
        assert not result.found
        assert result.path == []
        assert result.cost == float("inf")

    def test_missing_nodes_raise(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            kernel.search(tiny_graph, "nope", "e", "iterative")
        with pytest.raises(NodeNotFoundError):
            kernel.search(tiny_graph, "a", "nope", "iterative")

    def test_zero_cost_edges_handled(self):
        from repro.graphs.graph import Graph

        graph = Graph()
        for name in "abc":
            graph.add_node(name)
        graph.add_edge("a", "b", 0.0)
        graph.add_edge("b", "c", 0.0)
        result = kernel.search(graph, "a", "c", "iterative")
        assert result.found
        assert result.cost == 0.0


class TestIterationSemantics:
    def test_wave_count_is_2k_minus_1_on_uniform_grid(self):
        """Tables 5-7: the Iterative algorithm runs 2k-1 waves."""
        for k in (5, 8, 10):
            graph = make_grid(k)
            result = kernel.search(graph, (0, 0), (k - 1, k - 1), "iterative")
            assert result.iterations == 2 * k - 1

    def test_wave_count_is_path_insensitive(self):
        """Same wave count for every query pair (the paper's point)."""
        graph = make_paper_grid(10, "variance")
        diagonal = kernel.search(graph, (0, 0), (9, 9), "iterative")
        horizontal = kernel.search(graph, (0, 0), (0, 9), "iterative")
        assert diagonal.iterations == horizontal.iterations

    def test_explores_entire_graph(self, grid10_variance):
        """The Iterative algorithm cannot stop early: every node expanded."""
        result = kernel.search(grid10_variance, (0, 0), (0, 1), "iterative")
        unique_expanded = (
            result.stats.nodes_expanded - result.stats.nodes_reopened
        )
        assert unique_expanded == grid10_variance.node_count

    def test_reopening_happens_with_skewed_costs(self):
        """Skewed costs force revisits ('reopening a node and revising
        the path'), the paper's explanation for Table 7's iterative row."""
        graph = make_paper_grid(10, "skewed")
        result = kernel.search(graph, (0, 0), (9, 9), "iterative")
        assert result.stats.nodes_reopened > 0
        assert result.iterations > 2 * 10 - 1

    def test_iteration_guard(self, tiny_graph):
        with pytest.raises(RuntimeError):
            kernel.search(tiny_graph, "a", "e", "iterative", max_iterations=1)


class TestStats:
    def test_edges_relaxed_counts_all_adjacency_entries(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "e", "iterative")
        # Every edge inspected at least once from its settled source.
        assert result.stats.edges_relaxed >= tiny_graph.edge_count

    def test_frontier_peak_positive(self, grid10_uniform):
        result = kernel.search(grid10_uniform, (0, 0), (9, 9), "iterative")
        assert result.stats.max_frontier_size >= 2

    def test_algorithm_label(self, tiny_graph):
        assert kernel.search(tiny_graph, "a", "e", "iterative").algorithm == "iterative"
