"""Tests for bidirectional Dijkstra (the extension planner)."""

import pytest

from repro import kernel
from repro.graphs.grid import make_grid, make_paper_grid
from repro.graphs.random_graphs import random_sparse_directed


class TestCorrectness:
    def test_tiny_graph(self, tiny_graph):
        result = kernel.search(tiny_graph, "a", "e", "bidirectional")
        assert result.found
        assert result.cost == pytest.approx(4.0)
        assert tiny_graph.is_valid_path(result.path)

    def test_source_equals_destination(self, tiny_graph):
        result = kernel.search(tiny_graph, "b", "b", "bidirectional")
        assert result.found and result.path == ["b"] and result.cost == 0.0

    def test_unreachable(self, disconnected_graph):
        assert not kernel.search(disconnected_graph, "a", "z", "bidirectional").found

    def test_matches_dijkstra_on_grids(self, grid10_variance):
        for destination in ((9, 9), (0, 9), (5, 3)):
            bi = kernel.search(grid10_variance, (0, 0), destination, "bidirectional")
            uni = kernel.search(grid10_variance, (0, 0), destination)
            assert bi.found == uni.found
            assert bi.cost == pytest.approx(uni.cost)
            assert grid10_variance.path_cost(bi.path) == pytest.approx(uni.cost)

    def test_matches_dijkstra_on_directed_random_graphs(self):
        for seed in range(5):
            graph = random_sparse_directed(40, 80, seed=seed)
            bi = kernel.search(graph, 0, 20, "bidirectional")
            uni = kernel.search(graph, 0, 20)
            assert bi.cost == pytest.approx(uni.cost)


class TestEfficiency:
    def test_fewer_expansions_than_unidirectional(self):
        graph = make_grid(25)
        bi = kernel.search(graph, (0, 0), (24, 24), "bidirectional")
        uni = kernel.search(graph, (0, 0), (24, 24))
        assert bi.stats.nodes_expanded < uni.stats.nodes_expanded

    def test_path_is_reconstructed_through_meeting_point(self):
        graph = make_paper_grid(12, "variance")
        result = kernel.search(graph, (0, 0), (11, 11), "bidirectional")
        assert result.path[0] == (0, 0)
        assert result.path[-1] == (11, 11)
        assert graph.path_cost(result.path) == pytest.approx(result.cost)
