"""Tests for the transitive-closure family and all-pairs algorithms."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure.allpairs import floyd_warshall_paths, repeated_dijkstra_paths
from repro.closure.reachability import (
    dfs_closure,
    logarithmic_closure,
    seminaive_closure,
    warren_closure,
    warshall_closure,
)
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.grid import make_grid, make_paper_grid

ALL_CLOSURES = (
    seminaive_closure,
    warshall_closure,
    warren_closure,
    logarithmic_closure,
    dfs_closure,
)


def chain_graph():
    return graph_from_edges([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])


def cycle_graph():
    return graph_from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])


class TestReachabilityBasics:
    @pytest.mark.parametrize("closure_func", ALL_CLOSURES)
    def test_chain(self, closure_func):
        result = closure_func(chain_graph())
        assert result.closure["a"] == frozenset({"b", "c", "d"})
        assert result.closure["d"] == frozenset()
        assert result.reaches("a", "d")
        assert not result.reaches("d", "a")

    @pytest.mark.parametrize("closure_func", ALL_CLOSURES)
    def test_cycle_reaches_itself(self, closure_func):
        result = closure_func(cycle_graph())
        for node in range(3):
            assert result.reaches(node, node)
        assert result.pair_count() == 9

    @pytest.mark.parametrize("closure_func", ALL_CLOSURES)
    def test_empty_edges(self, closure_func):
        graph = Graph()
        graph.add_node("solo")
        result = closure_func(graph)
        assert result.closure["solo"] == frozenset()

    @pytest.mark.parametrize("closure_func", ALL_CLOSURES)
    def test_matches_networkx_on_grid(self, closure_func):
        graph = make_grid(4)
        nxg = nx.DiGraph(
            (e.source, e.target) for e in graph.edges()
        )
        # TC convention: (u, u) is in the closure iff a non-empty cycle
        # returns to u — networkx's descendants() excludes that case.
        expected = {}
        for node in nxg.nodes:
            reachable = set(nx.descendants(nxg, node))
            if any(
                nx.has_path(nxg, successor, node)
                for successor in nxg.successors(node)
            ):
                reachable.add(node)
            expected[node] = frozenset(reachable)
        result = closure_func(graph)
        assert result.closure == expected

    def test_operation_counters_positive(self):
        graph = make_grid(4)
        for closure_func in ALL_CLOSURES:
            assert closure_func(graph).operations > 0


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        max_size=30,
    )
)
def test_property_all_closure_algorithms_agree(edges):
    graph = Graph()
    for node in range(9):
        graph.add_node(node)
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v, 1.0)
    results = [closure_func(graph).closure for closure_func in ALL_CLOSURES]
    assert all(result == results[0] for result in results)


class TestAllPairs:
    def test_floyd_warshall_matches_dijkstra_costs(self):
        graph = make_paper_grid(5, "variance")
        table = floyd_warshall_paths(graph)
        from repro.kernel import csr

        for source in [(0, 0), (2, 3)]:
            distances = csr.sssp(graph, source)
            for destination, expected in distances.items():
                assert table.cost(source, destination) == pytest.approx(expected)

    def test_repeated_dijkstra_matches_floyd_warshall(self):
        graph = make_paper_grid(4, "variance")
        fw = floyd_warshall_paths(graph)
        rd = repeated_dijkstra_paths(graph)
        for source in graph.node_ids():
            for destination in graph.node_ids():
                assert rd.cost(source, destination) == pytest.approx(
                    fw.cost(source, destination)
                )

    @pytest.mark.parametrize("builder", [floyd_warshall_paths, repeated_dijkstra_paths])
    def test_path_extraction_is_valid_and_optimal(self, builder):
        graph = make_paper_grid(4, "variance")
        table = builder(graph)
        for source in [(0, 0), (3, 0)]:
            for destination in [(3, 3), (0, 2)]:
                path = table.path(source, destination)
                assert path is not None
                assert graph.is_valid_path(path)
                assert graph.path_cost(path) == pytest.approx(
                    table.cost(source, destination)
                )

    def test_unreachable_pair(self, disconnected_graph):
        table = floyd_warshall_paths(disconnected_graph)
        assert math.isinf(table.cost("a", "z"))
        assert table.path("a", "z") is None

    def test_self_pair(self):
        table = floyd_warshall_paths(chain_graph())
        assert table.cost("a", "a") == 0.0
        assert table.path("a", "a") == ["a"]

    def test_missing_source_raises(self):
        from repro.exceptions import NodeNotFoundError

        table = floyd_warshall_paths(chain_graph())
        with pytest.raises(NodeNotFoundError):
            table.cost("nope", "a")

    def test_pair_count(self):
        table = floyd_warshall_paths(chain_graph())
        assert table.pair_count() == 6  # a->bcd, b->cd, c->d


class TestAblationNumbers:
    def test_single_pair_is_far_cheaper_than_any_closure(self):
        """The paper's motivation, as a hard assertion."""
        from repro import kernel
        from repro.core.estimators import ManhattanEstimator

        graph = make_paper_grid(10, "variance")
        single = kernel.search(
            graph, (0, 0), (9, 9), "astar", ManhattanEstimator()
        ).stats.edges_relaxed
        for builder in (floyd_warshall_paths, repeated_dijkstra_paths):
            assert builder(graph).operations > 20 * single
