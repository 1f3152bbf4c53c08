"""Property-based tests: planner invariants on random graphs.

The reference oracle is networkx's Dijkstra; every optimal planner in
the library must agree with it on arbitrary non-negative-cost directed
graphs, and a stack of structural invariants must hold for any result.
"""

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.kernel import csr
from repro.core.estimators import EuclideanEstimator, ZeroEstimator
from repro.graphs.graph import Graph

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_COSTS = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def random_graphs(draw, max_nodes=12):
    """A random directed graph with coordinates and non-negative costs."""
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    graph = Graph(name="hypothesis")
    for index in range(node_count):
        x = draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
        y = draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
        graph.add_node(index, x, y)
    possible = [
        (u, v) for u in range(node_count) for v in range(node_count) if u != v
    ]
    chosen = draw(
        st.lists(st.sampled_from(possible), max_size=4 * node_count, unique=True)
    )
    for u, v in chosen:
        graph.add_edge(u, v, draw(_COSTS))
    source = draw(st.integers(min_value=0, max_value=node_count - 1))
    destination = draw(st.integers(min_value=0, max_value=node_count - 1))
    return graph, source, destination


def _to_networkx(graph: Graph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(graph.node_ids())
    for edge in graph.edges():
        nxg.add_edge(edge.source, edge.target, weight=edge.cost)
    return nxg


def _reference_cost(graph: Graph, source, destination):
    nxg = _to_networkx(graph)
    try:
        return nx.dijkstra_path_length(nxg, source, destination)
    except nx.NetworkXNoPath:
        return None


_SETTINGS = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


# ----------------------------------------------------------------------
# optimality vs the networkx oracle
# ----------------------------------------------------------------------
@given(random_graphs())
@_SETTINGS
def test_dijkstra_matches_networkx(case):
    graph, source, destination = case
    expected = _reference_cost(graph, source, destination)
    result = kernel.search(graph, source, destination)
    if expected is None:
        assert not result.found
    else:
        assert result.found
        assert result.cost == pytest.approx(expected)


@given(random_graphs())
@_SETTINGS
def test_iterative_matches_networkx(case):
    graph, source, destination = case
    expected = _reference_cost(graph, source, destination)
    result = kernel.search(graph, source, destination, "iterative")
    if expected is None:
        assert not result.found
    else:
        assert result.found
        assert result.cost == pytest.approx(expected)


@given(random_graphs())
@_SETTINGS
def test_astar_zero_estimator_matches_networkx(case):
    graph, source, destination = case
    expected = _reference_cost(graph, source, destination)
    result = kernel.search(graph, source, destination, "astar", ZeroEstimator())
    if expected is None:
        assert not result.found
    else:
        assert result.found
        assert result.cost == pytest.approx(expected)


@given(random_graphs())
@_SETTINGS
def test_bidirectional_matches_networkx(case):
    graph, source, destination = case
    expected = _reference_cost(graph, source, destination)
    result = kernel.search(graph, source, destination, "bidirectional")
    if expected is None:
        assert not result.found
    else:
        assert result.found
        assert result.cost == pytest.approx(expected)


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------
@given(random_graphs())
@_SETTINGS
def test_found_paths_are_valid_and_costed(case):
    graph, source, destination = case
    for algorithm in ("dijkstra", "iterative", "bidirectional"):
        result = kernel.search(graph, source, destination, algorithm)
        if result.found:
            assert result.path[0] == source
            assert result.path[-1] == destination
            assert graph.is_valid_path(result.path)
            assert graph.path_cost(result.path) == pytest.approx(result.cost)
        else:
            assert result.path == []
            assert math.isinf(result.cost)


@given(random_graphs())
@_SETTINGS
def test_euclidean_astar_never_beats_optimum(case):
    """Even when geometry makes euclidean inadmissible, a found path's
    cost can never be below the true optimum."""
    graph, source, destination = case
    expected = _reference_cost(graph, source, destination)
    result = kernel.search(graph, source, destination, "astar", EuclideanEstimator())
    if expected is None:
        assert not result.found
    else:
        assert result.found
        assert result.cost >= expected - 1e-6
        assert graph.path_cost(result.path) == pytest.approx(result.cost)


@given(random_graphs())
@_SETTINGS
def test_sssp_is_consistent_with_single_pair(case):
    graph, source, _destination = case
    distances = csr.sssp(graph, source)
    # Triangle inequality over edges: settled labels admit no relaxation.
    for edge in graph.edges():
        if edge.source in distances:
            assert distances.get(edge.target, math.inf) <= (
                distances[edge.source] + edge.cost + 1e-9
            )
