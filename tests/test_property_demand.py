"""Property-based tests: batch OD invariants on random graphs.

Hypothesis-generated directed graphs, with the skim matrix's algebra
as the properties: zone-order invariance, the reversal duality
(skimming the reversed graph transposes the matrix), select-link flow
tables as exact path-membership sums, and per-iteration demand
conservation in the assignment loop.

Costs are drawn as *integers* (stored as floats): the reversal duality
compares a path summed source→destination against the same path summed
destination→source, and float addition is not associative — integer
sums are exact, so any disagreement is a real bug, not an ulp.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.demand import assign, select_link, skim
from repro.graphs.graph import Graph
from repro.kernel import reference_sssp

import pytest

pytestmark = pytest.mark.demand

# Integer-valued costs: exact under float addition in any order.
_COSTS = st.integers(min_value=1, max_value=30)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_zones(draw, max_nodes=12):
    """A random digraph plus origin/destination zone lists (non-empty)."""
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    graph = Graph(name="hypothesis-demand")
    for index in range(node_count):
        graph.add_node(index, float(index % 4), float(index // 4))
    possible = [
        (u, v) for u in range(node_count) for v in range(node_count) if u != v
    ]
    chosen = draw(
        st.lists(
            st.sampled_from(possible), max_size=4 * node_count, unique=True
        )
    )
    for u, v in chosen:
        graph.add_edge(u, v, float(draw(_COSTS)))
    node_ids = st.integers(min_value=0, max_value=node_count - 1)
    origins = draw(st.lists(node_ids, min_size=1, max_size=5, unique=True))
    destinations = draw(
        st.lists(node_ids, min_size=1, max_size=5, unique=True)
    )
    return graph, origins, destinations


def _reference_path(graph, origin, destination):
    """Independent reference shortest path (None when unreachable)."""
    dist, pred = reference_sssp(graph, origin)
    if destination not in dist:
        return None
    path = [destination]
    node = destination
    while node != origin:
        node = pred[node]
        path.append(node)
    path.reverse()
    return path


@given(graph_and_zones())
@_SETTINGS
def test_skim_is_permutation_invariant(data):
    """Reordering zones permutes the matrix, never re-prices a cell."""
    graph, origins, destinations = data
    matrix = skim(graph, origins, destinations)
    shuffled = skim(
        graph, list(reversed(origins)), list(reversed(destinations))
    )
    for o in origins:
        for d in destinations:
            assert matrix.cost(o, d) == shuffled.cost(o, d)


@given(graph_and_zones())
@_SETTINGS
def test_skim_of_reversed_graph_is_the_transpose(data):
    """cost(o → d) on G equals cost(d → o) on reversed(G), exactly.

    Every o→d path in G is a d→o path in the reversed graph with the
    same edge multiset; integer costs make the two summation orders
    produce the same float, so the matrices must be exact transposes.
    """
    graph, origins, destinations = data
    forward = skim(graph, origins, destinations)
    backward = skim(graph.reversed(), destinations, origins)
    for o in origins:
        for d in destinations:
            assert forward.cost(o, d) == backward.cost(d, o)


@given(graph_and_zones(), st.integers(min_value=0, max_value=10 ** 6))
@_SETTINGS
def test_select_link_volume_is_exact_membership_sum(data, volume_seed):
    """A link's volume sums demand over exactly its traversing pairs."""
    graph, origins, destinations = data
    matrix = skim(graph, origins, destinations, retain_paths=True)
    used = sorted({e for _, _, edges in matrix.routes() for e in edges})
    if not used:
        return  # nothing reachable: nothing to analyse
    links = used[:3]
    demand = {}
    seed = volume_seed
    for o in origins:
        for d in destinations:
            if o != d:
                seed = (seed * 1103515245 + 12345) % (2 ** 31)
                demand[(o, d)] = 1.0 + (seed % 97)
    result = select_link(matrix, links, demand)
    for link in links:
        members = set()
        for (o, d) in demand:
            path = _reference_path(graph, o, d)
            if path and link in set(zip(path, path[1:])):
                members.add((o, d))
        flow = result.flow(link)
        assert set(flow.pairs) == members
        assert flow.volume == sum(demand[pair] for pair in members)


@given(graph_and_zones(), st.integers(min_value=2, max_value=6))
@_SETTINGS
def test_assignment_conserves_demand_every_iteration(data, iterations):
    """Node-level flow balance holds at every iterate, not just the last."""
    graph, origins, destinations = data
    demand = {}
    for o in origins:
        reachable, _ = reference_sssp(graph, o)
        for d in destinations:
            if d != o and d in reachable:
                demand[(o, d)] = 10.0 + 3.0 * ((o + d) % 5)
    result = assign(
        graph,
        demand,
        max_iterations=iterations,
        tolerance=1e-12,
        record_volumes=True,
    )
    total = sum(demand.values())
    assert result.demand_total == total
    for record in result.iterations:
        assert record.volumes is not None
        probe = type(result)(
            graph_name=result.graph_name,
            method=result.method,
            converged=True,
            relative_gap=0.0,
            tolerance=1e-12,
            volumes=record.volumes,
            costs={},
            free_flow={},
            capacity={},
            demand_total=total,
        )
        residual = probe.conservation_residual(demand)
        assert residual <= 1e-9 * max(1.0, total)
    # And the final volumes, too.
    assert result.conservation_residual(demand) <= 1e-9 * max(1.0, total)
    for volume in result.volumes.values():
        assert volume >= -1e-9
        assert math.isfinite(volume)
