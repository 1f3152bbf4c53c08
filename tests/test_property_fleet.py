"""Property tests: fleet partition invariants on generated graphs.

tests/test_fleet_partition.py proves the cut invariants on fixed
grids; this module widens the net with Hypothesis-generated inputs —
both paper grids (the geometry the cut was designed for) and arbitrary
directed graphs with float coordinates, where cells can land empty and
the dense shard renumbering has to hold the invariants together:

* repeating a cut on unchanged graph state reproduces the identical
  partition (same ``signature``, same assignment, same cut);
* every parent node lands in exactly one shard;
* every parent edge is internal to exactly one shard XOR a cut edge.

It also holds the router to whole-graph Dijkstra on generated graphs
across chained traffic epochs — random digraphs with zero-cost edges,
tie-heavy uniform grids and a path that leaves its shard and re-enters
it — and checks that the dominance-pruned boundary overlay prices
every boundary pair exactly as the full clique does.
"""

from __future__ import annotations

import heapq
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetRouter
from repro.fleet.partition import partition_graph
from repro.fleet.router import CUT
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr
from repro.traffic.feed import TrafficFeed

pytestmark = [pytest.mark.fleet, pytest.mark.fleetchaos]

_COSTS = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
_COORDS = st.floats(min_value=-10, max_value=10, allow_nan=False)
_LAYOUTS = st.tuples(
    st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_digraphs(draw, max_nodes=16):
    """Arbitrary directed graphs; coordinate clumping leaves cells empty."""
    node_count = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = Graph(name="hypothesis-fleet")
    for index in range(node_count):
        graph.add_node(index, draw(_COORDS), draw(_COORDS))
    possible = [
        (u, v) for u in range(node_count) for v in range(node_count) if u != v
    ]
    chosen = (
        draw(
            st.lists(
                st.sampled_from(possible),
                max_size=3 * node_count,
                unique=True,
            )
        )
        if possible
        else []
    )
    for u, v in chosen:
        graph.add_edge(u, v, draw(_COSTS))
    return graph


@st.composite
def random_grids(draw):
    side = draw(st.integers(min_value=2, max_value=6))
    model = draw(st.sampled_from(["uniform", "variance"]))
    seed = draw(st.integers(min_value=0, max_value=999))
    return make_paper_grid(side, model, seed=seed)


def assert_partition_invariants(graph, rows, cols):
    partition = partition_graph(graph, rows, cols)
    # validate() re-checks the full structural contract internally.
    partition.validate()

    # Every node in exactly one shard.
    assigned = {}
    for shard in partition.shards:
        for node_id in shard.nodes:
            assert node_id not in assigned, (
                f"node {node_id!r} in shards {assigned[node_id]} "
                f"and {shard.shard_id}"
            )
            assigned[node_id] = shard.shard_id
    assert set(assigned) == set(graph.node_ids())

    # Dense shard ids 0..n-1 even when cells came up empty.
    assert [s.shard_id for s in partition.shards] == list(
        range(len(partition.shards))
    )

    # Every parent edge internal to exactly one shard XOR in the cut.
    cut = {(c.source, c.target) for c in partition.cut_edges}
    shard_by_id = {s.shard_id: s for s in partition.shards}
    for edge in graph.edges():
        key = (edge.source, edge.target)
        same_shard = assigned[edge.source] == assigned[edge.target]
        assert same_shard != (key in cut)
        if same_shard:
            owner = shard_by_id[assigned[edge.source]]
            assert owner.graph.edge_cost(edge.source, edge.target) == edge.cost
    return partition


class TestPartitionProperties:
    @_SETTINGS
    @given(graph=random_digraphs(), layout=_LAYOUTS)
    def test_invariants_on_random_digraphs(self, graph, layout):
        assert_partition_invariants(graph, *layout)

    @_SETTINGS
    @given(graph=random_grids(), layout=_LAYOUTS)
    def test_invariants_on_random_grids(self, graph, layout):
        assert_partition_invariants(graph, *layout)

    @_SETTINGS
    @given(graph=random_digraphs(), layout=_LAYOUTS)
    def test_signature_stable_across_repeated_cuts(self, graph, layout):
        rows, cols = layout
        first = partition_graph(graph, rows, cols)
        second = partition_graph(graph, rows, cols)
        assert first.signature == second.signature
        assert [s.nodes for s in first.shards] == [
            s.nodes for s in second.shards
        ]
        assert [
            (c.source, c.target) for c in first.cut_edges
        ] == [(c.source, c.target) for c in second.cut_edges]

    @_SETTINGS
    @given(graph=random_grids(), layout=_LAYOUTS)
    def test_signature_tracks_graph_state(self, graph, layout):
        rows, cols = layout
        before = partition_graph(graph, rows, cols).signature
        edge = next(iter(graph.edges()))
        graph.apply_cost_updates([(edge.source, edge.target, edge.cost + 1.0)])
        after = partition_graph(graph, rows, cols).signature
        assert before != after


def reentrant_graph():
    """a1 -> a2 is cheapest through b, in the other shard."""
    graph = Graph(name="reentry")
    graph.add_node("a1", 0.0, 0.0)
    graph.add_node("a2", 0.0, 1.0)
    graph.add_node("b", 2.0, 0.5)
    graph.add_edge("a1", "a2", 10.0)
    graph.add_edge("a1", "b", 1.0)
    graph.add_edge("b", "a2", 1.0)
    return graph


@st.composite
def fleet_cases(draw):
    """A graph, a layout and 1-3 chained epochs of absolute costs."""
    kind = draw(st.sampled_from(["digraph", "uniform-grid", "grid", "reentrant"]))
    if kind == "digraph":
        graph = draw(random_digraphs(max_nodes=12))
    elif kind == "uniform-grid":
        graph = make_paper_grid(draw(st.integers(2, 5)), "uniform")
    elif kind == "grid":
        graph = draw(random_grids())
    else:
        graph = reentrant_graph()
    layout = (1, 2) if kind == "reentrant" else draw(_LAYOUTS)
    edges = [(e.source, e.target) for e in graph.edges()]
    epochs = []
    if edges:
        for _ in range(draw(st.integers(1, 3))):
            picks = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=6))
            epochs.append([(u, v, draw(_COSTS)) for u, v in picks])
    return graph, layout, epochs


def overlay_distances(adjacency, source):
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    tie = itertools.count(1)
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, cost, _via in adjacency.get(u, ()):
            if d + cost < dist.get(v, float("inf")):
                dist[v] = d + cost
                heapq.heappush(heap, (d + cost, next(tie), v))
    return dist


def full_clique(router):
    """The unpruned overlay: every internal boundary pair plus cut edges."""
    adjacency = {}
    for (u, v), cost in router._cut_costs.items():
        adjacency.setdefault(u, []).append((v, cost, CUT))
    for spec in router.partition.shards:
        for b1 in spec.boundary:
            dist = csr.sssp(spec.graph, b1)
            for b2 in spec.boundary:
                if b2 != b1 and b2 in dist:
                    adjacency.setdefault(b1, []).append((b2, dist[b2], spec.shard_id))
    return adjacency


def assert_fleet_exact(graph, router):
    nodes = list(graph.node_ids())
    # Every pair twice: the second pass is served from the tree table.
    for source, destination in list(itertools.product(nodes, nodes)) * 2:
        result = router.plan(source, destination)
        reference = csr.uniform_cost(graph, source, destination)
        assert not result.shed
        assert result.found == reference.found, (source, destination)
        if reference.found:
            assert result.cost == pytest.approx(reference.cost, abs=1e-9)
            walked = sum(
                graph.edge_cost(a, b) for a, b in zip(result.path, result.path[1:])
            )
            assert result.path[0] == source and result.path[-1] == destination
            assert walked == pytest.approx(result.cost, abs=1e-9)
    pruned = router._overlay_for(router.version).adjacency
    full = full_clique(router)
    boundary = [b for spec in router.partition.shards for b in spec.boundary]
    for b1 in boundary:
        want = overlay_distances(full, b1)
        got = overlay_distances(pruned, b1)
        for b2 in boundary:
            assert got.get(b2, float("inf")) == pytest.approx(
                want.get(b2, float("inf")), abs=1e-9
            ), (b1, b2)


class TestRouterProperties:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=fleet_cases())
    def test_exact_across_chained_epochs(self, case):
        graph, (rows, cols), epochs = case
        router = FleetRouter(partition_graph(graph, rows, cols))
        feed = TrafficFeed(graph)
        feed.subscribe(router)
        try:
            assert_fleet_exact(graph, router)
            for updates in epochs:
                feed.apply(updates)
                assert_fleet_exact(graph, router)
        finally:
            router.shutdown()
