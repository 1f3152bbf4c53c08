"""Property tests: the CSR fused loops and the generic loop are indistinguishable.

tests/test_kernel.py proves their equivalence on five fixed graphs;
this module widens the net with Hypothesis-generated directed graphs
and — crucially — a deliberately *inconsistent* estimator, which is
what forces A* to reopen explored nodes. Reopening is where the two
are most likely to diverge (the frontier-membership test, the
``nodes_reopened`` counter, and the order reopened nodes re-enter the
heap all depend on implementation details), so every counter **and**
the per-iteration ``observe_frontier`` sequence must match between the
CSR fused loop and the traced generic loop.
"""

from __future__ import annotations

import zlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ZeroEstimator,
    make_estimator,
)
from repro.graphs.graph import Graph
from repro.kernel import csr, reference_sssp, search
from repro.kernel.result import SearchStats

_COSTS = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def random_graphs(draw, max_nodes=12):
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    graph = Graph(name="hypothesis-kernel")
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


class InconsistentEstimator:
    """Deterministic, admissibility-free lookahead.

    Hashes the node id to a pseudo-random value in ``[0, scale)``.
    Neighboring nodes get unrelated estimates, so the consistency
    inequality ``h(u) <= cost(u, v) + h(v)`` fails all over the graph
    and A* must reopen explored nodes to stay label-correcting.
    """

    name = "inconsistent"

    def __init__(self, scale: float = 40.0) -> None:
        self.scale = scale

    def prepare(self, graph, destination) -> None:
        pass

    def estimate(self, graph, node, destination) -> float:
        if node == destination:
            return 0.0
        digest = zlib.crc32(repr(node).encode("utf-8"))
        return self.scale * (digest % 997) / 997.0


class DoubledEuclidean(EuclideanEstimator):
    """Overrides ``estimate`` but not ``bind``.

    The dense form it inherits would read plain Euclidean distance and
    bypass the override, so :func:`csr.potential` must wrap
    ``estimate`` instead. Doubling also makes it inadmissible, so A*
    may reopen nodes with it.
    """

    name = "doubled"

    def estimate(self, graph, node, destination) -> float:
        return 2.0 * super().estimate(graph, node, destination)


def _weighted_euclidean():
    return make_estimator("euclidean", weight=1.5)


def _observed(graph, source, destination, estimator_factory, **kwargs):
    """Run one search recording the observe_frontier call sequence."""
    observations = []
    original = SearchStats.observe_frontier

    def recording(self, size):
        observations.append(size)
        return original(self, size)

    SearchStats.observe_frontier = recording
    try:
        result = search(
            graph, source, destination,
            algorithm="astar", estimator=estimator_factory(), **kwargs,
        )
    finally:
        SearchStats.observe_frontier = original
    return result, observations


def _stats_tuple(result):
    s = result.stats
    return (
        result.found, result.cost, result.path, s.iterations,
        s.nodes_expanded, s.edges_relaxed, s.nodes_updated,
        s.frontier_inserts, s.nodes_reopened, s.max_frontier_size,
    )


_SETTINGS = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


@given(
    random_graphs(),
    st.sampled_from([
        InconsistentEstimator,
        EuclideanEstimator,
        ManhattanEstimator,
        _weighted_euclidean,
        DoubledEuclidean,
    ]),
)
@_SETTINGS
def test_tiers_agree_counter_for_counter(case, estimator_factory):
    graph, source, destination = case
    csr_run, csr_seen = _observed(graph, source, destination, estimator_factory)
    generic_run, generic_seen = _observed(
        graph, source, destination, estimator_factory, trace=True
    )
    assert _stats_tuple(csr_run) == _stats_tuple(generic_run)
    assert csr_seen == generic_seen


class TableEstimator:
    """Fixed per-node estimates — the smallest inconsistency exhibit."""

    name = "table"

    def __init__(self, table) -> None:
        self.table = table

    def prepare(self, graph, destination) -> None:
        pass

    def estimate(self, graph, node, destination) -> float:
        return self.table.get(node, 0.0)


def test_reopening_parity_on_deterministic_case():
    """A hand-built inconsistency forces exactly the reopen sequence:

    ``a`` pops first with the bad label (h(a)=0 vs h(b)=15 hides the
    cheap detour), then ``b`` improves it, then ``a`` re-enters the
    frontier and pops again — ``nodes_reopened`` must be positive and
    identical on the CSR loop and the generic loop.
    """
    graph = Graph(name="reopen")
    for node in ("s", "a", "b", "t"):
        graph.add_node(node)
    graph.add_edge("s", "a", 10.0)
    graph.add_edge("s", "b", 2.0)
    graph.add_edge("b", "a", 1.0)
    graph.add_edge("a", "t", 10.0)
    make = lambda: TableEstimator({"a": 0.0, "b": 15.0, "t": 0.0})

    csr_run, csr_seen = _observed(graph, "s", "t", make)
    generic_run, generic_seen = _observed(graph, "s", "t", make, trace=True)
    assert csr_run.stats.nodes_reopened > 0
    assert csr_run.found and csr_run.cost == 13.0
    assert _stats_tuple(csr_run) == _stats_tuple(generic_run)
    assert csr_seen == generic_seen


def _transposed(graph: Graph) -> Graph:
    """``graph`` with every edge reversed, each node's edges in the CSR
    transpose's order (by the source's position in ``graph``)."""
    transposed = Graph(name="transposed")
    for node in graph.node_ids():
        transposed.add_node(node, *graph.coordinates(node))
    for u in graph.node_ids():
        for v, cost in graph.neighbors(u):
            transposed.add_edge(v, u, cost)
    return transposed


def _as_reference(snapshot, dist, pred):
    """A dense ``sssp_tree`` result in :func:`reference_sssp`'s dict form."""
    node_ids = snapshot.node_ids
    reached = [i for i, d in enumerate(dist) if d != float("inf")]
    return (
        {node_ids[i]: dist[i] for i in reached},
        {node_ids[i]: None if pred[i] == -1 else node_ids[pred[i]] for i in reached},
    )


@given(
    random_graphs(),
    st.lists(
        st.lists(st.tuples(st.integers(min_value=0), _COSTS), min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    ),
)
@_SETTINGS
def test_trees_on_derived_snapshots_equal_the_reference(case, epochs):
    """Forward and reverse ``sssp_tree`` on every snapshot of a chain of
    cost epochs (each derived from the last, rows patched in place of a
    rebuild) equal :func:`reference_sssp` in ``dist`` and ``pred``; so do
    a :class:`LandmarkEstimator`'s from- and to-landmark tables, built
    with at most one snapshot build per graph state."""
    graph, source, destination = case
    landmarks = list(dict.fromkeys((source, destination)))
    edges = [(e.source, e.target) for e in graph.edges()]
    base = csr.csr_for(graph)
    base.reverse_rows()
    for number in range(len(epochs) + 1):
        if number and edges:
            graph.apply_cost_updates(
                [(*edges[pick % len(edges)], cost) for pick, cost in epochs[number - 1]]
            )
        builds = csr.cache_stats()["builds"]
        estimator = LandmarkEstimator(landmarks)
        estimator.preprocess(graph)
        assert csr.cache_stats()["builds"] - builds <= 1  # no reversed copy
        flipped = graph.reversed()
        for mark in landmarks:
            assert estimator._from_landmark[mark] == reference_sssp(graph, mark)[0]
            assert estimator._to_landmark[mark] == reference_sssp(flipped, mark)[0]
        snapshot, dist, pred = csr.sssp_tree(graph, source)
        assert snapshot.fingerprint == graph.fingerprint
        assert snapshot.indices is base.indices  # derived, not rebuilt
        assert _as_reference(snapshot, dist, pred) == reference_sssp(graph, source)
        _, dist, pred = csr.sssp_tree(graph, source, reverse=True)
        assert _as_reference(snapshot, dist, pred) == reference_sssp(
            _transposed(graph), source
        )


@given(
    random_graphs(),
    st.lists(
        st.lists(st.tuples(st.integers(min_value=0), _COSTS), min_size=1, max_size=8),
        max_size=3,
    ),
)
@_SETTINGS
def test_dense_potentials_equal_estimate(case, epochs):
    """Every estimator's dense form, :func:`csr.potential`, returns
    bit for bit the float ``estimate`` returns, for every node, on a
    fresh snapshot and on each snapshot of a chain of cost epochs
    derived from it. The derived snapshots share the coordinate lists.
    Landmark tables (exact distances) and a subclass that overrides
    ``estimate`` below ``bind`` go through the wrapped ``estimate``."""
    graph, source, destination = case
    edges = [(e.source, e.target) for e in graph.edges()]
    estimators = [
        ZeroEstimator(),
        EuclideanEstimator(cost_per_unit=0.7),
        ManhattanEstimator(),
        _weighted_euclidean(),
        LandmarkEstimator(list(dict.fromkeys((source, destination)))),
        DoubledEuclidean(),
    ]
    base = csr.csr_for(graph)
    for number in range(len(epochs) + 1):
        if number and edges:
            graph.apply_cost_updates(
                [(*edges[pick % len(edges)], cost) for pick, cost in epochs[number - 1]]
            )
        snapshot = csr.csr_for(graph)
        assert snapshot.fingerprint == graph.fingerprint
        assert snapshot.coordinates(graph) is base.coordinates(graph)
        node_ids = snapshot.node_ids
        for estimator in estimators:
            h = csr.potential(estimator, snapshot, graph, destination)
            dense = [h(i).hex() for i in range(snapshot.node_count)]
            expected = [
                estimator.estimate(graph, node, destination).hex()
                for node in node_ids
            ]
            assert dense == expected, estimator


@st.composite
def repair_cases(draw):
    """A graph and chained cost epochs for :func:`csr.repair_tree`.

    Half the graphs are uniform grids, where shortest paths tie
    everywhere; epoch costs mix arbitrary floats with 0 and 1, so
    increases, decreases, zero-cost edges and fresh ties all occur.
    """
    if draw(st.booleans()):
        graph, source, _ = draw(random_graphs())
    else:
        side = draw(st.integers(min_value=2, max_value=5))
        graph = Graph(name="tie-grid")
        for r in range(side):
            for c in range(side):
                graph.add_node((r, c), float(c), float(r))
        for r in range(side):
            for c in range(side):
                for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                    if 0 <= r + dr < side and 0 <= c + dc < side:
                        graph.add_edge((r, c), (r + dr, c + dc), 1.0)
        source = (draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1)))
    costs = st.one_of(_COSTS, st.sampled_from([0.0, 1.0, 2.0]))
    epochs = draw(
        st.lists(
            st.lists(st.tuples(st.integers(min_value=0), costs), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        )
    )
    extra = draw(st.lists(st.integers(min_value=0), max_size=4))
    return graph, source, epochs, extra


def _assert_shortest_path_tree(graph, root, dist, pred, reverse):
    """``pred`` links every reached node to ``root`` by edges whose
    costs add up to ``dist`` exactly, with no cycle."""
    snapshot = csr.csr_for(graph)
    node_ids = snapshot.node_ids
    for i, d in enumerate(dist):
        if d == float("inf"):
            assert pred[i] == -1
            continue
        steps = 0
        j = i
        while pred[j] != -1:
            p = pred[j]
            u, v = (node_ids[j], node_ids[p]) if reverse else (node_ids[p], node_ids[j])
            assert dist[p] + graph.edge_cost(u, v) == dist[j]
            j = p
            steps += 1
            assert steps <= len(dist)
        assert node_ids[j] == root and dist[j] == 0.0


def _children(pred):
    """Each parent's children, rebuilt from ``pred``."""
    children = {}
    for v, p in enumerate(pred):
        if p != -1:
            children.setdefault(p, set()).add(v)
    return children


def _assert_child_index(pred, first, sibling):
    """``first`` / ``sibling`` list exactly each node's children."""
    assert len(first) == len(sibling) == len(pred)
    listed = {}
    for p, c in enumerate(first):
        steps = 0
        while c != -1:
            assert c not in listed.get(p, set())
            listed.setdefault(p, set()).add(c)
            c = sibling[c]
            steps += 1
            assert steps <= len(pred)
    assert listed == _children(pred)


def _bits(dist):
    return [d.hex() for d in dist]


@given(repair_cases())
@_SETTINGS
def test_repaired_trees_equal_fresh_trees(case):
    """:func:`csr.repair_tree` after chained mixed epochs: ``dist`` is a
    fresh :func:`csr.sssp_tree`'s bit for bit in both directions, every
    ``pred`` chain is a shortest path, and the returned child index
    lists exactly the children ``pred`` names. One tree is repaired
    each epoch, another once from all the epochs' changes, each with a
    ``changed`` set padded with edges that did not change."""
    graph, root, epochs, extra = case
    edges = [(e.source, e.target) for e in graph.edges()]
    for reverse in (False, True):
        first_tree = csr.tree_index(*csr.sssp_tree(graph, root, reverse=reverse)[1:])
        _assert_child_index(*first_tree[1:])
        chained = first_tree
        pending = []
        for epoch in epochs:
            if not edges:
                break
            updates = [(*edges[pick % len(edges)], cost) for pick, cost in epoch]
            graph.apply_cost_updates(updates)
            snapshot = csr.csr_for(graph)
            index_of = snapshot.index_of
            changed = [(index_of[u], index_of[v]) for u, v, _ in updates]
            changed += [
                (index_of[u], index_of[v])
                for u, v in (edges[pick % len(edges)] for pick in extra)
            ]
            pending += changed
            before = [list(part) for part in chained]
            _, *repaired = csr.repair_tree(graph, *chained, changed, reverse=reverse)
            assert [list(part) for part in chained] == before  # inputs untouched
            dist, pred, first, sibling = repaired
            _, fresh_dist, _ = csr.sssp_tree(graph, root, reverse=reverse)
            assert _bits(dist) == _bits(fresh_dist)
            _assert_shortest_path_tree(graph, root, dist, pred, reverse)
            _assert_child_index(pred, first, sibling)
            chained = repaired
        _, dist, pred, first, sibling = csr.repair_tree(
            graph, *first_tree, pending, reverse=reverse
        )
        _, fresh_dist, _ = csr.sssp_tree(graph, root, reverse=reverse)
        assert _bits(dist) == _bits(fresh_dist)
        _assert_shortest_path_tree(graph, root, dist, pred, reverse)
        _assert_child_index(pred, first, sibling)
