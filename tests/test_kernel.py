"""Equivalence tests for the shared search kernel (:mod:`repro.kernel`).

Three layers of guarantees:

1. The kernel-routed planners (``core.dijkstra`` / ``core.astar`` /
   ``core.iterative``) reproduce the pre-kernel implementations
   bit-for-bit — cost, path *and* every statistics counter — on random
   grid and road graphs. The references below are verbatim copies of
   the seed loops, kept here as an executable specification.
2. The traced generic loop and the untraced fastpath report identical
   statistics (tracing must be observation, not perturbation).
3. The in-memory and relational backends select the same labels
   iteration by iteration: same ``(node, path_cost)`` pairs in the same
   order for the best-first family, the same per-wave label sets for
   Iterative (whose relational variant applies each wave as one batch
   REPLACE while the in-memory loop propagates sequentially — the two
   coincide on uniform costs).
4. The CSR flat-array tier (the one fused fast path) is
   byte-identical to the traced generic loop — found/cost/path and
   every counter — and both enforce iteration limits identically: a
   bounded run performs at most ``limit`` expansions, never
   ``limit + 1``; CSR SSSP matches the dict-of-dict
   :func:`~repro.kernel.reference_sssp` exactly.
"""

from __future__ import annotations

import heapq
import math

import pytest

from repro.core.estimators import (
    EuclideanEstimator,
    ManhattanEstimator,
    ZeroEstimator,
)
from repro.kernel.result import PathResult, SearchStats, reconstruct_path
from repro.engine import RelationalGraph
from repro.engine.rel_bestfirst import run_best_first, run_dijkstra
from repro.engine.rel_iterative import run_iterative
from repro.exceptions import UnknownAlgorithmError
from repro.graphs.grid import make_grid, make_paper_grid
from repro.graphs.random_graphs import (
    random_geometric_graph,
    random_sparse_directed,
)
from repro.exceptions import NodeNotFoundError
from repro.kernel import csr, reference_sssp, search


# ----------------------------------------------------------------------
# reference implementations (verbatim seed loops)
# ----------------------------------------------------------------------
def _reference_dijkstra(graph, source, destination):
    stats = SearchStats()
    cost = {source: 0.0}
    predecessor = {}
    explored = set()
    counter = 0
    heap = [(0.0, counter, source)]
    frontier_size = 1
    stats.frontier_inserts += 1
    found = False
    while heap:
        g, _, u = heapq.heappop(heap)
        if u in explored or g > cost.get(u, math.inf):
            continue
        frontier_size -= 1
        explored.add(u)
        if u == destination:
            found = True
            break
        stats.iterations += 1
        stats.nodes_expanded += 1
        stats.observe_frontier(frontier_size)
        for v, edge_cost in graph.neighbors(u):
            stats.edges_relaxed += 1
            if v in explored:
                continue
            candidate = g + edge_cost
            if candidate < cost.get(v, math.inf):
                newly_open = v not in cost
                cost[v] = candidate
                predecessor[v] = u
                stats.nodes_updated += 1
                counter += 1
                heapq.heappush(heap, (candidate, counter, v))
                if newly_open:
                    frontier_size += 1
                    stats.frontier_inserts += 1
    result = PathResult(
        source=source, destination=destination, algorithm="dijkstra", stats=stats
    )
    if found:
        result.path = reconstruct_path(predecessor, source, destination)
        result.cost = cost[destination]
        result.found = True
    return result


def _reference_astar(graph, source, destination, estimator):
    estimator.prepare(graph, destination)
    stats = SearchStats()
    cost = {source: 0.0}
    predecessor = {}
    explored = set()
    in_frontier = {source}
    counter = 0
    h_source = estimator.estimate(graph, source, destination)
    heap = [(h_source, h_source, counter, source, 0.0)]
    stats.frontier_inserts += 1
    found = False
    while heap:
        _f, _h, _, u, g_at_push = heapq.heappop(heap)
        if u not in in_frontier or g_at_push > cost.get(u, math.inf):
            continue
        in_frontier.discard(u)
        if u == destination:
            found = True
            break
        if u in explored:
            stats.nodes_reopened += 1
        explored.add(u)
        stats.iterations += 1
        stats.nodes_expanded += 1
        stats.observe_frontier(len(in_frontier))
        g = cost[u]
        for v, edge_cost in graph.neighbors(u):
            stats.edges_relaxed += 1
            candidate = g + edge_cost
            if candidate < cost.get(v, math.inf):
                cost[v] = candidate
                predecessor[v] = u
                stats.nodes_updated += 1
                h_v = estimator.estimate(graph, v, destination)
                counter += 1
                heapq.heappush(heap, (candidate + h_v, h_v, counter, v, candidate))
                if v not in in_frontier:
                    in_frontier.add(v)
                    stats.frontier_inserts += 1
    result = PathResult(
        source=source,
        destination=destination,
        algorithm="astar",
        estimator=estimator.name,
        stats=stats,
    )
    if found:
        result.path = reconstruct_path(predecessor, source, destination)
        result.cost = cost[destination]
        result.found = True
    return result


def _reference_iterative(graph, source, destination):
    stats = SearchStats()
    cost = {source: 0.0}
    predecessor = {}
    frontier = [source]
    ever_expanded = set()
    while frontier:
        stats.iterations += 1
        stats.observe_frontier(len(frontier))
        next_wave = []
        next_in_frontier = set()
        for u in frontier:
            stats.nodes_expanded += 1
            if u in ever_expanded:
                stats.nodes_reopened += 1
            ever_expanded.add(u)
            base = cost[u]
            for v, edge_cost in graph.neighbors(u):
                stats.edges_relaxed += 1
                candidate = base + edge_cost
                if candidate < cost.get(v, math.inf):
                    cost[v] = candidate
                    predecessor[v] = u
                    stats.nodes_updated += 1
                    if v not in next_in_frontier:
                        next_wave.append(v)
                        next_in_frontier.add(v)
                        stats.frontier_inserts += 1
        frontier = next_wave
    result = PathResult(
        source=source, destination=destination, algorithm="iterative", stats=stats
    )
    path = reconstruct_path(predecessor, source, destination)
    if path is not None and destination in cost:
        result.path = path
        result.cost = cost[destination]
        result.found = True
    return result


def _assert_same_run(actual, expected):
    assert actual.found == expected.found
    assert actual.cost == expected.cost
    assert actual.path == expected.path
    assert actual.stats == expected.stats


def _corner_pair(graph):
    nodes = sorted(graph.node_ids())
    return nodes[0], nodes[-1]


GRAPH_CASES = [
    make_paper_grid(9, "variance", seed=7),
    make_paper_grid(12, "uniform"),
    make_paper_grid(10, "skewed", seed=21),
    random_geometric_graph(120, radius=0.16, seed=3),
    random_sparse_directed(90, extra_edges=260, seed=11),
]


# ----------------------------------------------------------------------
# (1) kernel planners == seed reference implementations
# ----------------------------------------------------------------------
class TestKernelMatchesReference:
    @pytest.mark.parametrize("graph", GRAPH_CASES, ids=lambda g: g.name)
    def test_dijkstra(self, graph):
        source, destination = _corner_pair(graph)
        _assert_same_run(
            search(graph, source, destination),
            _reference_dijkstra(graph, source, destination),
        )

    @pytest.mark.parametrize("graph", GRAPH_CASES, ids=lambda g: g.name)
    @pytest.mark.parametrize(
        "estimator_cls", [ZeroEstimator, EuclideanEstimator, ManhattanEstimator]
    )
    def test_astar(self, graph, estimator_cls):
        source, destination = _corner_pair(graph)
        _assert_same_run(
            search(graph, source, destination, "astar", estimator=estimator_cls()),
            _reference_astar(graph, source, destination, estimator_cls()),
        )

    @pytest.mark.parametrize("graph", GRAPH_CASES, ids=lambda g: g.name)
    def test_iterative(self, graph):
        source, destination = _corner_pair(graph)
        _assert_same_run(
            search(graph, source, destination, "iterative"),
            _reference_iterative(graph, source, destination),
        )

    def test_unreachable(self, disconnected_graph):
        for algorithm in ("dijkstra", "astar", "iterative"):
            result = search(disconnected_graph, "a", "z", algorithm)
            assert not result.found
            assert result.path == []

    def test_sssp_matches_dijkstra_labels(self):
        graph = GRAPH_CASES[0]
        source, _ = _corner_pair(graph)
        distances = csr.sssp(graph, source)
        for node in graph.node_ids():
            single = search(graph, source, node)
            if single.found:
                assert distances[node] == pytest.approx(single.cost)

    def test_unknown_algorithm(self, tiny_graph):
        with pytest.raises(UnknownAlgorithmError):
            search(tiny_graph, "a", "e", algorithm="bellman-ford")


# ----------------------------------------------------------------------
# (2) traced generic loop == untraced fastpath
# ----------------------------------------------------------------------
class TestTraceIsPureObservation:
    @pytest.mark.parametrize("graph", GRAPH_CASES, ids=lambda g: g.name)
    @pytest.mark.parametrize("algorithm", ["dijkstra", "astar", "iterative"])
    def test_stats_identical(self, graph, algorithm):
        source, destination = _corner_pair(graph)
        estimator = EuclideanEstimator() if algorithm == "astar" else None
        fast = search(
            graph, source, destination, algorithm=algorithm, estimator=estimator
        )
        traced = search(
            graph,
            source,
            destination,
            algorithm=algorithm,
            estimator=estimator,
            trace=True,
        )
        _assert_same_run(traced, fast)
        assert not fast.trace
        assert len(traced.trace) == traced.iterations

    def test_trace_labels_are_selections(self, grid10_variance):
        source, destination = (0, 0), (9, 9)
        traced = search(
            grid10_variance, source, destination, algorithm="dijkstra", trace=True
        )
        # Best-first selections come off the frontier in nondecreasing
        # label order, starting at the source.
        labels = [record.labels[0] for record in traced.trace]
        assert labels[0] == (source, 0.0)
        costs = [path_cost for _, path_cost in labels]
        assert costs == sorted(costs)


# ----------------------------------------------------------------------
# (3) in-memory backend == relational backend, label by label
# ----------------------------------------------------------------------
class TestCrossBackendLabels:
    def _bestfirst_labels(self, result):
        return [record.labels for record in result.trace]

    @pytest.mark.parametrize("kind", ["dijkstra", "astar-euclidean"])
    def test_bestfirst_label_sequences_match(self, grid10_variance, kind):
        source, destination = (0, 0), (9, 9)
        rgraph = RelationalGraph(grid10_variance)
        if kind == "dijkstra":
            memory = search(
                grid10_variance, source, destination,
                algorithm="dijkstra", trace=True,
            )
            relational = run_dijkstra(rgraph, source, destination)
        else:
            memory = search(
                grid10_variance, source, destination,
                algorithm="astar", estimator=EuclideanEstimator(), trace=True,
            )
            relational = run_best_first(
                rgraph, source, destination,
                estimator=EuclideanEstimator(),
                frontier_kind="status-attribute",
            )
        assert relational.found and memory.found
        assert relational.cost == pytest.approx(memory.cost)
        assert relational.iterations == memory.iterations
        assert self._bestfirst_labels(relational) == self._bestfirst_labels(memory)

    def test_separate_relation_frontier_same_labels(self, grid10_variance):
        source, destination = (0, 0), (9, 9)
        memory = search(
            grid10_variance, source, destination,
            algorithm="astar", estimator=EuclideanEstimator(), trace=True,
        )
        relational = run_best_first(
            RelationalGraph(grid10_variance), source, destination,
            estimator=EuclideanEstimator(),
            frontier_kind="separate-relation",
        )
        assert self._bestfirst_labels(relational) == self._bestfirst_labels(memory)

    def test_iterative_waves_match_on_uniform_costs(self):
        # The relational Iterative applies each wave as one batch
        # REPLACE from wave-start labels; the in-memory loop propagates
        # improvements within a wave. On uniform costs every label is
        # final when first written, so the two semantics coincide and
        # the per-wave label sets must be identical.
        graph = make_grid(8)
        source, destination = (0, 0), (7, 7)
        memory = search(graph, source, destination, algorithm="iterative", trace=True)
        relational = run_iterative(RelationalGraph(graph), source, destination)
        assert relational.iterations == memory.iterations
        assert relational.cost == pytest.approx(memory.cost)
        for rel_record, mem_record in zip(relational.trace, memory.trace):
            assert set(rel_record.labels) == set(mem_record.labels)


# ----------------------------------------------------------------------
# (4) CSR tier == generic loop, including limit semantics
# ----------------------------------------------------------------------
class TestCSRTierEquivalence:
    @pytest.mark.parametrize("graph", GRAPH_CASES, ids=lambda g: g.name)
    @pytest.mark.parametrize(
        "algorithm,estimator_cls",
        [
            ("dijkstra", None),
            ("astar", ZeroEstimator),
            ("astar", EuclideanEstimator),
            ("astar", ManhattanEstimator),
            ("iterative", None),
        ],
    )
    def test_tiers_byte_identical(self, graph, algorithm, estimator_cls):
        source, destination = _corner_pair(graph)

        def run(**kwargs):
            estimator = estimator_cls() if estimator_cls else None
            return search(
                graph, source, destination,
                algorithm=algorithm, estimator=estimator, **kwargs,
            )

        _assert_same_run(run(), run(trace=True))

    def test_csr_unreachable(self, disconnected_graph):
        for algorithm in ("dijkstra", "astar", "iterative"):
            result = search(disconnected_graph, "a", "z", algorithm=algorithm)
            assert not result.found
            assert result.path == []
            assert result.cost == math.inf

    def test_csr_missing_nodes_raise_eagerly(self, tiny_graph):
        for algorithm in ("dijkstra", "astar", "iterative"):
            with pytest.raises(NodeNotFoundError):
                search(tiny_graph, "nope", "e", algorithm=algorithm)
            with pytest.raises(NodeNotFoundError):
                search(tiny_graph, "a", "nope", algorithm=algorithm)

    def test_sssp_csr_matches_reference(self):
        for graph in GRAPH_CASES:
            source, _ = _corner_pair(graph)
            full_csr = csr.sssp(graph, source)
            full_ref, _ = reference_sssp(graph, source)
            assert full_csr == full_ref
            cutoff = sorted(full_csr.values())[len(full_csr) // 2]
            assert csr.sssp(graph, source, cutoff=cutoff) == {
                node: d for node, d in full_ref.items() if d <= cutoff
            }

    @pytest.mark.parametrize("tier", ["csr", "generic"])
    @pytest.mark.parametrize("algorithm", ["astar", "iterative"])
    def test_exact_limit_is_enough(self, grid10_variance, tier, algorithm):
        """A bounded run performs at most ``limit`` expansions.

        Exactly the number of iterations the unbounded run needs must
        succeed; one fewer must raise — on both. (The historical
        fused loops enforced the bound only after expanding, so a run
        at the documented limit performed ``limit + 1`` expansions.)
        """
        source, destination = (0, 0), (9, 9)
        estimator = EuclideanEstimator() if algorithm == "astar" else None

        def run(max_iterations):
            return search(
                grid10_variance, source, destination, algorithm=algorithm,
                estimator=estimator, max_iterations=max_iterations,
                trace=tier == "generic",
            )

        need = run(None).stats.iterations
        bounded = run(need)
        assert bounded.found
        assert bounded.stats.iterations == need
        with pytest.raises(RuntimeError):
            run(need - 1)
