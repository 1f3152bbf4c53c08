"""RoutePlanner facade: one entry point over all single-pair algorithms.

This is the public API a downstream ATIS application uses::

    from repro import RoutePlanner, make_grid

    planner = RoutePlanner()
    result = planner.plan(make_grid(30), (0, 0), (29, 29), algorithm="astar",
                          estimator="manhattan")
    print(result.path, result.cost, result.iterations)

Algorithms are looked up in a registry so that extensions (bidirectional
search, greedy best-first, user-supplied planners) compose with the
experiment harness without modifying it.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import NodeNotFoundError, UnknownAlgorithmError
from repro.graphs.graph import Graph, NodeId
from repro import kernel
from repro.core.estimators import (
    Estimator,
    EuclideanEstimator,
    ManhattanEstimator,
    ScaledEstimator,
    ZeroEstimator,
    check_scale,
    make_estimator,
)
from repro.core.kshortest import diverse_alternatives, k_shortest_paths
from repro.kernel.result import PathResult, SearchStats, reconstruct_path

PlannerFunc = Callable[..., PathResult]


def greedy_best_first_search(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    estimator: Estimator,
) -> PathResult:
    """Pure greedy best-first: select by ``f(u, d)`` alone, ignore g.

    Included as the degenerate end of the speed/optimality spectrum —
    it finds *a* path extremely fast but with no quality bound, a useful
    baseline when the experiments quantify the trade-off the paper
    leaves as future work. Not a kernel configuration: it keeps no cost
    labels, so it falls outside the label-correcting protocol.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    estimator.prepare(graph, destination)
    stats = SearchStats()
    predecessor: Dict[NodeId, NodeId] = {}
    visited = {source}
    counter = 0
    heap = [(estimator.estimate(graph, source, destination), counter, source)]
    stats.frontier_inserts += 1
    found = False

    while heap:
        _, _, u = heapq.heappop(heap)
        if u == destination:
            found = True
            break
        stats.iterations += 1
        stats.nodes_expanded += 1
        stats.observe_frontier(len(heap))
        for v, _cost in graph.neighbors(u):
            stats.edges_relaxed += 1
            if v not in visited:
                visited.add(v)
                predecessor[v] = u
                counter += 1
                heapq.heappush(
                    heap, (estimator.estimate(graph, v, destination), counter, v)
                )
                stats.frontier_inserts += 1

    result = PathResult(
        source=source,
        destination=destination,
        algorithm="greedy",
        estimator=estimator.name,
        stats=stats,
    )
    if found:
        path = reconstruct_path(predecessor, source, destination)
        assert path is not None
        result.path = path
        result.cost = graph.path_cost(path)
        result.found = True
    return result


def _plan_greedy(
    graph: Graph, source: NodeId, destination: NodeId, estimator: Estimator,
    **options,
) -> PathResult:
    return greedy_best_first_search(graph, source, destination, estimator)


def _plan_kernel(algorithm: str) -> PlannerFunc:
    """The registry entry for one in-memory kernel configuration."""

    def plan(
        graph: Graph, source: NodeId, destination: NodeId, estimator: Estimator,
        **options,
    ) -> PathResult:
        return kernel.search(graph, source, destination, algorithm, estimator)

    return plan


def _ranked_result(
    source: NodeId,
    destination: NodeId,
    algorithm: str,
    estimator: Estimator,
    routes: List[PathResult],
) -> PathResult:
    """Fold a ranked route list into one result carrying alternatives.

    The best route doubles as the result itself (path/cost/stats), with
    the full ranking in ``alternatives`` — so ranked planners return
    the same :class:`PathResult` schema every other algorithm does and
    flow through the service cache unchanged. The registry name
    replaces the subroutine's algorithm label, which also keeps the
    service's provenance logic conservative (ranked answers carry no
    edge provenance and are evicted on any cost change).
    """
    if not routes:
        return PathResult(
            source=source,
            destination=destination,
            algorithm=algorithm,
            estimator=estimator.name,
        )
    return replace(routes[0], algorithm=algorithm, alternatives=list(routes))


def _plan_kshortest(
    graph: Graph, source: NodeId, destination: NodeId, estimator: Estimator,
    k: int = 3, **options,
) -> PathResult:
    routes = k_shortest_paths(graph, source, destination, k=k, estimator=estimator)
    return _ranked_result(source, destination, "kshortest", estimator, routes)


def _plan_diverse(
    graph: Graph, source: NodeId, destination: NodeId, estimator: Estimator,
    count: int = 3, max_overlap: float = 0.7, search_width: int = 12,
    **options,
) -> PathResult:
    routes = diverse_alternatives(
        graph,
        source,
        destination,
        count=count,
        max_overlap=max_overlap,
        search_width=search_width,
        estimator=estimator,
    )
    return _ranked_result(
        source, destination, "diverse_alternatives", estimator, routes
    )


class RoutePlanner:
    """Facade dispatching to registered single-pair path algorithms.

    The three paper algorithms are pre-registered under ``iterative``,
    ``dijkstra`` and ``astar``; the extensions under ``greedy``,
    ``bidirectional``, ``kshortest`` (Yen's K best routes, ``k=``
    option) and ``diverse_alternatives`` (low-overlap route choices,
    ``count=`` / ``max_overlap=`` / ``search_width=`` options) — the
    ranked planners return the best route with the full ranking in
    ``result.alternatives``. Custom algorithms can be registered with
    :meth:`register`; they receive ``(graph, source, destination,
    estimator, **options)`` and must return a :class:`PathResult`.

    The registry is guarded by a lock so a planner instance can be
    shared by concurrent server threads (:mod:`repro.service`); an
    optional ``estimator_pool`` (any object with ``acquire(name, graph)``
    / ``release(name, estimator)``) lets string estimator specs resolve
    to pooled, pre-prepared instances instead of a fresh object per
    query — the amortization that makes :class:`LandmarkEstimator`
    affordable in a serving loop.
    """

    def __init__(self, estimator_pool: Optional[object] = None) -> None:
        self._registry: Dict[str, PlannerFunc] = {}
        self._lock = threading.RLock()
        self.estimator_pool = estimator_pool
        for algorithm in kernel.IN_MEMORY_ALGORITHMS:
            self.register(algorithm, _plan_kernel(algorithm))
        self.register("greedy", _plan_greedy)
        self.register("kshortest", _plan_kshortest)
        self.register("diverse_alternatives", _plan_diverse)

    def register(self, name: str, func: PlannerFunc) -> None:
        """Add (or replace) an algorithm under ``name``."""
        if not name or not isinstance(name, str):
            raise ValueError("algorithm name must be a non-empty string")
        with self._lock:
            self._registry[name] = func

    def algorithms(self) -> Tuple[str, ...]:
        """Names of all registered algorithms, sorted."""
        with self._lock:
            return tuple(sorted(self._registry))

    def _resolve_estimator(
        self,
        estimator: "str | Estimator | None",
        weight: float,
        graph: Optional[Graph] = None,
    ) -> Tuple[Estimator, Optional[str]]:
        """Resolve a spec to an instance; the second element is the pool
        name to release it under afterwards (None when not pooled)."""
        check_scale(weight, "weight")  # before a pooled instance is taken
        pooled_name: Optional[str] = None
        if estimator is None:
            resolved: Estimator = EuclideanEstimator()
        elif isinstance(estimator, str):
            if self.estimator_pool is not None and graph is not None:
                resolved = self.estimator_pool.acquire(estimator, graph)
                pooled_name = estimator
            else:
                resolved = make_estimator(estimator)
        else:
            resolved = estimator
        if weight != 1.0:
            resolved = ScaledEstimator(resolved, weight)
        return resolved, pooled_name

    def plan(
        self,
        graph: Graph,
        source: NodeId,
        destination: NodeId,
        algorithm: str = "astar",
        estimator: "str | Estimator | None" = None,
        weight: float = 1.0,
        **options,
    ) -> PathResult:
        """Compute a route from ``source`` to ``destination``.

        Parameters
        ----------
        algorithm:
            Registered algorithm name (default ``astar``).
        estimator:
            Estimator name (``zero`` / ``euclidean`` / ``manhattan``) or
            instance; ignored by algorithms that take no estimator.
            Defaults to euclidean, the paper's always-admissible choice
            for distance-cost maps.
        weight:
            Optional estimator scaling (weighted A*); 1.0 is exact.
        options:
            Passed through to the registered planner function —
            e.g. ``k=5`` for ``kshortest``, ``count`` / ``max_overlap``
            / ``search_width`` for ``diverse_alternatives``.
        """
        with self._lock:
            func = self._registry.get(algorithm)
        if func is None:
            raise UnknownAlgorithmError(algorithm, self.algorithms())
        resolved, pooled_name = self._resolve_estimator(estimator, weight, graph)
        pooled_instance = resolved.inner if pooled_name and weight != 1.0 else resolved
        try:
            return func(graph, source, destination, resolved, **options)
        finally:
            if pooled_name is not None:
                self.estimator_pool.release(pooled_name, pooled_instance)

    def plan_paper_suite(
        self, graph: Graph, source: NodeId, destination: NodeId
    ) -> Dict[str, PathResult]:
        """Run the paper's three algorithms on one query.

        Returns results keyed ``iterative`` / ``dijkstra`` /
        ``astar-v3`` (A* with the manhattan estimator, the paper's best
        version), the combination every comparison table uses.
        """
        return {
            "iterative": self.plan(graph, source, destination, "iterative"),
            "dijkstra": self.plan(graph, source, destination, "dijkstra"),
            "astar-v3": self.plan(
                graph, source, destination, "astar", estimator="manhattan"
            ),
        }
