"""K-shortest loopless paths (Yen's algorithm) — alternative routes.

An ATIS that can only name one route is brittle: the traveller may know
a road is blocked, prefer freeways, or want choices when travel times
are uncertain. Yen's algorithm generalizes the single-pair planners to
the K best loopless routes, reusing any registered planner as its
shortest-path subroutine (A* with a good estimator makes the spur
searches cheap — the same leverage the paper measures for K = 1).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro import kernel
from repro.exceptions import NodeNotFoundError, PlannerError
from repro.graphs.graph import Graph, NodeId
from repro.core.estimators import Estimator, ZeroEstimator
from repro.kernel.result import PathResult, SearchStats


def k_shortest_paths(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    k: int,
    estimator: Optional[Estimator] = None,
) -> List[PathResult]:
    """The up-to-``k`` cheapest loopless paths, cheapest first.

    Runs Yen's algorithm with A* spur searches (zero estimator by
    default, i.e. Dijkstra; pass a geometric estimator to focus them).
    The graph is copied internally, so edge removals during spur
    computation never touch the caller's graph. The estimator must be
    admissible for the results to be the true K best; with an
    inadmissible one the list is a good-but-unranked sample (same
    caveat as single-pair A*).

    Fewer than ``k`` results are returned when the graph has fewer
    loopless paths.
    """
    if k < 1:
        raise PlannerError(f"k must be at least 1, got {k}")
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    working = graph.copy()
    estimator = estimator if estimator is not None else ZeroEstimator()

    first = kernel.search(working, source, destination, "astar", estimator)
    if not first.found:
        return []
    accepted: List[PathResult] = [first]
    # Candidate heap entries: (cost, counter, path). The counter keeps
    # heap comparisons away from unorderable node ids.
    candidates: List[Tuple[float, int, List[NodeId]]] = []
    seen_paths = {tuple(first.path)}
    counter = 0

    while len(accepted) < k:
        previous_path = accepted[-1].path
        for spur_index in range(len(previous_path) - 1):
            spur_node = previous_path[spur_index]
            root_path = previous_path[: spur_index + 1]

            removed_edges: List[Tuple[NodeId, NodeId, float]] = []
            # Edges that would recreate an already-accepted path.
            for result in accepted:
                path = result.path
                if len(path) > spur_index and path[: spur_index + 1] == root_path:
                    u, v = path[spur_index], path[spur_index + 1]
                    if working.has_edge(u, v):
                        removed_edges.append((u, v, working.edge_cost(u, v)))
                        working.remove_edge(u, v)
            # Nodes on the root (except the spur) must not be revisited.
            removed_nodes: List[Tuple[NodeId, NodeId, float]] = []
            for node in root_path[:-1]:
                for neighbor, cost in list(working.neighbors(node)):
                    removed_nodes.append((node, neighbor, cost))
                    working.remove_edge(node, neighbor)
                for predecessor, cost in list(working.predecessors(node)):
                    removed_nodes.append((predecessor, node, cost))
                    working.remove_edge(predecessor, node)

            spur = kernel.search(working, spur_node, destination, "astar", estimator)
            if spur.found:
                total_path = root_path[:-1] + spur.path
                key = tuple(total_path)
                if key not in seen_paths:
                    seen_paths.add(key)
                    counter += 1
                    heapq.heappush(
                        candidates,
                        (graph.path_cost(total_path), counter, total_path),
                    )

            for u, v, cost in removed_edges + removed_nodes:
                working.add_edge(u, v, cost)

        if not candidates:
            break
        cost, _, path = heapq.heappop(candidates)
        accepted.append(
            PathResult(
                source=source,
                destination=destination,
                path=path,
                cost=cost,
                found=True,
                algorithm="yen-k-shortest",
                estimator=estimator.name,
                stats=SearchStats(),
            )
        )
    return accepted


def path_overlap(path_a: List[NodeId], path_b: List[NodeId]) -> float:
    """Edge-overlap fraction between two paths (0 = disjoint, 1 = same).

    Used to pick *diverse* alternatives: a second-best path sharing 95%
    of its edges with the best is not a useful suggestion to a driver.
    """
    edges_a = set(zip(path_a, path_a[1:]))
    edges_b = set(zip(path_b, path_b[1:]))
    if not edges_a or not edges_b:
        return 0.0
    return len(edges_a & edges_b) / min(len(edges_a), len(edges_b))


def diverse_alternatives(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    count: int = 3,
    max_overlap: float = 0.7,
    search_width: int = 12,
    estimator: Optional[Estimator] = None,
) -> List[PathResult]:
    """Up to ``count`` routes no two of which overlap more than
    ``max_overlap`` (edge-wise), drawn from the ``search_width`` best.

    Returns at least the optimal route whenever one exists.
    """
    if not 0 <= max_overlap <= 1:
        raise PlannerError("max_overlap must lie in [0, 1]")
    ranked = k_shortest_paths(
        graph, source, destination, search_width, estimator
    )
    chosen: List[PathResult] = []
    for candidate in ranked:
        if all(
            path_overlap(candidate.path, kept.path) <= max_overlap
            for kept in chosen
        ):
            chosen.append(candidate)
        if len(chosen) == count:
            break
    return chosen
