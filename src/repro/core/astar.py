"""Best-first A* search — Figure 3 of the paper.

The representative of the *single-pair* class: each iteration selects
the frontier node minimising ``C(s,u) + f(u,d)`` where ``f`` is an
estimator of the remaining cost. With an admissible (never
overestimating) estimator the first selection of the destination yields
the optimal path (Lemma 3). The estimator focuses expansion towards the
destination, which is what lets A* terminate after a handful of
iterations on short or skew-favoured queries (Tables 6-8).

Two fidelity details from the paper's pseudo-code are preserved by the
kernel's heap frontier policy:

* the duplicate test is against the **frontier only** (``not_in(v,
  frontierSet)``) — an already-explored node whose label improves is
  re-inserted (*reopened*). With a consistent estimator this never
  happens; with an inadmissible one (manhattan on the Minneapolis map)
  it both happens and still fails to guarantee optimality, which the
  experiments measure as the optimality gap;
* ties on ``g + h`` are broken towards the node with the smaller
  estimate ``h`` (deepest progress towards the goal), then FIFO. This
  keeps uniform-cost grids cheap for A* — the behaviour behind the
  paper's Table 7 uniform-vs-variance contrast.

``astar_search`` is a thin configuration of :mod:`repro.kernel`: the
heap frontier policy plus an estimator, on the in-memory backend.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.core.estimators import Estimator, ZeroEstimator
from repro.kernel.result import PathResult, SearchStats, reconstruct_path
from repro.kernel import search


def astar_search(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    estimator: Optional[Estimator] = None,
    max_iterations: Optional[int] = None,
) -> PathResult:
    """Find a path from ``source`` to ``destination`` guided by ``estimator``.

    With an admissible estimator (zero, euclidean on distance-cost
    graphs, manhattan on uniform grids) the returned path is optimal.
    With an inadmissible estimator the path is a *good* path found
    quickly but possibly sub-optimal — the ATIS speed/optimality
    trade-off the paper closes on.

    ``max_iterations`` guards against pathological reopening cascades;
    the default allows |N|^2 expansions, far beyond anything the
    benchmark graphs trigger.
    """
    estimator = estimator if estimator is not None else ZeroEstimator()
    return search(
        graph,
        source,
        destination,
        algorithm="astar",
        estimator=estimator,
        max_iterations=max_iterations,
    )


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
