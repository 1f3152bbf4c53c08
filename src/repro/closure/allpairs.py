"""Cost-aware all-pairs shortest paths — the closure family's analogue
for weighted route computation.

A reachability closure answers "is there a route"; ATIS needs "what is
the cheapest route". The all-pairs versions of that question are what a
precompute-everything architecture would maintain:

* :func:`floyd_warshall_paths` — the dynamic-programming triple loop
  (Warshall's weighted cousin);
* :func:`repeated_dijkstra_paths` — one single-source Dijkstra per node
  (the partial-transitive-closure route to all pairs).

Both return an :class:`AllPairsResult` that can answer any pair query
in O(path) time — which is exactly the proposition the paper argues
*against* for ATIS: the table costs O(n^2) memory and must be fully
recomputed whenever travel times change. The ablation experiment
(:mod:`repro.experiments.exp_closure_ablation`) prices that trade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId


@dataclass
class AllPairsResult:
    """Distance table plus next-hop matrix for path extraction."""

    distance: Dict[NodeId, Dict[NodeId, float]]
    next_hop: Dict[Tuple[NodeId, NodeId], NodeId]
    operations: int
    algorithm: str

    def cost(self, source: NodeId, destination: NodeId) -> float:
        """Shortest-path cost (inf when unreachable)."""
        row = self.distance.get(source)
        if row is None:
            raise NodeNotFoundError(source)
        return row.get(destination, math.inf)

    def path(self, source: NodeId, destination: NodeId) -> Optional[List[NodeId]]:
        """Extract the stored shortest path (None when unreachable)."""
        if source == destination:
            return [source]
        if not math.isfinite(self.cost(source, destination)):
            return None
        path = [source]
        current = source
        while current != destination:
            current = self.next_hop[(current, destination)]
            path.append(current)
            if len(path) > len(self.distance) + 1:
                raise RuntimeError("next-hop matrix is corrupt (cycle)")
        return path

    def pair_count(self) -> int:
        """Number of finite (u, v) entries with u != v."""
        return sum(
            1
            for source, row in self.distance.items()
            for destination, cost in row.items()
            if source != destination and math.isfinite(cost)
        )


def floyd_warshall_paths(graph: Graph) -> AllPairsResult:
    """All-pairs shortest paths by the Floyd-Warshall recurrence."""
    order = list(graph.node_ids())
    distance: Dict[NodeId, Dict[NodeId, float]] = {
        u: {u: 0.0} for u in order
    }
    next_hop: Dict[Tuple[NodeId, NodeId], NodeId] = {}
    for edge in graph.edges():
        current = distance[edge.source].get(edge.target, math.inf)
        if edge.cost < current:
            distance[edge.source][edge.target] = edge.cost
            next_hop[(edge.source, edge.target)] = edge.target

    operations = 0
    for pivot in order:
        pivot_row = distance[pivot]
        for source in order:
            source_row = distance[source]
            through = source_row.get(pivot, math.inf)
            if not math.isfinite(through) or source == pivot:
                continue
            for destination, tail in pivot_row.items():
                operations += 1
                candidate = through + tail
                if candidate < source_row.get(destination, math.inf):
                    source_row[destination] = candidate
                    next_hop[(source, destination)] = next_hop[
                        (source, pivot)
                    ]
    return AllPairsResult(
        distance=distance,
        next_hop=next_hop,
        operations=operations,
        algorithm="floyd-warshall",
    )


def repeated_dijkstra_paths(graph: Graph) -> AllPairsResult:
    """All-pairs shortest paths: one Dijkstra per source node."""
    distance: Dict[NodeId, Dict[NodeId, float]] = {}
    next_hop: Dict[Tuple[NodeId, NodeId], NodeId] = {}
    operations = 0
    for source in graph.node_ids():
        import heapq

        dist: Dict[NodeId, float] = {source: 0.0}
        first_hop: Dict[NodeId, NodeId] = {}
        heap = [(0.0, 0, source)]
        counter = 1
        settled = set()
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            for v, cost in graph.neighbors(u):
                operations += 1
                nd = d + cost
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    first_hop[v] = v if u == source else first_hop[u]
                    counter += 1
                    heapq.heappush(heap, (nd, counter, v))
        distance[source] = dist
        for destination, hop in first_hop.items():
            next_hop[(source, destination)] = hop
    # next_hop holds first hops; rewrite into the chained convention
    # used by path(): next_hop[(u, d)] is the node after u on u->d.
    chained: Dict[Tuple[NodeId, NodeId], NodeId] = {}
    for (source, destination), first in next_hop.items():
        chained[(source, destination)] = first
    result = AllPairsResult(
        distance=distance,
        next_hop=chained,
        operations=operations,
        algorithm="repeated-dijkstra",
    )
    return result
