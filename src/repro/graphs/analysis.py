"""Whole-graph analysis helpers used by experiments and tests.

The paper reasons about graphs through a few aggregate quantities —
diameter (hop and cost), degree distribution, connectivity — and its
central hypothesis is phrased in them: "estimator functions can improve
the average-case performance of single-pair path computation when the
length of the path is small compared to the diameter of the graph."
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.kernel import csr


@dataclass(frozen=True)
class DegreeStatistics:
    """Out-degree distribution summary."""

    minimum: int
    maximum: int
    average: float
    histogram: Tuple[Tuple[int, int], ...]  # (degree, node count)


def degree_statistics(graph: Graph) -> DegreeStatistics:
    """Min / max / mean out-degree and the degree histogram."""
    if graph.node_count == 0:
        return DegreeStatistics(0, 0, 0.0, ())
    degrees = [graph.degree(node_id) for node_id in graph.node_ids()]
    histogram: Dict[int, int] = {}
    for degree in degrees:
        histogram[degree] = histogram.get(degree, 0) + 1
    return DegreeStatistics(
        minimum=min(degrees),
        maximum=max(degrees),
        average=sum(degrees) / len(degrees),
        histogram=tuple(sorted(histogram.items())),
    )


def reachable_from(graph: Graph, source: NodeId) -> Set[NodeId]:
    """All nodes reachable from ``source`` by directed edges."""
    if source not in graph:
        raise NodeNotFoundError(source)
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _cost in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def is_strongly_connected(graph: Graph) -> bool:
    """True when every node reaches every other (directed)."""
    if graph.node_count == 0:
        return True
    start = next(graph.node_ids())
    if len(reachable_from(graph, start)) != graph.node_count:
        return False
    return len(reachable_from(graph.reversed(), start)) == graph.node_count


def weakly_connected_components(graph: Graph) -> List[Set[NodeId]]:
    """Components ignoring edge direction, largest first."""
    undirected: Dict[NodeId, Set[NodeId]] = {
        node_id: set() for node_id in graph.node_ids()
    }
    for edge in graph.edges():
        undirected[edge.source].add(edge.target)
        undirected[edge.target].add(edge.source)
    components: List[Set[NodeId]] = []
    unvisited = set(undirected)
    while unvisited:
        start = unvisited.pop()
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in undirected[u]:
                if v in unvisited:
                    unvisited.discard(v)
                    component.add(v)
                    queue.append(v)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def hop_eccentricity(graph: Graph, source: NodeId) -> int:
    """Maximum hop distance from ``source`` to any reachable node."""
    if source not in graph:
        raise NodeNotFoundError(source)
    depth = {source: 0}
    queue = deque([source])
    farthest = 0
    while queue:
        u = queue.popleft()
        for v, _cost in graph.neighbors(u):
            if v not in depth:
                depth[v] = depth[u] + 1
                farthest = max(farthest, depth[v])
                queue.append(v)
    return farthest


def hop_diameter(graph: Graph, sample: Optional[int] = None) -> int:
    """Largest hop eccentricity (exact, or over a node sample).

    Exact diameter is O(n * (n + m)); for the 1089-node road map that
    is still fast, but ``sample`` allows bounding the work on larger
    graphs (evenly spaced sample in insertion order, deterministic).
    """
    node_ids = list(graph.node_ids())
    if not node_ids:
        return 0
    if sample is not None and sample < len(node_ids):
        step = max(1, len(node_ids) // sample)
        node_ids = node_ids[::step]
    return max(hop_eccentricity(graph, node_id) for node_id in node_ids)


def cost_radius(graph: Graph, source: NodeId) -> float:
    """Maximum shortest-path cost from ``source`` (inf if unreachable
    nodes exist is NOT signalled — only reachable nodes count)."""
    distances = csr.sssp(graph, source)
    return max(distances.values()) if distances else 0.0


def path_length_ratio(graph: Graph, source: NodeId, destination: NodeId) -> float:
    """Hop distance between the pair divided by the graph's hop diameter.

    The paper's hypothesis variable: A* wins when this ratio is small.
    Returns ``nan`` when the destination is unreachable.
    """
    depth = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == destination:
            break
        for v, _cost in graph.neighbors(u):
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    if destination not in depth:
        return math.nan
    diameter = hop_diameter(graph, sample=16)
    return depth[destination] / diameter if diameter else math.nan
