"""Directed graph with coordinates and edge costs.

This is the in-memory graph substrate shared by every layer of the
reproduction: the paper's Section 2 defines a graph ``G = (N, E, C)``
where every node carries planar coordinates (used by the A* estimator
functions) and every edge carries a non-negative real cost.

The class is deliberately simple and explicit: adjacency is a dict of
dicts, nodes are hashable ids (the experiments use ints and strings),
and every mutation validates its inputs eagerly so that the planners can
assume a consistent graph.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.exceptions import (
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    InvalidEdgeCostError,
    NegativeEdgeCostError,
    NodeNotFoundError,
)
from repro.graphs.gate import EpochGate

NodeId = object

#: Process-wide monotone counter backing :attr:`Graph.uid`. Unlike
#: ``id()``, values are never recycled after garbage collection, so a
#: ``(uid, version)`` pair is a stable identity for caches keyed on
#: graph state (estimator preprocessing, query-result caches).
_GRAPH_UIDS = itertools.count(1)


@dataclass(frozen=True)
class Node:
    """A graph node: an id plus planar coordinates.

    Coordinates are required because the paper's estimator functions
    (euclidean and manhattan distance, Section 5.3) are defined on node
    positions; graphs without meaningful geometry can use ``(0.0, 0.0)``
    and restrict themselves to the zero estimator.
    """

    node_id: NodeId
    x: float = 0.0
    y: float = 0.0

    def euclidean_distance(self, other: "Node") -> float:
        """Straight-line distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_distance(self, other: "Node") -> float:
        """L1 (city-block) distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)


def _validated_cost(source: NodeId, target: NodeId, cost: float) -> float:
    """Coerce and validate one edge cost: finite and non-negative.

    ``cost < 0`` alone is not enough — it is False for NaN, which would
    let a bad traffic reading poison every path cost downstream.
    """
    cost = float(cost)
    if not math.isfinite(cost):
        raise InvalidEdgeCostError(source, target, cost)
    if cost < 0:
        raise NegativeEdgeCostError(source, target, cost)
    return cost


@dataclass(frozen=True)
class Edge:
    """A directed edge ``source -> target`` with a non-negative cost."""

    source: NodeId
    target: NodeId
    cost: float

    def __post_init__(self) -> None:
        _validated_cost(self.source, self.target, self.cost)


class CostDelta(NamedTuple):
    """One applied edge-cost change within a traffic epoch.

    An immutable record with value equality, hash and repr. A full-map
    epoch builds one per edge, so it is a named tuple: constructing one
    costs less than half of a frozen dataclass's generated ``__init__``.
    """

    source: NodeId
    target: NodeId
    old_cost: float
    new_cost: float

    @property
    def decreased(self) -> bool:
        """True when the change can open *new* cheaper paths elsewhere."""
        return self.new_cost < self.old_cost


class Graph:
    """A directed graph ``G = (N, E, C)`` per Section 2 of the paper.

    Nodes are added with coordinates; edges with costs. Undirected road
    segments are stored as two directed edges (:meth:`add_undirected_edge`),
    exactly as the paper stores "two directed-edge entries in S for each
    undirected edge".

    The graph exposes the vocabulary the planners need: ``neighbors``,
    ``edge_cost``, ``degree``, plus whole-graph statistics used by the
    experiment harness.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[NodeId, Node] = {}
        self._adjacency: Dict[NodeId, Dict[NodeId, float]] = {}
        self._reverse: Dict[NodeId, Dict[NodeId, float]] = {}
        self._edge_count = 0
        self._uid = next(_GRAPH_UIDS)
        self._version = 0
        self._last_cost_change: Optional[Tuple[int, Tuple[CostDelta, ...]]] = None
        #: Shared by queries, exclusive for cost epochs (:mod:`~repro.graphs.gate`).
        self.gate = EpochGate()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def uid(self) -> int:
        """Process-unique graph id (never recycled, unlike ``id()``)."""
        return self._uid

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every structural or cost change."""
        return self._version

    @property
    def fingerprint(self) -> Tuple[int, int]:
        """Stable ``(uid, version)`` identity of the graph's current state.

        Two fingerprints compare equal iff they were taken from the same
        graph object with no mutation in between — the key that caches
        of derived state (landmark tables, query results) must use.
        """
        return (self._uid, self._version)

    @property
    def last_cost_change(self) -> Optional[Tuple[int, Tuple[CostDelta, ...]]]:
        """``(from_version, deltas)`` of the latest cost-only change.

        Recorded by :meth:`update_edge_cost` and
        :meth:`apply_cost_updates` just before their version bump, and
        cleared by every structural edit. When ``from_version + 1`` is
        the current version, ``deltas`` turn the state at
        ``from_version`` into the current one — what lets derived state
        (the CSR snapshot) advance by the deltas instead of rebuilding.
        """
        return self._last_cost_change

    @contextmanager
    def _cost_epoch(self) -> Iterator[None]:
        """Write one cost epoch alone and publish one version bump."""
        with self.gate.exclusive():
            yield
            self._version += 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, x: float = 0.0, y: float = 0.0) -> Node:
        """Add a node; raise :class:`DuplicateNodeError` if it exists."""
        if node_id in self._nodes:
            raise DuplicateNodeError(node_id)
        node = Node(node_id, float(x), float(y))
        self._nodes[node_id] = node
        self._adjacency[node_id] = {}
        self._reverse[node_id] = {}
        self._last_cost_change = None
        self._version += 1
        return node

    def add_edge(self, source: NodeId, target: NodeId, cost: float) -> Edge:
        """Add a directed edge; both endpoints must already exist.

        Re-adding an existing edge overwrites its cost (the ATIS use case:
        travel times are dynamic and get refreshed from traffic feeds).
        """
        if source not in self._nodes:
            raise NodeNotFoundError(source)
        if target not in self._nodes:
            raise NodeNotFoundError(target)
        if source == target:
            raise GraphError(f"self-loop on node {source!r} is not allowed")
        cost = _validated_cost(source, target, cost)
        if target not in self._adjacency[source]:
            self._edge_count += 1
        self._adjacency[source][target] = cost
        self._reverse[target][source] = cost
        self._last_cost_change = None
        self._version += 1
        return Edge(source, target, cost)

    def add_undirected_edge(
        self, u: NodeId, v: NodeId, cost: float
    ) -> Tuple[Edge, Edge]:
        """Add both directed edges for an undirected road segment."""
        return self.add_edge(u, v, cost), self.add_edge(v, u, cost)

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        """Remove a directed edge; raise if absent."""
        try:
            del self._adjacency[source][target]
            del self._reverse[target][source]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None
        self._edge_count -= 1
        self._last_cost_change = None
        self._version += 1

    def update_edge_cost(self, source: NodeId, target: NodeId, cost: float) -> None:
        """Refresh the cost of an existing edge (dynamic travel times)."""
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        cost = _validated_cost(source, target, cost)
        with self._cost_epoch():
            old = self._adjacency[source][target]
            self._adjacency[source][target] = cost
            self._reverse[target][source] = cost
            self._last_cost_change = (
                self._version,
                (CostDelta(source, target, old, cost),),
            )

    def apply_cost_updates(
        self, updates: Iterable[Tuple[NodeId, NodeId, float]]
    ) -> List[CostDelta]:
        """Apply a batch of edge-cost refreshes as one *epoch*.

        The whole batch is validated up front (missing edges, negative
        or non-finite costs) before any write, so one bad entry rejects
        the batch. Validation looks each edge's adjacency row up once
        and keeps it; the batch is then written in order under
        ``gate.exclusive()`` in one pass, each entry compared against
        the row's current value. A refresh equal to that value is a
        no-op and yields no delta, and an edge repeated in the batch is
        judged against the value the batch itself set. All effective
        changes share a **single** version bump: a traffic feed of ten
        thousand deltas retires exactly one fingerprint, not ten
        thousand. Returns the effective :class:`CostDelta` records; a
        batch with no effective change leaves the fingerprint
        untouched.
        """
        adjacency = self._adjacency
        staged: List[Tuple[NodeId, NodeId, Dict[NodeId, float], float]] = []
        for source, target, cost in updates:
            row = adjacency.get(source)
            if row is None or target not in row:
                raise EdgeNotFoundError(source, target)
            staged.append((source, target, row, _validated_cost(source, target, cost)))
        deltas: List[CostDelta] = []
        with self.gate.exclusive():
            reverse = self._reverse
            for source, target, row, cost in staged:
                current = row[target]
                if current != cost:
                    deltas.append(CostDelta(source, target, current, cost))
                    row[target] = cost
                    reverse[target][source] = cost
            if deltas:
                self._last_cost_change = (self._version, tuple(deltas))
                self._version += 1
        return deltas

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

    @property
    def node_count(self) -> int:
        """Number of nodes, |N|."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of directed edges, |E|."""
        return self._edge_count

    def node(self, node_id: NodeId) -> Node:
        """Return the :class:`Node` record; raise if absent."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        return source in self._adjacency and target in self._adjacency[source]

    def edge_cost(self, source: NodeId, target: NodeId) -> float:
        """Cost C(u, v) of a directed edge; raise if absent."""
        try:
            return self._adjacency[source][target]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def neighbors(self, node_id: NodeId) -> Iterator[Tuple[NodeId, float]]:
        """Return an iterator of ``(neighbor, cost)`` pairs — the paper's
        adjacency list.

        Pairs come in insertion order, which makes planner traces
        deterministic for a deterministically built graph. The
        missing-node check runs eagerly at the call (not lazily at the
        first ``next()``), so callers that never iterate still see
        :class:`NodeNotFoundError` raised where the bad id was passed.
        """
        try:
            items = self._adjacency[node_id].items()
        except KeyError:
            raise NodeNotFoundError(node_id) from None
        return iter(items)

    def predecessors(self, node_id: NodeId) -> Iterator[Tuple[NodeId, float]]:
        """Return an iterator of ``(predecessor, cost)`` incoming-edge
        pairs; the missing-node check runs eagerly at the call."""
        try:
            items = self._reverse[node_id].items()
        except KeyError:
            raise NodeNotFoundError(node_id) from None
        return iter(items)

    def degree(self, node_id: NodeId) -> int:
        """Out-degree — the paper's "number of neighboring nodes"."""
        if node_id not in self._adjacency:
            raise NodeNotFoundError(node_id)
        return len(self._adjacency[node_id])

    def nodes(self) -> Iterator[Node]:
        """Yield all node records in insertion order."""
        yield from self._nodes.values()

    def node_ids(self) -> Iterator[NodeId]:
        """Yield all node ids in insertion order."""
        yield from self._nodes.keys()

    def edges(self) -> Iterator[Edge]:
        """Yield all directed edges in insertion order."""
        for source, targets in self._adjacency.items():
            for target, cost in targets.items():
                yield Edge(source, target, cost)

    def coordinates(self, node_id: NodeId) -> Tuple[float, float]:
        """Return ``(x, y)`` of a node."""
        node = self.node(node_id)
        return node.x, node.y

    # ------------------------------------------------------------------
    # statistics and helpers
    # ------------------------------------------------------------------
    def average_degree(self) -> float:
        """Mean out-degree |A| over all nodes (0 for an empty graph)."""
        if not self._nodes:
            return 0.0
        return self._edge_count / len(self._nodes)

    def path_cost(self, path: Iterable[NodeId]) -> float:
        """Sum of edge costs along ``path``; raises if an edge is missing.

        A path of zero or one nodes costs 0.0.
        """
        total = 0.0
        previous: Optional[NodeId] = None
        for node_id in path:
            if node_id not in self._nodes:
                raise NodeNotFoundError(node_id)
            if previous is not None:
                total += self.edge_cost(previous, node_id)
            previous = node_id
        return total

    def is_valid_path(self, path: List[NodeId]) -> bool:
        """True if consecutive nodes of ``path`` are joined by edges."""
        if not path:
            return False
        if any(node_id not in self._nodes for node_id in path):
            return False
        return all(
            self.has_edge(u, v) for u, v in zip(path, path[1:])
        )

    def subgraph(
        self, node_ids: Iterable[NodeId], name: Optional[str] = None
    ) -> "Graph":
        """Return the induced subgraph on ``node_ids`` as a new graph.

        The copy is complete and independent: node coordinates and the
        costs of every edge with both endpoints in ``node_ids`` are
        copied, and the new graph carries a **fresh uid** (and version
        0 history), so caches keyed on :attr:`fingerprint` can never
        alias the parent's state. Mutating either graph leaves the
        other untouched — the property the fleet partitioner relies on
        when shards absorb traffic epochs independently.

        Nodes and edges are emitted in the parent's insertion order
        (not the order of ``node_ids``), so two calls with the same
        member set build structurally identical graphs. Requesting an
        unknown node raises :class:`NodeNotFoundError`; duplicates in
        ``node_ids`` are tolerated.
        """
        keep = set(node_ids)
        for node_id in keep:
            if node_id not in self._nodes:
                raise NodeNotFoundError(node_id)
        sub = Graph(name=name if name is not None else f"{self.name}-sub")
        for node in self._nodes.values():
            if node.node_id in keep:
                sub.add_node(node.node_id, node.x, node.y)
        for source, targets in self._adjacency.items():
            if source not in keep:
                continue
            for target, cost in targets.items():
                if target in keep:
                    sub.add_edge(source, target, cost)
        return sub

    def copy(self) -> "Graph":
        """Deep-copy the graph (nodes, edges, costs)."""
        duplicate = Graph(name=self.name)
        for node in self._nodes.values():
            duplicate.add_node(node.node_id, node.x, node.y)
        for source, targets in self._adjacency.items():
            for target, cost in targets.items():
                duplicate.add_edge(source, target, cost)
        return duplicate

    def reversed(self) -> "Graph":
        """Return a copy with every edge direction flipped.

        Used by the bidirectional planner's backward search.
        """
        flipped = Graph(name=f"{self.name}-reversed")
        for node in self._nodes.values():
            flipped.add_node(node.node_id, node.x, node.y)
        for source, targets in self._adjacency.items():
            for target, cost in targets.items():
                flipped.add_edge(target, source, cost)
        return flipped


def graph_from_edges(
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    coordinates: Optional[Mapping[NodeId, Tuple[float, float]]] = None,
    name: str = "graph",
) -> Graph:
    """Build a graph from an edge list, creating nodes on first sight.

    ``coordinates`` optionally supplies ``(x, y)`` per node id; nodes not
    listed default to the origin.
    """
    coordinates = coordinates or {}
    graph = Graph(name=name)

    def ensure(node_id: NodeId) -> None:
        if node_id not in graph:
            x, y = coordinates.get(node_id, (0.0, 0.0))
            graph.add_node(node_id, x, y)

    for source, target, cost in edges:
        ensure(source)
        ensure(target)
        graph.add_edge(source, target, cost)
    return graph
