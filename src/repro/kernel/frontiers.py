"""In-memory frontier policies for the generic kernel loop.

The paper's Section 5.3.1 frontier axis has three points: a binary
heap (the in-memory tiers' realisation of the frontierSet), a separate
frontier relation, and a status attribute on the node relation. The
relational two live in :mod:`repro.engine.frontier` and are adapted to
the kernel protocol in :mod:`repro.kernel.backends`; this module holds
the heap policy (Dijkstra and A*, Figures 2-3) and the wave policy
(the Iterative algorithm, Figure 1) over plain dictionaries.

Every policy implements the same protocol the kernel loop drives:

``early_termination``
    class flag — True for best-first (stop when the destination is
    selected), False for wave/label-correcting (run to fixpoint);
``open_node(node_id, path_cost, predecessor)``
    label a node and place it on the frontier (used for the source);
``select()``
    the next selection — one ``{"node_id", "path_cost"}`` label for
    best-first, the whole current wave (a list of labels) for
    Iterative, or None/empty when the frontier is exhausted;
``close(selection)``
    move a best-first selection to the explored set (wave policies
    flip statuses inside :meth:`expand` instead);
``expand(selection, backend)``
    fetch the selection's adjacency rows through the backend and relax
    them; returns the :class:`~repro.kernel.result.IterationRecord`
    field dict for this iteration;
``finalize(result, found, source, destination, backend)``
    write path/cost/found onto the result and release any per-run
    resources.

The counter placement in these policies mirrors the historical
``core.dijkstra`` / ``core.astar`` / ``core.iterative`` loops exactly
(tests/test_kernel.py holds the equivalence proofs), so the fused
fast paths in :mod:`repro.kernel.csr` and this generic form
produce identical :class:`~repro.kernel.result.SearchStats`.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set

from repro.graphs.graph import Graph, NodeId
from repro.kernel.result import RunResult, SearchStats, reconstruct_path


class HeapFrontierPolicy:
    """Binary-heap best-first frontier (Dijkstra and A*).

    Implements the paper's preferred duplicate policy with the standard
    lazy-deletion idiom: label improvements push a fresh heap entry and
    stale entries are skipped on pop, which leaves the expansion
    sequence identical to true decrease-key. Ties on ``g + h`` break
    towards the smaller estimate ``h`` (deepest progress towards the
    goal), then FIFO — with the zero estimator the ordering collapses
    to Dijkstra's ``(g, FIFO)``.

    ``estimator`` None means "no lookahead" (Dijkstra): no estimate
    calls are made at all, matching the historical dijkstra loop.
    """

    early_termination = True

    def __init__(
        self,
        graph: Graph,
        stats: SearchStats,
        estimator,
        destination: NodeId,
    ) -> None:
        self.graph = graph
        self.stats = stats
        self.estimator = estimator
        self.destination = destination
        self.cost: Dict[NodeId, float] = {}
        self.predecessor: Dict[NodeId, NodeId] = {}
        self.explored: Set[NodeId] = set()
        self.in_frontier: Set[NodeId] = set()
        self.heap: list = []
        self.counter = 0

    def open_node(
        self, node_id: NodeId, path_cost: float, predecessor: Optional[NodeId]
    ) -> None:
        h = (
            self.estimator.estimate(self.graph, node_id, self.destination)
            if self.estimator is not None
            else 0.0
        )
        self.cost[node_id] = path_cost
        if predecessor is not None:
            self.predecessor[node_id] = predecessor
        self.in_frontier.add(node_id)
        heapq.heappush(
            self.heap, (path_cost + h, h, self.counter, node_id, path_cost)
        )
        self.stats.frontier_inserts += 1

    def select(self) -> Optional[dict]:
        while self.heap:
            _f, _h, _, u, g_at_push = heapq.heappop(self.heap)
            if u not in self.in_frontier or g_at_push > self.cost.get(u, math.inf):
                continue  # stale lazy-deletion entry
            self.in_frontier.discard(u)
            return {"node_id": u, "path_cost": self.cost[u]}
        return None

    def close(self, selected: dict) -> None:
        u = selected["node_id"]
        if u in self.explored:
            self.stats.nodes_reopened += 1
        self.explored.add(u)
        self.stats.nodes_expanded += 1
        self.stats.observe_frontier(len(self.in_frontier))

    def expand(self, selected: dict, backend) -> dict:
        stats = self.stats
        cost = self.cost
        u = selected["node_id"]
        g = cost[u]
        rows, strategy = backend.neighbors([selected])
        updates = 0
        for row in rows:
            stats.edges_relaxed += 1
            v = row["end"]
            candidate = g + row["cost"]
            if candidate < cost.get(v, math.inf):
                cost[v] = candidate
                self.predecessor[v] = u
                stats.nodes_updated += 1
                updates += 1
                h_v = (
                    self.estimator.estimate(self.graph, v, self.destination)
                    if self.estimator is not None
                    else 0.0
                )
                self.counter += 1
                heapq.heappush(
                    self.heap, (candidate + h_v, h_v, self.counter, v, candidate)
                )
                if v not in self.in_frontier:
                    self.in_frontier.add(v)
                    stats.frontier_inserts += 1
        return {
            "expanded_nodes": 1,
            "join_result_tuples": len(rows),
            "join_strategy": strategy,
            "updates_applied": updates,
            "frontier_size_after": len(self.in_frontier),
            "labels": ((u, g),),
        }

    def finalize(
        self,
        result: RunResult,
        found: Optional[dict],
        source: NodeId,
        destination: NodeId,
        backend,
    ) -> None:
        if found is None:
            return
        path = reconstruct_path(self.predecessor, source, destination)
        assert path is not None, "destination selected without a path label"
        result.path = path
        result.cost = self.cost[destination]
        result.found = True


class WaveFrontierPolicy:
    """Wave-synchronous label-correcting frontier (Iterative, Figure 1).

    One selection is one whole wave; the kernel loop never closes or
    early-terminates it — the search runs until a wave produces no
    improvements, exactly like the historical ``iterative_search``.
    Within a wave, labels propagate sequentially (a node later in the
    wave expands from a cost an earlier wave-member just improved),
    which is the in-memory loop's historical behaviour; the relational
    wave applies the whole wave's improvements as one batch REPLACE.
    """

    early_termination = False

    def __init__(self, graph: Graph, stats: SearchStats) -> None:
        self.graph = graph
        self.stats = stats
        self.cost: Dict[NodeId, float] = {}
        self.predecessor: Dict[NodeId, NodeId] = {}
        self.wave: List[NodeId] = []
        self.ever_expanded: Set[NodeId] = set()

    def open_node(
        self, node_id: NodeId, path_cost: float, predecessor: Optional[NodeId]
    ) -> None:
        self.cost[node_id] = path_cost
        if predecessor is not None:
            self.predecessor[node_id] = predecessor
        self.wave = [node_id]

    def select(self) -> Optional[List[dict]]:
        if not self.wave:
            return None
        return [{"node_id": u, "path_cost": self.cost[u]} for u in self.wave]

    def close(self, selected) -> None:  # pragma: no cover - never called
        raise AssertionError("wave frontiers are not closed per selection")

    def expand(self, selected: List[dict], backend) -> dict:
        stats = self.stats
        cost = self.cost
        stats.observe_frontier(len(selected))
        next_wave: List[NodeId] = []
        next_in_frontier: Set[NodeId] = set()
        updates = 0
        produced = 0
        for entry in selected:
            u = entry["node_id"]
            stats.nodes_expanded += 1
            if u in self.ever_expanded:
                stats.nodes_reopened += 1
            self.ever_expanded.add(u)
            # Sequential in-wave propagation: expand from the *current*
            # label, which an earlier member of this wave may have just
            # improved — not the wave-start snapshot in ``entry``.
            base = cost[u]
            rows, _ = backend.neighbors([{"node_id": u, "path_cost": base}])
            for row in rows:
                stats.edges_relaxed += 1
                produced += 1
                v = row["end"]
                candidate = base + row["cost"]
                if candidate < cost.get(v, math.inf):
                    cost[v] = candidate
                    self.predecessor[v] = u
                    stats.nodes_updated += 1
                    updates += 1
                    if v not in next_in_frontier:
                        next_wave.append(v)
                        next_in_frontier.add(v)
                        stats.frontier_inserts += 1
        self.wave = next_wave
        return {
            "expanded_nodes": len(selected),
            "join_result_tuples": produced,
            "join_strategy": "in-memory",
            "updates_applied": updates,
            "frontier_size_after": len(next_wave),
            "labels": tuple(
                (entry["node_id"], entry["path_cost"]) for entry in selected
            ),
        }

    def finalize(
        self,
        result: RunResult,
        found: Optional[dict],
        source: NodeId,
        destination: NodeId,
        backend,
    ) -> None:
        path = reconstruct_path(self.predecessor, source, destination)
        if path is not None and destination in self.cost:
            result.path = path
            result.cost = self.cost[destination]
            result.found = True
