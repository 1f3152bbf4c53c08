"""FleetRouter: exact cross-shard routing by boundary stitching.

The router fronts one :class:`~repro.fleet.partition.Partition` worth
of :class:`~repro.fleet.worker.ShardWorker` instances and answers any
OD query over the *parent* map exactly, without ever running a
whole-map search. Every query reads two shard shortest-path trees
(:class:`~repro.fleet.worker.ShardTree`): the out-tree of the source
inside its shard and the in-tree of the destination inside its shard.

* **Single-shard queries** take the out-tree's cost and path to the
  destination. The answer is provably optimal whenever no cheaper
  path leaves and re-enters the shard; the router checks a
  conservative bound (see below) and only pays for stitching when the
  bound cannot rule re-entry out.
* **Cross-shard queries** (and re-entrant single-shard ones) are
  answered by *boundary stitching*: the out-tree's boundary distances
  seed a Dijkstra over a small precomputed **boundary overlay**, and
  the in-tree's boundary distances close it.

Trees are held in one table across fleet versions, keyed ``("out",
s)`` / ``("in", t)``: at most one out-tree and one in-tree per node,
each stamped with the version it is exact at. A hit at the current
version dispatches nothing to a worker. An older hit is *repaired*
(:func:`~repro.kernel.csr.repair_tree`) from the shard edges changed
since its version — a fraction of a fresh search — and stored back at
the current version. The overlay build reuses the held boundary
out-trees the same way and adds the ones it computes, and the winning
chain is materialized by walking trees alone: source to entry in the
out-tree, each clique hop in its boundary node's out-tree, exit to
destination in the in-tree.

Exactness argument
------------------
Decompose any optimal parent path P(s, t) at its cut-edge crossings.
Every maximal segment of P lies inside one shard and starts/ends at a
boundary node (or at s / t). The overlay contains, for every shard,
the *exact* shard-internal distance b1 -> b2 between its boundary
nodes — as one clique edge, or, when b1's tree path to b2 runs
through another boundary node, as the kept chain of edges through it
(the worker's dominance-pruned clique) — and every cut edge at its
current cost. So each segment of P is priced by overlay edges of
equal or smaller total weight, and conversely every overlay edge
corresponds to a realizable walk in the parent graph. Hence

    cost(P) = min( local_shard_route,
                   min over b1 in B(shard(s)), b2 in B(shard(t)) of
                       d_s(s -> b1) + d_overlay(b1 -> b2) + d_t(b2 -> t) )

with equality, including paths that leave shard(s) and re-enter it:
those are covered because the overlay may route b1 ... b2 back through
shard(s)'s own clique edges. Same-shard queries therefore also
consult the overlay unless the pruning bound

    local_cost <= min(d_s) + min_exit(shard(s))
                  + min_entry(shard(t)) + min(d_t)

holds — any path using the overlay pays at least the right-hand side,
so when the bound holds the local answer is already optimal.

Consistency across traffic epochs
---------------------------------
The router subscribes to the parent :class:`TrafficFeed`, which holds
the parent graph's gate exclusively across the fan-out: shard-internal
deltas go to the owning worker's own feed (bumping the *shard*
fingerprint, invalidating its cache edge-granularly), cut-edge deltas
update the router's cut-cost table, the overlay is dropped, the fleet
version is bumped, and each shard's changed internal edges are logged
at the new version (a cut-edge delta moves no shard tree). A query
holds the parent's gate (shared side) from admission to answer, so it
and every tree it adds to the table or repairs are priced at one fleet
version.

Backpressure
------------
Every fresh tree is admitted through :meth:`ShardWorker.submit`; a
table hit computes nothing on a worker. A repair runs in the query's
own thread on the shard's best serving replica
(:meth:`~repro.fleet.replica.ReplicaSet.repair`): it costs less than a
queue handoff. A dark shard cannot repair, and its query falls back to
the tree stage, which sheds it. A full queue sheds the *query* — the
returned :class:`FleetResult` carries ``shed=True`` and the refusing
shard — never a stale or silently dropped answer.

Fault tolerance (PR 10)
-----------------------
With ``replicas=N`` each shard is served by a
:class:`~repro.fleet.replica.ReplicaSet` of N full worker stacks, and
every tree dispatch runs under the
:class:`~repro.fleet.replica.DeadlinePolicy`: a per-query budget
clipping a per-stage budget, hedged dispatch to the next replica
when a stage exceeds the hedge threshold, bounded same-replica retry
with backoff on injected transient errors, and immediate failover on
a replica crash. Epochs fan out to every live replica in the same
gated fan-out, and the set's epoch-target/epoch-version accounting keeps
any replica that missed a fan-out out of the serving order — the
degradation ladder is healthy replica → hedged/retried replica →
shed-with-flag, and a lagging replica can never serve a cross-epoch
answer. When a whole shard goes dark its clique drops out of the
overlay; the overlay is then *degraded* and every answer that would
need stitching is shed explicitly, while same-shard answers that pass
the pruning bound keep serving (the bound needs only cut costs, so it
stays exact with dark shards).
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ShardUnavailableError
from repro.faults.workerplan import WorkerFaultPlan
from repro.graphs.graph import NodeId
from repro.service.metrics import Snapshot
from repro.traffic.feed import TrafficEpoch

from repro.fleet.partition import Partition
from repro.fleet.replica import (
    DeadlinePolicy,
    HealthPolicy,
    ReplicaSet,
    StageOutcome,
)
from repro.fleet.worker import ShardTree, StaleTree

EdgeKey = Tuple[NodeId, NodeId]

#: Overlay-edge provenance marker for parent cut edges (clique edges
#: carry the owning shard id instead).
CUT = -1

_INF = float("inf")

#: Tree-table direction -> the ShardWorker stage that computes it.
_TREE_STAGES = {"out": "distances_to_boundary", "in": "distances_from_boundary"}

#: Epochs a held tree may fall behind before the table drops it: the
#: log it would replay then touches a large share of its shard.
_HELD_EPOCHS = 32


@dataclass
class FleetResult:
    """One fleet answer: either a route, a miss, or an explicit shed."""

    source: NodeId
    destination: NodeId
    found: bool = False
    cost: float = _INF
    path: List[NodeId] = field(default_factory=list)
    #: Backpressure refused the query; no answer was computed. Never
    #: set together with ``found``.
    shed: bool = False
    shed_reason: str = ""
    source_shard: int = -1
    target_shard: int = -1
    cross_shard: bool = False
    #: The answer consulted the boundary overlay (always for
    #: cross-shard; for same-shard only when the pruning bound failed
    #: or the overlay won).
    stitched: bool = False
    #: Fleet version the answer is consistent with.
    fleet_version: int = 0
    latency_s: float = 0.0
    #: At least one stage raced a second replica (hedged dispatch).
    hedged: bool = False
    #: Replica-to-replica failovers spent answering this query.
    failovers: int = 0
    #: Same-replica transient-error retries spent on this query.
    retries: int = 0

    @property
    def path_length(self) -> int:
        return len(self.path)


class _Overlay:
    """The boundary graph: cut edges + per-shard boundary cliques.

    Every overlay node is a boundary node, so the overlay runs on the
    router's dense boundary ids (:attr:`FleetRouter._overlay_ids`):
    ``rows[i]`` lists node ``i``'s ``(neighbor id, cost, via)`` edges,
    ``via`` the owning shard of a clique edge or ``CUT``.
    """

    def __init__(self, version: int, nodes: List[NodeId], ids: Dict[NodeId, int]) -> None:
        self.version = version
        #: Dense id -> boundary node, and back.
        self.nodes = nodes
        self.ids = ids
        self.rows: List[List[Tuple[int, float, int]]] = [[] for _ in nodes]
        self.edge_count = 0
        #: The boundary out-trees the cliques were read from; a clique
        #: hop ``b1 -> b2`` is materialized as ``trees[b1].path(b2)``.
        self.trees: Dict[NodeId, ShardTree] = {}
        #: Shards whose clique could not be collected (dark). A
        #: degraded overlay cannot prove stitched optimality, so the
        #: router sheds every answer that would need it.
        self.dark_shards: List[int] = []

    @property
    def degraded(self) -> bool:
        return bool(self.dark_shards)

    @property
    def adjacency(self) -> Dict[NodeId, List[Tuple[NodeId, float, int]]]:
        """The rows by node: node -> [(neighbor, cost, via)]."""
        nodes = self.nodes
        return {
            nodes[i]: [(nodes[j], cost, via) for j, cost, via in row]
            for i, row in enumerate(self.rows)
        }

    def add_edge(self, source: NodeId, target: NodeId, cost: float, via: int) -> None:
        ids = self.ids
        self.rows[ids[source]].append((ids[target], cost, via))
        self.edge_count += 1


def _reached(tree: ShardTree, base: int) -> List[Tuple[float, int]]:
    """``(distance, overlay id)`` of each boundary node linked to the
    tree's root; ``base`` is the overlay id of the shard's first
    boundary node."""
    dist = tree.dist
    return [(dist[i], base + j) for j, i in enumerate(tree.slots) if dist[i] != _INF]


class FleetRouter:
    """Serve one partitioned map from a fleet of shard workers."""

    def __init__(
        self,
        partition: Partition,
        max_queue: int = 128,
        threads: int = 2,
        cache_capacity: int = 2048,
        clock=time.perf_counter,
        replicas: int = 1,
        fault_plans: Optional[Dict[Tuple[int, int], WorkerFaultPlan]] = None,
        deadline: Optional[DeadlinePolicy] = None,
        health: Optional[HealthPolicy] = None,
        sleeper=time.sleep,
    ) -> None:
        self.partition = partition
        self._clock = clock
        self.deadline = deadline if deadline is not None else DeadlinePolicy()
        #: ``fault_plans`` is keyed by ``(shard_id, replica_index)``;
        #: a worker without an entry runs fault-free.
        plans = fault_plans or {}
        self.workers: Dict[int, ReplicaSet] = {
            spec.shard_id: ReplicaSet(
                spec,
                replicas=replicas,
                max_queue=max_queue,
                threads=threads,
                cache_capacity=cache_capacity,
                clock=clock,
                fault_plans={
                    replica: plan
                    for (shard, replica), plan in plans.items()
                    if shard == spec.shard_id
                },
                health=health,
                sleeper=sleeper,
            )
            for spec in partition.shards
        }
        # Current cut-edge costs; seeded from the partition, updated by
        # traffic epochs. Keyed by parent directed edge.
        self._cut_costs: Dict[EdgeKey, float] = {
            (cut.source, cut.target): cut.cost for cut in partition.cut_edges
        }
        self._cut_shards: Dict[EdgeKey, Tuple[int, int]] = {
            (cut.source, cut.target): (cut.source_shard, cut.target_shard)
            for cut in partition.cut_edges
        }
        #: Dense overlay ids: the boundary nodes shard by shard, each
        #: shard's in ShardSpec.boundary order, so boundary slot j of a
        #: shard's trees is overlay id ``_overlay_base[shard] + j``.
        self._overlay_nodes: List[NodeId] = []
        self._overlay_base: Dict[int, int] = {}
        for spec in partition.shards:
            self._overlay_base[spec.shard_id] = len(self._overlay_nodes)
            self._overlay_nodes.extend(spec.boundary)
        self._overlay_ids: Dict[NodeId, int] = {
            node: i for i, node in enumerate(self._overlay_nodes)
        }
        self._state_lock = threading.Lock()
        #: Serializes overlay builds, so concurrent queries build once.
        self._overlay_lock = threading.Lock()
        self._version = 1
        self._overlay: Optional[_Overlay] = None
        #: Shard trees keyed ("out", s) / ("in", t), each with the fleet
        #: version it is exact at; kept across epochs and repaired on
        #: read from the change log.
        self._trees: Dict[Tuple[str, NodeId], Tuple[int, ShardTree]] = {}
        #: Per shard, ``(version, internal edges)`` for every epoch that
        #: changed the shard, oldest first: what a tree held at an older
        #: version missed.
        self._changes: Dict[int, List[Tuple[int, List[EdgeKey]]]] = {}
        #: (min_exit-per-shard, min_entry-per-shard) — the pruning-bound
        #: floors; derived from cut costs alone, so far cheaper to
        #: rebuild than the overlay.
        self._floors: Optional[Tuple[Dict[int, float], Dict[int, float]]] = None
        self._shutdown = False
        # fleet-level counters
        self.queries = 0
        self.cross_shard_queries = 0
        self.stitched_answers = 0
        self.local_pruned = 0
        self.sheds = 0
        self.epochs_applied = 0
        self.overlay_builds = 0
        self.tree_repairs = 0
        # degradation-ladder counters (PR 10)
        self.hedged_queries = 0
        self.stage_failovers = 0
        self.worker_retries = 0
        self.deadline_sheds = 0
        self.dark_sheds = 0
        self.queue_sheds = 0
        self.replica_kills = 0

    # ------------------------------------------------------------------
    # traffic epochs (parent-feed subscriber)
    # ------------------------------------------------------------------
    def handle_epoch(self, epoch: TrafficEpoch) -> None:
        """Fan one parent epoch out to the fleet.

        Shard-internal deltas are re-applied through the owning
        worker's own TrafficFeed (one shard fingerprint bump each,
        edge-granular cache invalidation); cut-edge deltas update the
        router's cut-cost table. The overlay is dropped and the fleet
        version bumped exactly once per epoch. The tree table is kept:
        each shard's internal edges are logged at the new version, so a
        held tree is repaired from them when next read (a cut-edge
        delta touches no tree). A shard whose fan-out raises does not
        stop the others; the first failure is re-raised after all of
        them. The log is written even when the fan-out raised — a
        superset of the changes is always safe. The
        parent feed calls this holding the parent graph's gate
        exclusively, so no query runs during the fan-out.
        """
        if not epoch.deltas:
            return
        per_shard: Dict[int, List[Tuple[NodeId, NodeId, float]]] = {}
        try:
            for delta in epoch.deltas:
                key = (delta.source, delta.target)
                if key in self._cut_costs:
                    self._cut_costs[key] = delta.new_cost
                    continue
                shard_id = self.partition.shard_of(delta.source)
                per_shard.setdefault(shard_id, []).append(
                    (delta.source, delta.target, delta.new_cost)
                )
            # Every shard gets its slice even when one raises: a shard
            # left behind would serve the old costs unflagged.
            failure = None
            for shard_id, updates in per_shard.items():
                try:
                    self.workers[shard_id].apply_deltas(updates)
                except Exception as exc:
                    if failure is None:
                        failure = exc
            if failure is not None:
                raise failure
        finally:
            with self._state_lock:
                self._overlay = None
                self._floors = None
                self._version += 1
                self.epochs_applied += 1
                for shard_id, updates in per_shard.items():
                    self._changes.setdefault(shard_id, []).append(
                        (self._version, [(u, v) for u, v, _ in updates])
                    )
                self._trim_log()

    def _trim_log(self) -> None:
        """Drop trees too far behind to be worth repairing and the log
        entries every held tree has absorbed (state lock held)."""
        horizon = self._version - _HELD_EPOCHS
        trees = self._trees
        if any(version < horizon for version, _ in trees.values()):
            self._trees = trees = {
                key: held for key, held in trees.items() if held[0] >= horizon
            }
        oldest = min((version for version, _ in trees.values()), default=self._version)
        for log in self._changes.values():
            while log and log[0][0] <= oldest:
                del log[0]

    def _changes_since(self, shard_id: int, version: int) -> List[EdgeKey]:
        """The shard's internal edges changed after fleet ``version``
        (state lock held)."""
        return [
            edge
            for logged, edges in self._changes.get(shard_id, ())
            if logged > version
            for edge in edges
        ]

    # ------------------------------------------------------------------
    # the boundary overlay
    # ------------------------------------------------------------------
    def _overlay_for(self, version: int) -> _Overlay:
        """The overlay of fleet ``version``, building if needed. The
        caller holds the parent graph's gate, so ``version`` is the
        current one and no fan-out interleaves with the clique SSSPs."""
        with self._overlay_lock:
            with self._state_lock:
                overlay = self._overlay
            if overlay is not None and overlay.version == version:
                return overlay
            built = _Overlay(version, self._overlay_nodes, self._overlay_ids)
            for key, cost in self._cut_costs.items():
                built.add_edge(key[0], key[1], cost, CUT)
            repairs = 0
            for shard_id, replica_set in self.workers.items():
                held: Dict[NodeId, StaleTree] = {}
                with self._state_lock:
                    for node in replica_set.spec.boundary:
                        entry = self._trees.get(("out", node))
                        if entry is not None:
                            held[node] = (
                                entry[1], self._changes_since(shard_id, entry[0])
                            )
                try:
                    clique, trees = replica_set.boundary_clique(held)
                except ShardUnavailableError:
                    # A dark shard's interior is unpriceable: record
                    # the degradation instead of building an overlay
                    # that silently lost routes through this shard.
                    built.dark_shards.append(shard_id)
                    continue
                for b1, b2, cost in clique:
                    built.add_edge(b1, b2, cost, shard_id)
                built.trees.update(trees)
                repairs += sum(1 for _, changed in held.values() if changed)
            with self._state_lock:
                self._overlay = built
                for node, tree in built.trees.items():
                    self._trees[("out", node)] = (version, tree)
                self.overlay_builds += 1
                self.tree_repairs += repairs
            return built

    def _floors_for(self) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Per-shard cheapest exit/entry cut-edge costs.

        These feed the same-shard pruning bound; unlike the overlay
        they need no SSSPs, so the bound check never forces a clique
        build.
        """
        with self._state_lock:
            if self._floors is None:
                min_exit: Dict[int, float] = {}
                min_entry: Dict[int, float] = {}
                for key, cost in self._cut_costs.items():
                    source_shard, target_shard = self._cut_shards[key]
                    if cost < min_exit.get(source_shard, _INF):
                        min_exit[source_shard] = cost
                    if cost < min_entry.get(target_shard, _INF):
                        min_entry[target_shard] = cost
                self._floors = (min_exit, min_entry)
            return self._floors

    @staticmethod
    def _overlay_search(
        overlay: _Overlay,
        seeds: List[Tuple[float, int]],
        tails: List[Tuple[float, int]],
        bound: float,
    ) -> Tuple[float, int, List[Optional[Tuple[int, int]]]]:
        """Multi-source Dijkstra over the overlay's dense rows.

        ``seeds`` holds ``(d_s(s -> b1), id)`` for the entry boundary
        nodes and ``tails`` ``(d_t(b2 -> t), id)`` for the exit ones
        (:func:`_reached`). Only totals below ``bound`` (the local
        answer, or inf) count. Returns the best total stitched cost,
        the winning exit id (-1 when nothing beat ``bound``), and the
        predecessor list (id -> (previous id, via-shard or CUT), None
        for an id no relaxation reached) for path materialization.
        """
        size = len(overlay.rows)
        dist = [_INF] * size
        tail = [_INF] * size
        for cost, node in seeds:
            dist[node] = cost
        for cost, node in tails:
            tail[node] = cost
        pred: List[Optional[Tuple[int, int]]] = [None] * size
        heap = list(seeds)
        heapq.heapify(heap)
        pop = heapq.heappop
        push = heapq.heappush
        best_cost, best_exit = bound, -1
        # Every total through a frontier cost c is at least c + floor,
        # so the search stops once that reaches the best total, and
        # never pushes a label that cannot beat it.
        floor = min(tails)[0]
        rows = overlay.rows
        while heap:
            cost, node = pop(heap)
            if cost + floor >= best_cost:
                break
            if cost > dist[node]:
                continue
            total = cost + tail[node]
            if total < best_cost:
                best_cost, best_exit = total, node
            for neighbor, weight, via in rows[node]:
                candidate = cost + weight
                if candidate + floor < best_cost and candidate < dist[neighbor]:
                    dist[neighbor] = candidate
                    pred[neighbor] = (node, via)
                    push(heap, (candidate, neighbor))
        return best_cost, best_exit, pred

    @staticmethod
    def _materialize(
        overlay: _Overlay,
        out_tree: ShardTree,
        in_tree: ShardTree,
        exit_: int,
        pred: List[Optional[Tuple[int, int]]],
    ) -> List[NodeId]:
        """Expand the winning overlay chain into a parent-node path by
        walking trees: source to entry in ``out_tree``, each clique hop
        in its boundary node's out-tree, exit to destination in
        ``in_tree``; cut hops append the crossing edge directly."""
        # Walk the predecessor chain back to the true entry node. Only
        # seeds carry an initial distance, so any id without a pred
        # entry is a seed reached at its seed cost; a seed that was
        # *relaxed* cheaper via another node keeps its pred entry and
        # the walk correctly continues through it.
        nodes = overlay.nodes
        node = exit_
        hops: List[Tuple[NodeId, NodeId, int]] = []
        while pred[node] is not None:
            previous, via = pred[node]
            hops.append((nodes[previous], nodes[node], via))
            node = previous
        hops.reverse()
        path = out_tree.path(nodes[node])
        for segment_source, segment_target, via in hops:
            if via == CUT:
                path.append(segment_target)
            else:
                path.extend(overlay.trees[segment_source].path(segment_target)[1:])
        path.extend(in_tree.path(nodes[exit_])[1:])
        return path

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def plan(self, source: NodeId, destination: NodeId) -> FleetResult:
        """Answer one OD query, exactly, against one fleet version.

        Holds the parent graph's gate (shared side) from admission to
        answer, so no epoch fans out while the query runs.

        Raises :class:`~repro.exceptions.NodeNotFoundError` for nodes
        the partition does not cover. Returns ``shed=True`` when any
        involved worker's queue is full or the router is shut down.
        """
        started = self._clock()
        deadline = started + self.deadline.total_s
        source_shard = self.partition.shard_of(source)
        target_shard = self.partition.shard_of(destination)
        with self._state_lock:
            self.queries += 1
            if source_shard != target_shard:
                self.cross_shard_queries += 1
            shut_down = self._shutdown
        if shut_down:
            # The memoized trees could still answer, but a stopped
            # fleet serves nothing: every query sheds with the reason.
            result = self._mark_shed(
                FleetResult(
                    source=source,
                    destination=destination,
                    source_shard=source_shard,
                    target_shard=target_shard,
                    cross_shard=source_shard != target_shard,
                ),
                "router shut down",
            )
            result.latency_s = self._clock() - started
            return result

        with self.partition.graph.gate.shared():
            with self._state_lock:
                version = self._version
            result = self._plan_at(
                source, destination, source_shard, target_shard, version,
                deadline,
            )
        result.latency_s = self._clock() - started
        return result

    def _stage(
        self,
        replica_set: ReplicaSet,
        method: str,
        args: Tuple,
        stage_budget_s: float,
        deadline: float,
        result: FleetResult,
    ) -> StageOutcome:
        """One deadline-clipped hedged dispatch, stats folded into
        ``result`` and the fleet counters."""
        budget = min(stage_budget_s, deadline - self._clock())
        if budget <= 0:
            outcome = StageOutcome(
                timed_out=True,
                shed_reason=f"query deadline exceeded before '{method}'",
            )
        else:
            outcome = replica_set.call(
                method,
                args,
                budget_s=budget,
                hedge_s=self.deadline.hedge_s,
                max_attempts=self.deadline.max_attempts,
                backoff_s=self.deadline.backoff_s,
            )
        result.retries += outcome.retries
        result.failovers += outcome.failovers
        if outcome.hedges:
            result.hedged = True
        with self._state_lock:
            self.worker_retries += outcome.retries
            self.stage_failovers += outcome.failovers
            if outcome.hedges:
                self.hedged_queries += 1
        return outcome

    def _plan_at(
        self,
        source: NodeId,
        destination: NodeId,
        source_shard: int,
        target_shard: int,
        version: int,
        deadline: float,
    ) -> FleetResult:
        """One query at fleet ``version`` (the caller holds the gate)."""
        result = FleetResult(
            source=source,
            destination=destination,
            source_shard=source_shard,
            target_shard=target_shard,
            cross_shard=source_shard != target_shard,
            fleet_version=version,
        )
        if source == destination:
            result.found = True
            result.cost = 0.0
            result.path = [source]
            return result

        same_shard = source_shard == target_shard
        fresh: Dict[Tuple[str, NodeId], Tuple[int, ShardTree]] = {}
        trees: List[ShardTree] = []
        for key, shard_id in (
            (("out", source), source_shard),
            (("in", destination), target_shard),
        ):
            stale = None
            with self._state_lock:
                held = self._trees.get(key)
                if held is not None and held[0] != version:
                    changed = self._changes_since(shard_id, held[0])
                    if changed:
                        stale = (held[1], changed)
            tree = held[1] if held is not None and stale is None else None
            if stale is not None:
                # Repaired in this thread on an in-sync replica; a dark
                # shard falls through to the tree stage, which sheds.
                try:
                    tree = self.workers[shard_id].repair(
                        _TREE_STAGES[key[0]], key[1], stale
                    )
                except ShardUnavailableError:
                    pass
                else:
                    with self._state_lock:
                        self.tree_repairs += 1
            if tree is None:
                outcome = self._stage(
                    self.workers[shard_id],
                    _TREE_STAGES[key[0]],
                    (key[1],),
                    self.deadline.boundary_s,
                    deadline,
                    result,
                )
                if not outcome.ok:
                    return self._shed(result, outcome)
                tree = outcome.value
            if held is None or held[0] != version:
                fresh[key] = (version, tree)
            trees.append(tree)
        out_tree, in_tree = trees
        seeds = _reached(out_tree, self._overlay_base[source_shard])
        tails = _reached(in_tree, self._overlay_base[target_shard])

        if same_shard:
            result.cost = out_tree.cost(destination)
            result.found = result.cost < _INF

        stitched_needed = not same_shard or not self._pruned(
            result, seeds, tails, source_shard, target_shard
        )
        if stitched_needed and seeds and tails:
            if deadline - self._clock() <= 0:
                return self._shed_deadline(result, "overlay")
            overlay = self._overlay_for(version)
            if overlay.degraded:
                # A dark shard's interior is missing from the overlay:
                # a stitched answer could silently undershoot coverage,
                # so any query that *needs* stitching sheds instead.
                # (Pruned same-shard answers never reach this branch
                # and stay exact — the bound needs only cut costs.)
                return self._shed_dark(result, overlay.dark_shards)
            best, exit_node, pred = self._overlay_search(
                overlay, seeds, tails, result.cost
            )
            if exit_node >= 0:
                result.found = True
                result.cost = best
                result.path = self._materialize(
                    overlay, out_tree, in_tree, exit_node, pred
                )
                result.stitched = True
                with self._state_lock:
                    self.stitched_answers += 1
        if result.found and not result.stitched:
            result.path = out_tree.path(destination)

        with self._state_lock:
            self._trees.update(fresh)
        return result

    def _pruned(
        self,
        result: FleetResult,
        seeds: List[Tuple[float, int]],
        tails: List[Tuple[float, int]],
        source_shard: int,
        target_shard: int,
    ) -> bool:
        """True when the local answer provably cannot be beaten.

        Any stitched alternative leaves the shard through some cut edge
        and re-enters through another, so it costs at least
        ``min(seeds) + min_exit + min_entry + min(tails)``. (Purely
        internal overlay routes cost >= the local optimum by
        definition of shard-internal distances.)
        """
        if not result.found:
            return False
        if not seeds or not tails:
            return True  # the shard has no usable exit or entry
        min_exit, min_entry = self._floors_for()
        floor = (
            min(seeds)[0]
            + min_exit.get(source_shard, _INF)
            + min_entry.get(target_shard, _INF)
            + min(tails)[0]
        )
        if result.cost <= floor:
            with self._state_lock:
                self.local_pruned += 1
            return True
        return False

    def _mark_shed(self, result: FleetResult, reason: str) -> FleetResult:
        result.shed = True
        result.found = False
        result.cost = _INF
        result.path = []
        result.shed_reason = reason
        with self._state_lock:
            self.sheds += 1
        return result

    def _shed(self, result: FleetResult, outcome: StageOutcome) -> FleetResult:
        """Shed on a failed stage, classifying the rung of the ladder."""
        with self._state_lock:
            if outcome.timed_out:
                self.deadline_sheds += 1
            elif "dark" in outcome.shed_reason:
                self.dark_sheds += 1
            elif "queue full" in outcome.shed_reason:
                self.queue_sheds += 1
        return self._mark_shed(result, outcome.shed_reason)

    def _shed_deadline(self, result: FleetResult, stage: str) -> FleetResult:
        with self._state_lock:
            self.deadline_sheds += 1
        return self._mark_shed(
            result, f"query deadline exceeded before '{stage}'"
        )

    def _shed_dark(self, result: FleetResult, shards: List[int]) -> FleetResult:
        with self._state_lock:
            self.dark_sheds += 1
        labels = ", ".join(str(shard) for shard in sorted(shards))
        return self._mark_shed(
            result, f"stitching needs dark shard(s) {labels}"
        )

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        with self._state_lock:
            return self._version

    def snapshot(self) -> Dict[str, Snapshot]:
        """Nested fleet view: ``{"fleet": {...}, "shard_<id>": {...}}``.

        Every leaf value is numeric; each per-shard entry is the
        worker's :meth:`~ShardWorker.slo_snapshot`.
        """
        with self._state_lock:
            overlay = self._overlay
            fleet: Snapshot = {
                "version": self._version,
                "shard_count": self.partition.shard_count,
                "cut_edges": len(self._cut_costs),
                "boundary_nodes": self.partition.boundary_node_count,
                "queries": self.queries,
                "cross_shard_queries": self.cross_shard_queries,
                "stitched_answers": self.stitched_answers,
                "local_pruned": self.local_pruned,
                "sheds": self.sheds,
                # Queries no longer retry (they hold the parent's gate);
                # the key stays for snapshot readers.
                "plan_retries": 0,
                "epochs_applied": self.epochs_applied,
                "overlay_builds": self.overlay_builds,
                "tree_repairs": self.tree_repairs,
                "trees_held": len(self._trees),
                "overlay_edges": overlay.edge_count if overlay is not None else 0,
                "overlay_degraded": (
                    1 if overlay is not None and overlay.degraded else 0
                ),
                "replicas_per_shard": next(
                    iter(self.workers.values())
                ).replica_count,
                "hedged_queries": self.hedged_queries,
                "stage_failovers": self.stage_failovers,
                "worker_retries": self.worker_retries,
                "deadline_sheds": self.deadline_sheds,
                "dark_sheds": self.dark_sheds,
                "queue_sheds": self.queue_sheds,
                "replica_kills": self.replica_kills,
            }
        out: Dict[str, Snapshot] = {"fleet": fleet}
        for shard_id in sorted(self.workers):
            out[f"shard_{shard_id}"] = self.workers[shard_id].slo_snapshot()
        return out

    def kill_replica(self, shard_id: int, replica_index: int) -> None:
        """Hard-kill one replica (chaos). The overlay is invalidated so
        the next stitched query rebuilds it from surviving replicas —
        or observes the shard dark and sheds."""
        self.workers[shard_id].kill(replica_index)
        with self._state_lock:
            self._overlay = None
            self.replica_kills += 1

    def shutdown(self) -> None:
        """Stop every replica of every shard. Idempotent: a second
        call (or a shutdown racing in-flight queries) is a no-op, and
        queries arriving afterwards shed with a flag rather than
        raising out of the executor."""
        with self._state_lock:
            if self._shutdown:
                return
            self._shutdown = True
        for replica_set in self.workers.values():
            replica_set.shutdown()

    def __repr__(self) -> str:
        return (
            f"FleetRouter(shards={self.partition.shard_count}, "
            f"version={self.version}, queries={self.queries})"
        )
