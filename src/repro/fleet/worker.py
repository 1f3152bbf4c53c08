"""ShardWorker: one RouteService per regional shard, behind a bounded queue.

Each worker owns the full single-shard serving stack the earlier PRs
built, instantiated over its shard's *subgraph*:

* a :class:`~repro.service.service.RouteService` with its own result
  cache, estimator pool and metrics (shard caches never alias — the
  shard graph has a fresh uid);
* a :class:`~repro.traffic.feed.TrafficFeed` over the shard subgraph,
  with the service subscribed, so a parent epoch forwarded by the
  router invalidates exactly like a native epoch would;
* one-node **shortest-path trees** (:class:`ShardTree`), the only
  per-query work a worker does: the tree out of a source and the tree
  into a destination both run the CSR
  :func:`~repro.kernel.csr.sssp_tree` loop over the shard's one
  fingerprint-keyed snapshot — the in-tree over its cached transpose,
  so no reversed copy of the shard is kept or re-priced per epoch — or,
  given a tree the router held from an earlier epoch, repair it from
  the changed edges (:func:`~repro.kernel.csr.repair_tree`);
* a thread-pool executor with **admission control**: the in-flight
  count is bounded by ``max_queue``; an arrival over the bound is shed
  — counted, reported, and surfaced to the router as an explicit
  refusal, never a silent drop and never a stale answer.

Replication (PR 10): a worker may serve as replica ``k`` of its shard
(:class:`~repro.fleet.replica.ReplicaSet` spins up N of them per
:class:`ShardSpec`). Replicas beyond the first get their **own copy**
of the shard subgraph — two feeds applying the same epoch to one
shared graph would double-apply — with a fresh uid so replica caches
never alias either.

Fault injection (PR 10): an optional
:class:`~repro.faults.WorkerFaultPlan` is consulted once per admitted
task, *inside* the task and before its body runs — the
``submit``/plan boundary. Transient errors and replica kills raise
before anything computes (a retry or failover starts clean); injected
latency and hangs stall the executor thread, which is exactly where
real tail latency lives. A crashed worker refuses all further
submissions (an explicit shed, never a silent drop), and a worker with
no plan — or a rate-0 plan — runs the byte-identical seed code path.

Per-shard SLO metrics (p50/p99 task latency measured from admission to
completion, queue depth, shed count, the service's cache hit rate)
come out of :meth:`slo_snapshot`, which the router aggregates into its
fleet-wide :meth:`~repro.fleet.router.FleetRouter.snapshot`.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kernel.result import PathResult
from repro.exceptions import TransientWorkerError, WorkerCrash
from repro.faults.workerplan import WorkerFaultPlan
from repro.graphs.graph import Graph, NodeId
from repro.kernel import csr
from repro.service import RouteService
from repro.service.metrics import Snapshot, percentile
from repro.traffic.feed import TrafficFeed

from repro.fleet.partition import ShardSpec

_INF = float("inf")

#: Boundary-to-boundary edge of a shard clique: ``(b1, b2, cost)``.
CliqueEdge = Tuple[NodeId, NodeId, float]


class ShardTree:
    """One shard shortest-path tree out of, or into (``inward``), a node.

    Immutable once built, so the router may share it between queries
    and keep it across epochs: a later epoch does not change it, it
    yields a repaired copy (:meth:`ShardWorker.distances_to_boundary`
    with ``stale``). :attr:`slots` holds the dense id of each of the
    shard's boundary nodes, in :attr:`ShardSpec.boundary` order, so
    ``dist[slots[j]]`` is the distance between the root and boundary
    node ``j`` (``inf`` when unlinked); :meth:`cost` and :meth:`path`
    read any shard node. Distances and paths run root to node for an
    out-tree and node to root for an in-tree.

    A router holds up to two trees per shard node, so a tree stores
    only the four flat arrays of :func:`~repro.kernel.csr.tree_index`
    by dense id (``dist``, ``pred`` and the child index ``first`` /
    ``sibling``, the last three 16-bit on shards under 32,768 nodes),
    adopted as they are, and references to its snapshot's interning
    tables and the boundary slots, which every tree of the shard's
    topology shares.
    """

    __slots__ = (
        "inward", "dist", "pred", "first", "sibling", "node_ids", "_index_of", "slots"
    )

    def __init__(
        self,
        inward: bool,
        snapshot: csr.CSRGraph,
        arrays: Tuple[array, array, array, array],
        slots: Tuple[int, ...],
    ) -> None:
        self.inward = inward
        self.dist, self.pred, self.first, self.sibling = arrays
        #: The snapshot's dense ids: a repair needs a snapshot with the
        #: very same ones.
        self.node_ids = snapshot.node_ids
        self._index_of = snapshot.index_of
        self.slots = slots

    def cost(self, node: NodeId) -> float:
        i = self._index_of.get(node)
        return _INF if i is None else self.dist[i]

    def path(self, node: NodeId) -> List[NodeId]:
        """The tree path in travel order (``[]`` when unlinked)."""
        i = self._index_of.get(node)
        if i is None or self.dist[i] == _INF:
            return []
        node_ids = self.node_ids
        pred = self.pred
        path = [node_ids[i]]
        while pred[i] != -1:
            i = pred[i]
            path.append(node_ids[i])
        if not self.inward:
            path.reverse()
        return path


#: A held tree and the shard edges whose cost moved since it was exact.
StaleTree = Tuple[ShardTree, Iterable[Tuple[NodeId, NodeId]]]


class ShardWorker:
    """Serve one shard's queries and absorb its slice of traffic epochs."""

    def __init__(
        self,
        spec: ShardSpec,
        max_queue: int = 128,
        threads: int = 2,
        cache_capacity: int = 2048,
        latency_window: int = 4096,
        clock=time.perf_counter,
        graph: Optional[Graph] = None,
        replica_index: int = 0,
        fault_plan: Optional[WorkerFaultPlan] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if replica_index < 0:
            raise ValueError(f"replica_index must be >= 0, got {replica_index}")
        self.spec = spec
        self.max_queue = max_queue
        self._clock = clock
        #: The graph this worker serves: the spec's subgraph for the
        #: primary replica, an independent copy (fresh uid) for peers.
        self.graph = graph if graph is not None else spec.graph
        self.replica_index = replica_index
        self.fault_plan = fault_plan
        self._sleep = sleeper
        # Dijkstra + zero estimator: always cost-optimal answers with
        # path provenance, so the shard cache retains warm entries
        # across epochs that miss the cached routes. The router's
        # query path reads shard trees, not this service.
        self.service = RouteService(
            cache_capacity=cache_capacity,
            default_algorithm="dijkstra",
            default_estimator="zero",
        )
        self.feed = TrafficFeed(self.graph)
        self.feed.subscribe(self.service)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, threads),
            thread_name_prefix=f"shard-{spec.shard_id}-r{replica_index}",
        )
        self._lock = threading.Lock()
        self._queue_depth = 0
        self._shutdown = False
        self._crashed = False
        self.peak_queue_depth = 0
        self.accepted = 0
        self.completed = 0
        self.shed_count = 0
        self.shed_unavailable = 0
        self.epochs_forwarded = 0
        self.faults_injected = 0
        self.faults_by_kind: Dict[str, int] = {}
        self._latencies: deque = deque(maxlen=latency_window)
        #: (index_of, boundary slots) of the last topology seen.
        self._boundary_slots: Tuple = (None, ())

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the worker can still accept tasks."""
        with self._lock:
            return not (self._crashed or self._shutdown)

    @property
    def crashed(self) -> bool:
        with self._lock:
            return self._crashed

    def kill(self) -> None:
        """Simulate a hard replica death (chaos harness replica kills).

        The worker refuses all further submissions, queued-but-unstarted
        tasks are cancelled (their futures raise ``CancelledError``,
        which the replica set treats as a crash and fails over), and
        in-flight tasks are abandoned — a dead process never reports
        back. Idempotent.
        """
        with self._lock:
            if self._crashed:
                return
            self._crashed = True
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # admission-controlled dispatch
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, *args) -> Optional[Future]:
        """Admit one task, or shed it.

        Returns the :class:`~concurrent.futures.Future`, or ``None``
        when the task cannot be admitted — the in-flight count reached
        ``max_queue``, or the worker is shut down / crashed. The caller
        must surface the shed explicitly (the router flags the whole
        query or fails over to a replica); a refusal is never a silent
        drop. Task latency is measured from admission, so queueing
        delay is inside the SLO numbers.
        """
        with self._lock:
            if self._crashed or self._shutdown:
                self.shed_count += 1
                self.shed_unavailable += 1
                return None
            if self._queue_depth >= self.max_queue:
                self.shed_count += 1
                return None
            self._queue_depth += 1
            self.accepted += 1
            if self._queue_depth > self.peak_queue_depth:
                self.peak_queue_depth = self._queue_depth
        admitted = self._clock()

        def run():
            try:
                self._inject(getattr(fn, "__name__", "task"))
                return fn(*args)
            finally:
                elapsed = self._clock() - admitted
                with self._lock:
                    self._queue_depth -= 1
                    self.completed += 1
                    self._latencies.append(elapsed)

        try:
            return self._executor.submit(run)
        except RuntimeError:
            # Raced shutdown(): the executor rejected the task after
            # admission. Undo the admission and shed-with-flag instead
            # of letting the RuntimeError escape into the router.
            with self._lock:
                self._queue_depth -= 1
                self.accepted -= 1
                self.shed_count += 1
                self.shed_unavailable += 1
            return None

    def _inject(self, site_name: str) -> None:
        """Apply the fault plan at the task boundary (may raise/stall).

        Runs inside the admitted task, before its body: an ``error``
        or ``crash`` therefore never lets the task compute or mutate
        anything, and a ``latency``/``hang`` stall occupies a real
        executor thread — the injected tail is indistinguishable from
        a genuinely slow replica to everything above.
        """
        plan = self.fault_plan
        if plan is None or plan.is_noop:
            return
        site = f"shard{self.spec.shard_id}:r{self.replica_index}:{site_name}"
        fault = plan.decide(site)
        if not fault:
            return
        self._count_fault(fault)
        if fault == "crash":
            # Die like a killed process: refuse new work and cancel
            # everything queued behind this task (their futures raise
            # CancelledError, which the replica set fails over on).
            self.kill()
            raise WorkerCrash(
                self.spec.shard_id, self.replica_index, plan.op_index - 1
            )
        if fault == "error":
            raise TransientWorkerError(site, plan.op_index - 1)
        if fault == "latency":
            self._sleep(plan.latency_s)
            return
        self._sleep(plan.hang_s)  # hang

    def _count_fault(self, fault: str) -> None:
        # Callers already hold no lock ordering hazards: _lock is leaf.
        with self._lock:
            self.faults_injected += 1
            self.faults_by_kind[fault] = self.faults_by_kind.get(fault, 0) + 1

    # ------------------------------------------------------------------
    # shard-local computations (run inside submitted tasks)
    # ------------------------------------------------------------------
    def plan(self, source: NodeId, destination: NodeId) -> PathResult:
        """One shard-local route through the worker's RouteService."""
        return self.service.plan(self.graph, source, destination)

    def distances_to_boundary(
        self, source: NodeId, stale: Optional[StaleTree] = None
    ) -> ShardTree:
        """The shard out-tree of ``source``: its boundary slots hold the
        shard-internal distances ``source -> b``. Given ``stale``, an
        earlier out-tree of ``source`` and the edges changed since, the
        tree is repaired from it (:func:`~repro.kernel.csr.repair_tree`)
        instead of searched afresh, or returned as it is when none
        changed."""
        return self._tree(source, False, stale)

    def distances_from_boundary(
        self, destination: NodeId, stale: Optional[StaleTree] = None
    ) -> ShardTree:
        """The shard in-tree of ``destination``: its boundary slots hold
        the shard-internal distances ``b -> destination``. ``stale`` as
        for :meth:`distances_to_boundary`."""
        return self._tree(destination, True, stale)

    def _tree(
        self, root: NodeId, inward: bool, stale: Optional[StaleTree] = None
    ) -> ShardTree:
        if stale is not None:
            tree, changed = stale
            if not changed:
                return tree
            snapshot = csr.csr_for(self.graph)
            # Dense ids are per graph object: another replica's tree is
            # repairable only if its copy interned the nodes alike.
            if tree.node_ids is snapshot.node_ids or tree.node_ids == snapshot.node_ids:
                index_of = snapshot.index_of
                snapshot, *arrays = csr.repair_tree(
                    self.graph,
                    tree.dist,
                    tree.pred,
                    tree.first,
                    tree.sibling,
                    [(index_of[u], index_of[v]) for u, v in changed],
                    reverse=inward,
                )
                return ShardTree(inward, snapshot, arrays, self._slots(snapshot))
        snapshot, dist, pred = csr.sssp_tree(self.graph, root, reverse=inward)
        return ShardTree(
            inward, snapshot, csr.tree_index(dist, pred), self._slots(snapshot)
        )

    def _slots(self, snapshot: csr.CSRGraph) -> Tuple[int, ...]:
        """The boundary's dense ids, one tuple per topology, shared by
        all its trees."""
        memo = self._boundary_slots
        if memo[0] is not snapshot.index_of:
            index_of = snapshot.index_of
            memo = self._boundary_slots = (
                index_of,
                tuple(index_of[b] for b in self.spec.boundary),
            )
        return memo[1]

    def boundary_clique(
        self, held: Optional[Dict[NodeId, StaleTree]] = None
    ) -> Tuple[List[CliqueEdge], Dict[NodeId, ShardTree]]:
        """The dominance-pruned boundary clique and the boundary
        out-trees it was read from.

        One out-tree per boundary node. ``held`` maps boundary nodes to
        out-trees the caller already has, each with the edges changed
        since it was exact: an empty change list takes the tree as it
        is, any other repairs it, and only the boundary nodes without
        one run :func:`~repro.kernel.csr.sssp_tree`. The edge ``b1 ->
        b2`` (the exact shard-internal distance) is kept only when b1's
        tree path to b2 passes through no other boundary node b3
        strictly between them (``0 < d(b1, b3) < d(b1, b2)``). A dropped
        edge is priced exactly by the chain through b3 — subpaths of
        shortest paths are shortest, and both halves are strictly
        shorter, so by induction on distance each is itself kept or
        priced by a kept chain. Zero-cost halves never prune, so
        zero-cost edges cannot cycle the argument. Pairs with no
        internal connection are omitted.
        """
        held = held or {}
        edges: List[CliqueEdge] = []
        trees: Dict[NodeId, ShardTree] = {}
        boundary = self.spec.boundary
        for b1 in boundary:
            tree = trees[b1] = self._tree(b1, False, held.get(b1))
            dist = tree.dist
            pred = tree.pred
            slots = tree.slots
            marks = set(slots)
            root = tree._index_of[b1]
            for b2, i in zip(boundary, slots):
                cost = dist[i]
                if i == root or cost == _INF:
                    continue
                j = pred[i]
                while j != root and not (j in marks and 0.0 < dist[j] < cost):
                    j = pred[j]
                if j == root:
                    edges.append((b1, b2, cost))
        return edges, trees

    # ------------------------------------------------------------------
    # traffic epochs
    # ------------------------------------------------------------------
    def apply_deltas(
        self, updates: Sequence[Tuple[NodeId, NodeId, float]]
    ) -> None:
        """Absorb the shard-internal slice of one parent epoch.

        Applies the absolute costs through the shard's own feed (one
        shard fingerprint bump, service cache invalidated edge-
        granularly); the next tree in either direction prices them.
        """
        if not updates:
            return
        self.feed.apply(updates)
        with self._lock:
            self.epochs_forwarded += 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queue_depth

    def latency_samples(self) -> List[float]:
        """A copy of the rolling latency window (for set-level merges)."""
        with self._lock:
            return list(self._latencies)

    def slo_snapshot(self) -> Snapshot:
        """Flat numeric per-shard SLO counters (fleet snapshot leaf)."""
        with self._lock:
            latencies = list(self._latencies)
            snap: Snapshot = {
                "shard_id": self.spec.shard_id,
                "replica_index": self.replica_index,
                "nodes": self.spec.node_count,
                "boundary_nodes": self.spec.boundary_count,
                "queue_depth": self._queue_depth,
                "peak_queue_depth": self.peak_queue_depth,
                "max_queue": self.max_queue,
                "accepted": self.accepted,
                "completed": self.completed,
                "shed": self.shed_count,
                "shed_unavailable": self.shed_unavailable,
                "epochs_forwarded": self.epochs_forwarded,
                "faults_injected": self.faults_injected,
                "alive": 0 if (self._crashed or self._shutdown) else 1,
                "crashed": 1 if self._crashed else 0,
            }
        # A fresh worker has an empty latency window; report an explicit
        # 0.0 rather than leaning on percentile([])'s behaviour.
        if latencies:
            snap["p50_latency_ms"] = percentile(latencies, 50) * 1e3
            snap["p99_latency_ms"] = percentile(latencies, 99) * 1e3
        else:
            snap["p50_latency_ms"] = 0.0
            snap["p99_latency_ms"] = 0.0
        metrics = self.service.metrics
        snap["queries"] = metrics.queries
        snap["cache_hit_rate"] = metrics.cache_hit_rate
        snap["cache_hits"] = metrics.cache_hits
        snap["shard_epochs_applied"] = self.service.epochs_applied
        return snap

    def shutdown(self) -> None:
        """Stop the executor (idempotent); pending tasks finish first."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        self._executor.shutdown(wait=True)

    def __repr__(self) -> str:
        return (
            f"ShardWorker(shard={self.spec.shard_id}, "
            f"replica={self.replica_index}, "
            f"nodes={self.spec.node_count}, queue={self.queue_depth}/"
            f"{self.max_queue}, shed={self.shed_count})"
        )
