"""ShardWorker: one RouteService per regional shard, behind a bounded queue.

Each worker owns the full single-shard serving stack the earlier PRs
built, instantiated over its shard's *subgraph*:

* a :class:`~repro.service.service.RouteService` with its own result
  cache, estimator pool and metrics (shard caches never alias — the
  shard graph has a fresh uid);
* a :class:`~repro.traffic.feed.TrafficFeed` over the shard subgraph,
  with the service subscribed, so a parent epoch forwarded by the
  router invalidates exactly like a native epoch would;
* a maintained **reversed** copy of the shard graph (costs updated on
  every epoch), so one-to-boundary distances *into* a destination are
  a plain forward SSSP on the reversed copy — both directions run the
  CSR :func:`~repro.kernel.csr.sssp` kernel and share its
  fingerprint-keyed build cache;
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
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel.result import PathResult
from repro.exceptions import TransientWorkerError, WorkerCrash
from repro.faults.workerplan import WorkerFaultPlan
from repro.graphs.graph import Graph, NodeId
from repro.kernel import csr
from repro.service import RouteService
from repro.service.metrics import Snapshot, percentile
from repro.traffic.feed import TrafficFeed

from repro.fleet.partition import ShardSpec


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
        accelerator: Optional[str] = None,
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
        self.accelerator = accelerator
        #: The graph this worker serves: the spec's subgraph for the
        #: primary replica, an independent copy (fresh uid) for peers.
        self.graph = graph if graph is not None else spec.graph
        self.replica_index = replica_index
        self.fault_plan = fault_plan
        self._sleep = sleeper
        # Dijkstra + zero estimator: always cost-optimal answers with
        # path provenance, so the shard cache retains warm entries
        # across epochs that miss the cached routes. With
        # ``accelerator`` set the service hosts a per-shard
        # preprocess → customize → query instance: shard-local plans
        # route through it, epochs forwarded by the router re-customize
        # it (through the shard feed subscription), and the boundary
        # clique is answered by point queries against it instead of one
        # SSSP per boundary node.
        self.service = RouteService(
            cache_capacity=cache_capacity,
            default_algorithm="dijkstra",
            default_estimator="zero",
            accelerator=accelerator,
        )
        self.feed = TrafficFeed(self.graph)
        self.feed.subscribe(self.service)
        # Reversed copy for boundary-to-destination distances; kept in
        # cost-sync with the forward subgraph by apply_deltas.
        self._reversed = self.graph.reversed()
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
        self.clique_point_queries = 0
        self.faults_injected = 0
        self.faults_by_kind: Dict[str, int] = {}
        self._latencies: deque = deque(maxlen=latency_window)

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

    def distances_to_boundary(self, source: NodeId) -> Dict[NodeId, float]:
        """Shard-internal distances ``source -> b`` for each boundary b.

        One CSR SSSP over the shard subgraph; unreachable boundary
        nodes are absent from the result.
        """
        dist = csr.sssp(self.graph, source)
        return {b: dist[b] for b in self.spec.boundary if b in dist}

    def distances_from_boundary(self, destination: NodeId) -> Dict[NodeId, float]:
        """Shard-internal distances ``b -> destination`` per boundary b.

        A forward CSR SSSP on the maintained reversed copy — same
        kernel, same build cache, no per-query graph reversal.
        """
        dist = csr.sssp(self._reversed, destination)
        return {b: dist[b] for b in self.spec.boundary if b in dist}

    def local_and_boundaries(
        self, source: NodeId, destination: NodeId
    ) -> Tuple[PathResult, Dict[NodeId, float], Dict[NodeId, float]]:
        """Same-shard bundle: one admitted task computes all three."""
        local = self.plan(source, destination)
        seeds = self.distances_to_boundary(source)
        tails = self.distances_from_boundary(destination)
        return local, seeds, tails

    def boundary_clique(self) -> List[Tuple[NodeId, NodeId, float]]:
        """Exact boundary-to-boundary shard-internal distances.

        This is the overlay's per-shard clique, recomputed after every
        epoch that invalidates the router's overlay. Without an
        accelerator it costs one SSSP per boundary node. With one, it
        is answered by point queries against the worker's accelerated
        state — which the epoch merely re-*customized* (the topology
        preprocess survives), so the fleet's per-epoch overlay refresh
        rides the customize phase instead of re-running boundary
        SSSPs. Pairs with no internal connection are omitted either
        way, and both paths return identical (cost-exact) cliques.
        """
        edges: List[Tuple[NodeId, NodeId, float]] = []
        accel = self.service.accelerator_instance(self.graph)
        if accel is not None:
            graph = self.graph
            queries = 0
            for b1 in self.spec.boundary:
                for b2 in self.spec.boundary:
                    if b2 == b1:
                        continue
                    run = accel.query(graph, b1, b2)
                    queries += 1
                    if run.found:
                        edges.append((b1, b2, run.cost))
            with self._lock:
                self.clique_point_queries += queries
            return edges
        for b1 in self.spec.boundary:
            dist = csr.sssp(self.graph, b1)
            for b2 in self.spec.boundary:
                if b2 is not b1 and b2 != b1 and b2 in dist:
                    edges.append((b1, b2, dist[b2]))
        return edges

    # ------------------------------------------------------------------
    # traffic epochs
    # ------------------------------------------------------------------
    def apply_deltas(
        self, updates: Sequence[Tuple[NodeId, NodeId, float]]
    ) -> None:
        """Absorb the shard-internal slice of one parent epoch.

        Applies the absolute costs through the shard's own feed (one
        shard fingerprint bump, service cache invalidated edge-
        granularly) and mirrors them onto the reversed copy so both
        SSSP directions price the new epoch.
        """
        if not updates:
            return
        self.feed.apply(updates)
        self._reversed.apply_cost_updates(
            [(target, source, cost) for source, target, cost in updates]
        )
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
        snap["clique_point_queries"] = self.clique_point_queries
        if self.accelerator is not None:
            accel = self.service.accelerator_instance(self.graph)
            for name, value in accel.snapshot().items():
                if name in (
                    "preprocesses",
                    "customizes",
                    "incremental_customizes",
                    "queries",
                    "preprocess_time_s",
                    "customize_time_s",
                ):
                    snap[f"accel_{name}"] = value
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
