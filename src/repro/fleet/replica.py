"""ReplicaSet: N health-checked ShardWorkers serving one shard.

One :class:`ReplicaSet` fronts ``replicas`` copies of a shard's full
serving stack. Replica 0 serves the spec's own subgraph; every peer
gets an **independent copy** with a fresh uid — two feeds applying the
same epoch to one shared graph would double-apply its deltas, and a
shared uid would alias the CSR build cache and replica result caches.

Three mechanisms turn the copies into fault tolerance:

**Version-pinned reads.** The set keeps one *epoch target* (how many
epochs the router fanned out to this shard) and a per-replica epoch
version bumped only when that replica actually applied the deltas. A
replica may only serve while its version equals the target, so a
replica that was dead — or mid-crash — during a fan-out can never
serve a cross-epoch (stale) answer: it is simply not in the serving
order. Replicas never resurrect, so a lagging replica stays lagging.

**Health scoring.** Every dispatch outcome lands in a rolling window
per replica (:class:`HealthPolicy`). A replica whose recent failure
rate crosses the threshold is *unhealthy*: still eligible, but ordered
after every healthy peer, so sustained transient faults drain traffic
toward clean replicas without any operator action. A crashed replica
is dead, not unhealthy — it leaves the order entirely.

**Deadline + hedged dispatch.** :meth:`call` runs one logical stage
(a shard tree out of a source or into a destination) under a
wall-clock budget.
It submits to the best replica and waits up to the hedge threshold;
if the task has not come back (injected hang, long queue), it
*hedges* — launches the same task on the next replica and races the
two. Transient errors retry on the same replica with exponential
backoff, bounded by ``max_attempts``; crashes and cancellations fail
over immediately. When the budget expires, the stage reports a
timeout and the router sheds the query with a flag — the degradation
ladder is healthy replica → hedged/retried replica → shed, never a
silent drop and never a stale serve.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import CancelledError, FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel.result import PathResult
from repro.exceptions import (
    ShardUnavailableError,
    TransientWorkerError,
    WorkerCrash,
)
from repro.faults.workerplan import WorkerFaultPlan
from repro.graphs.graph import NodeId
from repro.service.metrics import Snapshot, percentile

from repro.fleet.partition import ShardSpec
from repro.fleet.worker import CliqueEdge, ShardTree, ShardWorker, StaleTree

_INF = float("inf")

#: Per-replica counters that aggregate by summation in slo_snapshot.
_SUM_KEYS = frozenset(
    {
        "queue_depth",
        "accepted",
        "completed",
        "shed",
        "shed_unavailable",
        "faults_injected",
        "alive",
        "crashed",
        "queries",
        "cache_hits",
    }
)
#: Counters where the set-level value is the max across replicas
#: (every replica sees the same epochs, so summing would multi-count).
_MAX_KEYS = frozenset(
    {"peak_queue_depth", "epochs_forwarded", "shard_epochs_applied"}
)


@dataclass(frozen=True)
class HealthPolicy:
    """Rolling-window health scoring for replica ordering."""

    #: Outcomes retained per replica.
    window: int = 32
    #: Below this many samples a replica is presumed healthy.
    min_samples: int = 4
    #: Failure fraction at-or-above which the replica is unhealthy.
    failure_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(
                "failure_threshold must be in (0, 1], got "
                f"{self.failure_threshold!r}"
            )


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-query and per-stage wall-clock budgets for fleet serving.

    The defaults are deliberately generous (seconds against
    millisecond stages) so a fleet built without chaos behaves exactly
    like the pre-deadline fleet; chaos configurations tighten them to
    force the hedge/shed machinery to carry the load.
    """

    #: Whole-query budget; every stage is clipped to what remains.
    total_s: float = 5.0
    #: One shard-tree stage (the source's out-tree, the destination's
    #: in-tree); a tree the router already holds dispatches nothing.
    boundary_s: float = 2.0
    #: Hedge threshold: how long a stage waits on one replica before
    #: racing a peer.
    hedge_s: float = 0.25
    #: Same-replica attempts per stage for transient errors.
    max_attempts: int = 3
    #: Base backoff between same-replica retries (doubles per retry).
    backoff_s: float = 0.002

    def __post_init__(self) -> None:
        for name in ("total_s", "boundary_s", "hedge_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")


@dataclass
class StageOutcome:
    """What one deadline-governed stage dispatch produced."""

    ok: bool = False
    value: Any = None
    shed_reason: str = ""
    #: Same-replica retries spent on transient errors.
    retries: int = 0
    #: Replica-to-replica failovers (crash, cancellation, refusal,
    #: retries exhausted).
    failovers: int = 0
    #: Hedge launches (stage exceeded the hedge threshold).
    hedges: int = 0
    timed_out: bool = False


class ReplicaSet:
    """Health-checked, deadline-dispatched replicas of one shard."""

    def __init__(
        self,
        spec: ShardSpec,
        replicas: int = 1,
        max_queue: int = 128,
        threads: int = 2,
        cache_capacity: int = 2048,
        clock=time.perf_counter,
        fault_plans: Optional[Dict[int, WorkerFaultPlan]] = None,
        health: Optional[HealthPolicy] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.spec = spec
        self.shard_id = spec.shard_id
        self.health = health if health is not None else HealthPolicy()
        self._clock = clock
        self._sleep = sleeper
        plans = fault_plans or {}
        self.workers: List[ShardWorker] = [
            ShardWorker(
                spec,
                max_queue=max_queue,
                threads=threads,
                cache_capacity=cache_capacity,
                clock=clock,
                graph=spec.graph if index == 0 else spec.graph.copy(),
                replica_index=index,
                fault_plan=plans.get(index),
                sleeper=sleeper,
            )
            for index in range(replicas)
        ]
        self._lock = threading.Lock()
        #: Epochs the router fanned out to this shard.
        self._epoch_target = 0
        #: Epochs each replica actually applied.
        self._epoch_versions = [0] * replicas
        self._outcomes: List[deque] = [
            deque(maxlen=self.health.window) for _ in range(replicas)
        ]
        self._shutdown = False

    # ------------------------------------------------------------------
    # health + serving order
    # ------------------------------------------------------------------
    def _record(self, index: int, ok: bool) -> None:
        with self._lock:
            self._outcomes[index].append(ok)

    def replica_healthy(self, index: int) -> bool:
        """Rolling-window health: presumed healthy until proven sick."""
        if not self.workers[index].alive:
            return False
        with self._lock:
            outcomes = list(self._outcomes[index])
        if len(outcomes) < self.health.min_samples:
            return True
        failure_rate = 1.0 - sum(outcomes) / len(outcomes)
        return failure_rate < self.health.failure_threshold

    def replica_in_sync(self, index: int) -> bool:
        with self._lock:
            return self._epoch_versions[index] == self._epoch_target

    def serving_order(self) -> List[int]:
        """Replica indices eligible to serve, best first.

        Eligible = alive **and** epoch-in-sync (the stale-serve guard:
        a replica that missed a fan-out is simply not here). Healthy
        replicas come before unhealthy ones; index breaks ties so the
        order — and therefore which replica's fault schedule a query
        consumes — is deterministic.
        """
        eligible = [
            index
            for index, worker in enumerate(self.workers)
            if worker.alive and self.replica_in_sync(index)
        ]
        healthy = [i for i in eligible if self.replica_healthy(i)]
        unhealthy = [i for i in eligible if not self.replica_healthy(i)]
        return healthy + unhealthy

    @property
    def dark(self) -> bool:
        """True when no replica can serve (availability lost, never
        correctness: the router sheds instead of guessing)."""
        return not self.serving_order()

    def kill(self, replica_index: int) -> None:
        """Hard-kill one replica (chaos replica kills)."""
        self.workers[replica_index].kill()

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def apply_deltas(
        self, updates: Sequence[Tuple[NodeId, NodeId, float]]
    ) -> None:
        """Fan one epoch's shard slice out to every live replica.

        The target bumps unconditionally; each replica's version bumps
        only after it applied the deltas. A dead replica, or one whose
        apply raised, therefore falls permanently out of sync and out of
        the serving order — the mechanism that makes stale serves
        impossible rather than merely unlikely. A replica that raises
        does not stop the others; the first failure is re-raised after
        all of them.
        """
        if not updates:
            return
        with self._lock:
            self._epoch_target += 1
        failure = None
        for index, worker in enumerate(self.workers):
            if not worker.alive:
                continue
            try:
                worker.apply_deltas(updates)
            except Exception as exc:
                if failure is None:
                    failure = exc
                continue
            with self._lock:
                self._epoch_versions[index] = self._epoch_target
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    # deadline-governed hedged dispatch
    # ------------------------------------------------------------------
    def call(
        self,
        method: str,
        args: Tuple,
        budget_s: float,
        hedge_s: float,
        max_attempts: int = 3,
        backoff_s: float = 0.0,
    ) -> StageOutcome:
        """Run one stage (``ShardWorker`` method) with failover.

        Walks the degradation ladder: best serving replica first,
        hedge to the next when the threshold trips, bounded
        same-replica retry with exponential backoff on transient
        errors, immediate failover on crash/cancellation, explicit
        shed (``ok=False`` + reason) when the budget expires or every
        replica is exhausted.
        """
        outcome = StageOutcome()
        deadline = self._clock() + budget_s
        candidates = self.serving_order()
        if not candidates:
            outcome.shed_reason = f"shard {self.shard_id} dark"
            return outcome
        next_candidate = 0
        inflight: Dict[Future, int] = {}
        attempts: Dict[int, int] = {}
        saw_refusal = False

        def submit_to(index: int) -> bool:
            worker = self.workers[index]
            future = worker.submit(getattr(worker, method), *args)
            if future is None:
                nonlocal saw_refusal
                saw_refusal = True
                return False
            attempts[index] = attempts.get(index, 0) + 1
            inflight[future] = index
            return True

        def launch_next() -> bool:
            nonlocal next_candidate
            while next_candidate < len(candidates):
                index = candidates[next_candidate]
                next_candidate += 1
                if submit_to(index):
                    return True
            return False

        if not launch_next():
            outcome.shed_reason = (
                f"shard {self.shard_id} queue full (all replicas refused)"
                if saw_refusal
                else f"shard {self.shard_id} dark"
            )
            return outcome

        while True:
            remaining = deadline - self._clock()
            if remaining <= 0:
                # Budget spent with tasks still in flight: abandon
                # them (a hung replica keeps the thread; results are
                # discarded) and report the timeout.
                for index in inflight.values():
                    self._record(index, False)
                outcome.timed_out = True
                outcome.shed_reason = (
                    f"shard {self.shard_id} stage '{method}' deadline "
                    "exceeded"
                )
                return outcome
            done, _pending = wait(
                list(inflight),
                timeout=min(hedge_s, remaining),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Hedge threshold tripped with nothing back yet: race
                # the next replica if one is left, else keep waiting
                # out the budget.
                if launch_next():
                    outcome.hedges += 1
                continue
            for future in done:
                index = inflight.pop(future)
                try:
                    value = future.result()
                except TransientWorkerError:
                    self._record(index, False)
                    if (
                        attempts.get(index, 0) < max_attempts
                        and self.workers[index].alive
                    ):
                        outcome.retries += 1
                        if backoff_s > 0:
                            self._sleep(
                                backoff_s * (2 ** (attempts[index] - 1))
                            )
                        if not submit_to(index) and not inflight:
                            if launch_next():
                                outcome.failovers += 1
                    else:
                        if launch_next():
                            outcome.failovers += 1
                except (WorkerCrash, CancelledError):
                    self._record(index, False)
                    if launch_next():
                        outcome.failovers += 1
                else:
                    self._record(index, True)
                    outcome.ok = True
                    outcome.value = value
                    return outcome
            if not inflight and not launch_next():
                outcome.shed_reason = (
                    f"shard {self.shard_id} queue full (all replicas "
                    "refused)"
                    if saw_refusal
                    else f"shard {self.shard_id} replicas exhausted"
                )
                return outcome

    # ------------------------------------------------------------------
    # router-thread direct calls (overlay cliques, shard-local plans)
    # ------------------------------------------------------------------
    def _serving_worker(self) -> ShardWorker:
        order = self.serving_order()
        if not order:
            raise ShardUnavailableError(self.shard_id)
        return self.workers[order[0]]

    def plan_direct(self, source: NodeId, destination: NodeId) -> PathResult:
        """Shard-local plan in the caller's thread.

        Runs :meth:`ShardWorker.plan` on the best serving replica
        without the submit boundary. The router materializes paths
        from shard trees and does not call this. Raises
        :class:`~repro.exceptions.ShardUnavailableError` when dark.
        """
        return self._serving_worker().plan(source, destination)

    def repair(self, method: str, root: NodeId, stale: StaleTree) -> ShardTree:
        """A held tree brought to the current epoch, in the caller's
        thread: ``method`` (``distances_to_boundary`` or
        ``distances_from_boundary``) with ``stale`` on the best serving
        replica, without the submit boundary. A repair costs a fraction
        of a queue handoff, and only an in-sync replica is asked.
        Raises :class:`~repro.exceptions.ShardUnavailableError` when
        dark.
        """
        return getattr(self._serving_worker(), method)(root, stale)

    def boundary_clique(
        self, held: Optional[Dict[NodeId, StaleTree]] = None
    ) -> Tuple[List[CliqueEdge], Dict[NodeId, ShardTree]]:
        """The shard's pruned exact clique and boundary out-trees, from
        the best serving replica (:meth:`ShardWorker.boundary_clique`,
        which reuses the ``held`` trees).

        Raises :class:`~repro.exceptions.ShardUnavailableError` when
        the shard is dark — the router marks the overlay *degraded*
        and sheds stitched queries rather than serving an overlay
        that silently lost this shard's interior.
        """
        return self._serving_worker().boundary_clique(held)

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    @property
    def replica_count(self) -> int:
        return len(self.workers)

    def slo_snapshot(self) -> Snapshot:
        """One flat numeric leaf aggregating every replica.

        Counters sum (or max, for per-epoch counters every replica
        shares); latency percentiles are recomputed over the merged
        rolling windows; the cache hit rate is re-derived from summed
        hits and queries. Replica-set health gauges ride along.
        """
        snaps = [worker.slo_snapshot() for worker in self.workers]
        merged: Snapshot = dict(snaps[0])
        for snap in snaps[1:]:
            for key, value in snap.items():
                if key in _SUM_KEYS:
                    merged[key] = merged.get(key, 0) + value
                elif key in _MAX_KEYS:
                    merged[key] = max(merged.get(key, 0), value)
        samples = [
            sample
            for worker in self.workers
            for sample in worker.latency_samples()
        ]
        if samples:
            merged["p50_latency_ms"] = percentile(samples, 50) * 1e3
            merged["p99_latency_ms"] = percentile(samples, 99) * 1e3
        else:
            merged["p50_latency_ms"] = 0.0
            merged["p99_latency_ms"] = 0.0
        total_queries = sum(snap["queries"] for snap in snaps)
        merged["cache_hit_rate"] = (
            sum(snap["cache_hits"] for snap in snaps) / total_queries
            if total_queries
            else 0.0
        )
        order = self.serving_order()
        with self._lock:
            epoch_target = self._epoch_target
        merged["replicas"] = len(self.workers)
        merged["replicas_serving"] = len(order)
        merged["replicas_healthy"] = sum(
            1 for i in range(len(self.workers)) if self.replica_healthy(i)
        )
        merged["replicas_in_sync"] = sum(
            1
            for i in range(len(self.workers))
            if self.workers[i].alive and self.replica_in_sync(i)
        )
        merged["epoch_target"] = epoch_target
        merged["dark"] = 0 if order else 1
        return merged

    def shutdown(self) -> None:
        """Stop every replica (idempotent)."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for worker in self.workers:
            worker.shutdown()

    def __repr__(self) -> str:
        return (
            f"ReplicaSet(shard={self.shard_id}, "
            f"replicas={len(self.workers)}, "
            f"serving={len(self.serving_order())})"
        )
