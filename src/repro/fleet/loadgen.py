"""Seeded skewed load generation and exactness auditing for the fleet.

Real traveller demand is heavily skewed — a few origins (downtown,
the airport) dominate the OD matrix. The generator reproduces that
shape deterministically: node ranks come from a seeded shuffle, draw
weights follow a Zipf law ``1 / (rank + 1)^alpha``, and every OD pair
is drawn with one :class:`random.Random` stream, so a (seed, alpha,
queries) triple names one exact workload forever.

The stream is replayed **concurrently** against a
:class:`~repro.fleet.router.FleetRouter` from a thread pool, in
rounds. Between rounds the driver applies one traffic epoch to the
*parent* graph (the router is subscribed, so the epoch fans out to
every shard worker and the cut-cost table) while the pool is
quiescent. This makes the audit airtight: every answer in a round was
served against exactly one parent-graph state, so each non-shed answer
is checked by :class:`repro.audit.Oracle` on that state — cost
equality with whole-graph Dijkstra *and* that the returned path is a
real parent walk whose edge costs sum to the reported cost. Mid-epoch
consistency (answers racing the fan-out) is exercised separately by
the fleet test suite's chain-legality tests. A kill schedule can also
hard-kill replicas between rounds (the chaos bench's failure pattern).

A run is **clean** when zero answers were inexact or stale and every
query was either answered or explicitly shed — nothing dropped. Each
answer's outcome goes into an ordered record log whose CRC32 is the
run's **determinism key**; with ``concurrency=1`` same-seed runs give
identical keys.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.audit import Oracle
from repro.graphs.graph import Graph, NodeId
from repro.service.metrics import Snapshot, percentile
from repro.traffic.feed import TrafficFeed

from repro.fleet.router import FleetResult, FleetRouter


@dataclass
class FleetLoadConfig:
    """One reproducible skewed workload against one fleet."""

    queries: int = 2000
    #: Query stream is split into this many rounds; one traffic epoch
    #: is applied (quiesced) before every round after the first.
    rounds: int = 4
    concurrency: int = 8
    #: Zipf skew exponent; 0 degenerates to uniform demand.
    alpha: float = 1.1
    seed: int = 1993
    #: Edges perturbed per inter-round epoch (multiplier in [0.5, 2]).
    epoch_edges: int = 32
    #: ``(round_index, shard_id)``: before that round starts, the
    #: shard's highest replica index is hard-killed.
    kills: Tuple[Tuple[int, int], ...] = ()


@dataclass
class FleetLoadReport:
    """Outcome of one load run: counts, SLOs, and the audit verdict."""

    config: FleetLoadConfig
    shard_count: int = 0
    cut_edges: int = 0
    queries: int = 0
    answered: int = 0
    found: int = 0
    not_found: int = 0
    shed: int = 0
    cross_shard: int = 0
    stitched: int = 0
    audited: int = 0
    inexact: int = 0
    #: Queries where at least one stage raced a second replica.
    hedged: int = 0
    #: Replica failovers and same-replica retries across all queries
    #: (shed queries included — the ladder was climbed either way).
    failovers: int = 0
    retries: int = 0
    epochs_applied: int = 0
    #: Answers exact at the previous epoch only — the failure mode
    #: version-pinned fan-out must prevent.
    stale_serves: int = 0
    #: CRC32 over :attr:`records`; timing-independent.
    determinism_key: int = 0
    wall_s: float = 0.0
    throughput_qps: float = 0.0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    snapshot: Dict[str, Snapshot] = field(default_factory=dict)
    #: First few inexact answers, for diagnostics.
    inexact_samples: List[str] = field(default_factory=list)
    #: Ordered per-answer log: (round, source, dest, shed, found, cost).
    records: List[Tuple] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Exact-or-flagged held: nothing wrong, stale, or dropped."""
        return (
            self.inexact == 0
            and self.stale_serves == 0
            and self.answered + self.shed == self.queries
        )

    @property
    def availability(self) -> float:
        """Fraction of queries answered (the rest were explicit sheds)."""
        return self.answered / self.queries if self.queries else 0.0

    def to_snapshot(self) -> Snapshot:
        """Flat numeric summary (for benchmark JSON emission)."""
        return {
            "queries": self.queries,
            "answered": self.answered,
            "found": self.found,
            "not_found": self.not_found,
            "shed": self.shed,
            "cross_shard": self.cross_shard,
            "stitched": self.stitched,
            "audited": self.audited,
            "inexact": self.inexact,
            "hedged": self.hedged,
            "failovers": self.failovers,
            "retries": self.retries,
            "availability": self.availability,
            "epochs_applied": self.epochs_applied,
            "stale_serves": self.stale_serves,
            "determinism_key": self.determinism_key,
            "shard_count": self.shard_count,
            "cut_edges": self.cut_edges,
            "wall_s": self.wall_s,
            "throughput_qps": self.throughput_qps,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "clean": int(self.clean),
        }

    def tally(self, oracle: Oracle, result: FleetResult, round_index: int) -> str:
        """Count and record one answer; return the oracle's verdict.

        Shed answers are counted, not priced; a stale or inexact one is
        recorded with :meth:`flag`.
        """
        self.queries += 1
        if result.hedged:
            self.hedged += 1
        self.failovers += result.failovers
        self.retries += result.retries
        verdict = oracle.check(result.source, result.destination, result)
        pair = (round_index, result.source, result.destination)
        if result.shed:
            self.shed += 1
            self.records.append(pair + (1, 0, -1.0))
            return verdict.kind
        cost = round(result.cost, 9) if result.found else -1.0
        self.records.append(pair + (0, int(result.found), cost))
        self.answered += 1
        if result.found:
            self.found += 1
        else:
            self.not_found += 1
        if result.cross_shard:
            self.cross_shard += 1
        if result.stitched:
            self.stitched += 1
        self.audited += 1
        if verdict.kind == "stale":
            self.stale_serves += 1
        if verdict.kind != "exact":
            self.flag(round_index, verdict.detail)
        return verdict.kind

    def finish(
        self, started: float, latencies: List[float],
        snapshot: Dict[str, Snapshot],
    ) -> None:
        """Close the run begun at ``started`` (a ``perf_counter`` time)."""
        self.wall_s = time.perf_counter() - started
        self.throughput_qps = (
            self.queries / self.wall_s if self.wall_s > 0 else 0.0
        )
        self.p50_latency_ms = percentile(latencies, 50) * 1e3
        self.p99_latency_ms = percentile(latencies, 99) * 1e3
        self.snapshot = snapshot
        self.determinism_key = zlib.crc32(repr(tuple(self.records)).encode("utf-8"))

    def flag(self, round_index: int, complaint: str) -> None:
        """Record one inexact answer (keeping the first few as samples)."""
        self.inexact += 1
        if len(self.inexact_samples) < 8:
            self.inexact_samples.append(f"round {round_index}: {complaint}")


def zipf_pairs(
    graph: Graph, count: int, alpha: float, seed: int
) -> List[Tuple[NodeId, NodeId]]:
    """``count`` seeded OD pairs with Zipf-skewed endpoint popularity.

    Node popularity rank is a seeded permutation of insertion order,
    so the hot set is arbitrary map regions, not a geometric corner;
    origins and destinations share the skew (hot nodes attract trips
    in both directions). Self-pairs are kept — a traveller asking for
    a route to where they stand is a legal (trivial) query.
    """
    rng = random.Random(seed)
    nodes = list(graph.node_ids())
    rng.shuffle(nodes)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(nodes))]
    sources = rng.choices(nodes, weights=weights, k=count)
    targets = rng.choices(nodes, weights=weights, k=count)
    return list(zip(sources, targets))


def epoch_rounds(
    graph: Graph, config: FleetLoadConfig
) -> Tuple[List[List[Tuple[NodeId, NodeId]]], Callable[[], List[Tuple]]]:
    """The workload's query rounds and its epoch generator.

    Returns ``(rounds, next_epoch)``: the seeded Zipf stream split
    round-robin into ``config.rounds`` rounds, and a function drawing
    one epoch's absolute cost updates (``epoch_edges`` edges, each at
    its free-flow cost times a multiplier in [0.5, 2]) from one seeded
    stream. The driver applies one epoch before every round after the
    first.
    """
    pairs = zipf_pairs(graph, config.queries, config.alpha, config.seed)
    epoch_rng = random.Random(config.seed + 1)
    base_costs = {
        (edge.source, edge.target): edge.cost for edge in graph.edges()
    }
    rounds = max(1, config.rounds)

    def next_epoch() -> List[Tuple]:
        edges = epoch_rng.sample(
            sorted(base_costs), k=min(config.epoch_edges, len(base_costs))
        )
        return [
            (source, target,
             base_costs[(source, target)] * epoch_rng.uniform(0.5, 2.0))
            for source, target in edges
        ]

    return [pairs[index::rounds] for index in range(rounds)], next_epoch


def run_fleet_load(
    graph: Graph,
    router: FleetRouter,
    feed: TrafficFeed,
    config: Optional[FleetLoadConfig] = None,
) -> FleetLoadReport:
    """Replay one skewed concurrent workload; audit every answer.

    ``feed`` must be a TrafficFeed over ``graph`` with ``router``
    subscribed — the run applies its inter-round epochs through it so
    the fleet sees exactly what a production traffic source would
    deliver. ``config.kills`` kill the router's highest replica index
    of a shard before a round. The caller keeps ownership of the
    router (no shutdown).
    """
    config = config or FleetLoadConfig()
    report = FleetLoadReport(
        config=config,
        shard_count=router.partition.shard_count,
        cut_edges=len(router.partition.cut_edges),
    )
    per_round, next_epoch = epoch_rounds(graph, config)
    latencies: List[float] = []
    lock = threading.Lock()
    oracle = Oracle(graph)

    started = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=max(1, config.concurrency),
        thread_name_prefix="fleetload",
    ) as pool:
        for round_index, round_pairs in enumerate(per_round):
            if round_index > 0 and config.epoch_edges > 0:
                # Quiesced between rounds: the pool drained the prior
                # round's futures, so this epoch defines the exact
                # graph state every answer below is audited against.
                feed.apply(next_epoch())
                oracle.observe_epoch()
                report.epochs_applied += 1
            for kill_round, shard_id in config.kills:
                if kill_round == round_index:
                    replicas = router.workers[shard_id].replica_count
                    router.kill_replica(shard_id, replicas - 1)

            def serve(pair: Tuple[NodeId, NodeId]) -> FleetResult:
                result = router.plan(pair[0], pair[1])
                with lock:
                    latencies.append(result.latency_s)
                return result

            for result in list(pool.map(serve, round_pairs)):
                report.tally(oracle, result, round_index)
    report.finish(started, latencies, router.snapshot())
    return report
