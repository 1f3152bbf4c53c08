"""Replay driver: mixed query/update workloads with staleness auditing.

This is the traffic subsystem's proving ground. It marches a simulated
clock through *rounds*: each round applies one update epoch (profile
tick, random re-pricing sweep, or incident spike) and then fires a
burst of concurrent ``plan`` calls — plus one ``plan_many`` batch — at
the :class:`~repro.service.RouteService`. Between rounds it audits
every served answer against a fresh recomputation, so the headline
numbers are trustworthy:

* **hit rate** — warm cache hits surviving across epochs is exactly
  what edge-granular invalidation buys;
* **stale serves** — answers whose cost differs from a fresh plan at
  the epoch they were served under; the subsystem's contract is that
  this is always **zero**, for either invalidation policy;
* **p50/p95 latency** — the serving-side view of invalidation
  precision (an evicted answer is a cache miss is a full plan).

:func:`compare_invalidation` runs the identical workload (same seed,
same epochs, same query schedule) under the edge-granular and
whole-graph policies and reports the warm-hit retention ratio — the
number the ROADMAP's "serve heavy traffic" goal actually cares about.
"""

from __future__ import annotations

import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.planner import RoutePlanner
from repro.graphs.graph import Graph, NodeId
from repro.service import RouteService
from repro.service.metrics import percentile
from repro.traffic.feed import TrafficFeed

EdgeKey = Tuple[NodeId, NodeId]


@dataclass
class ReplayConfig:
    """Knobs for one replay run. Defaults give a brisk, deterministic mix."""

    rounds: int = 8
    queries_per_round: int = 40
    distinct_pairs: int = 24
    concurrency: int = 4
    batch_size: int = 8
    #: "replace" redraws pairs per query (intra-round repeats possible);
    #: "unique" samples each round's queries without replacement, so
    #: warm hits can only come from answers retained across rounds.
    sample_mode: str = "replace"
    #: Apply an epoch before every Nth round (1 = every round).
    update_period: int = 1
    #: Fraction of edges re-priced by each epoch (random sweep mode).
    update_fraction: float = 0.05
    #: Random multiplier range applied to base costs (random sweep mode).
    update_factor_range: Tuple[float, float] = (0.6, 2.5)
    #: Optional congestion profile; when set, epochs are profile ticks.
    profile: object = None
    minutes_start: float = 7 * 60.0
    minutes_step: float = 5.0
    #: Audit every answer against a fresh recomputation.
    verify: bool = True
    #: Apply one extra epoch concurrently with each round's queries.
    mid_round_updates: bool = False
    seed: int = 1993


@dataclass
class ReplayReport:
    """Outcome of one replay run (plus the audit verdict)."""

    invalidation: str
    rounds: int
    epochs: int
    deltas_applied: int
    queries: int
    cache_hits: int
    hit_rate: float
    stale_serves: int
    p50_ms: float
    p95_ms: float
    evicted: int
    retained: int
    plan_retries: int
    wall_s: float

    def summary_lines(self) -> List[str]:
        """Human-readable report block for the CLI."""
        return [
            f"invalidation policy: {self.invalidation}",
            f"rounds: {self.rounds} ({self.epochs} epochs, "
            f"{self.deltas_applied} deltas)",
            f"queries: {self.queries} ({self.cache_hits} warm hits, "
            f"hit rate {self.hit_rate:.3f})",
            f"stale serves: {self.stale_serves}",
            f"latency: p50 {self.p50_ms:.2f} ms / p95 {self.p95_ms:.2f} ms",
            f"cache churn: {self.evicted} evicted, {self.retained} retained",
            f"single-epoch retries: {self.plan_retries}",
            f"wall clock: {self.wall_s:.2f} s",
        ]


class _StalenessAuditor:
    """Check served answers against fresh plans on epoch snapshots.

    Keeps a copy of the graph at every epoch boundary. An answer is
    *clean* if its cost equals the fresh optimal cost on the snapshot
    it was served under — by default only the **current** epoch counts
    (quiesced rounds); with mid-round updates an answer may predate the
    concurrent epoch, so the previous snapshot is accepted too, but a
    cost matching *no* single epoch (mixed pricing) is always stale.
    """

    def __init__(self, service: RouteService) -> None:
        self._planner = RoutePlanner()
        self._algorithm = service.default_algorithm
        self._estimator = service.default_estimator
        self._snapshots: List[Graph] = []
        self._fresh: Dict[Tuple[int, NodeId, NodeId], float] = {}

    def observe_epoch(self, graph: Graph) -> None:
        self._snapshots.append(graph.copy())

    def _fresh_cost(self, index: int, source: NodeId, destination: NodeId) -> float:
        key = (index, source, destination)
        if key not in self._fresh:
            result = self._planner.plan(
                self._snapshots[index], source, destination,
                self._algorithm, self._estimator,
            )
            self._fresh[key] = result.cost
        return self._fresh[key]

    def is_stale(
        self,
        source: NodeId,
        destination: NodeId,
        cost: float,
        accept_previous: bool = False,
    ) -> bool:
        candidates = [len(self._snapshots) - 1]
        if accept_previous and len(self._snapshots) > 1:
            candidates.append(len(self._snapshots) - 2)
        for index in candidates:
            fresh = self._fresh_cost(index, source, destination)
            if math.isclose(cost, fresh, rel_tol=1e-9, abs_tol=1e-9) or (
                math.isinf(cost) and math.isinf(fresh)
            ):
                return False
        return True


def run_replay(
    graph: Graph,
    config: Optional[ReplayConfig] = None,
    service: Optional[RouteService] = None,
    feed: Optional[TrafficFeed] = None,
) -> ReplayReport:
    """Replay a mixed query/update workload and audit every answer.

    ``service`` and ``feed`` default to fresh instances wired together;
    a supplied service is subscribed to the feed automatically.
    """
    config = config or ReplayConfig()
    service = service or RouteService()
    if feed is None:
        feed = TrafficFeed(graph)
    feed.subscribe(service)
    rng = random.Random(config.seed)

    node_ids = list(graph.node_ids())
    if len(node_ids) < 2:
        raise ValueError("replay needs a graph with at least two nodes")
    pairs: List[Tuple[NodeId, NodeId]] = []
    while len(pairs) < config.distinct_pairs:
        source, destination = rng.choice(node_ids), rng.choice(node_ids)
        if source != destination:
            pairs.append((source, destination))
    base_edges = sorted(feed._base)
    sweep_size = max(1, int(round(config.update_fraction * len(base_edges))))

    auditor = _StalenessAuditor(service) if config.verify else None
    if auditor is not None:
        auditor.observe_epoch(graph)

    before = service.snapshot()
    latencies: List[float] = []
    latency_lock = threading.Lock()
    stale_serves = 0
    minutes = config.minutes_start
    started = time.perf_counter()

    def apply_epoch(clock: float) -> None:
        if config.profile is not None:
            feed.tick(config.profile, clock)
        else:
            touched = rng.sample(base_edges, sweep_size)
            factor_low, factor_high = config.update_factor_range
            feed.apply(
                [
                    (u, v, feed.base_cost(u, v) * rng.uniform(factor_low, factor_high))
                    for u, v in touched
                ],
                minutes=clock,
            )
        if auditor is not None:
            auditor.observe_epoch(graph)

    def serve(query: Tuple[NodeId, NodeId]):
        t0 = time.perf_counter()
        result = service.plan(graph, query[0], query[1])
        with latency_lock:
            latencies.append(time.perf_counter() - t0)
        return query, result

    for round_index in range(config.rounds):
        if round_index > 0 and round_index % max(1, config.update_period) == 0:
            apply_epoch(minutes)
        minutes += config.minutes_step
        if config.sample_mode == "unique":
            round_queries = rng.sample(
                pairs, min(config.queries_per_round, len(pairs))
            )
        else:
            round_queries = [
                rng.choice(pairs) for _ in range(config.queries_per_round)
            ]
        batch = round_queries[: config.batch_size]
        singles = round_queries[config.batch_size:]

        answers: List[Tuple[Tuple[NodeId, NodeId], object]] = []
        mid_epoch_thread = None
        if config.mid_round_updates and round_index > 0:
            mid_epoch_thread = threading.Thread(
                target=apply_epoch, args=(minutes,)
            )
        with ThreadPoolExecutor(max_workers=max(1, config.concurrency)) as pool:
            futures = [pool.submit(serve, query) for query in singles]
            if mid_epoch_thread is not None:
                mid_epoch_thread.start()
            if batch:
                batch_results = service.plan_many(graph, batch)
                answers.extend(zip(batch, batch_results))
            answers.extend(future.result() for future in futures)
        if mid_epoch_thread is not None:
            mid_epoch_thread.join()
            minutes += config.minutes_step

        if auditor is not None:
            for (source, destination), result in answers:
                if auditor.is_stale(
                    source,
                    destination,
                    result.cost,
                    accept_previous=config.mid_round_updates,
                ):
                    stale_serves += 1

    wall_s = time.perf_counter() - started
    after = service.snapshot()
    queries = int(after["queries"] - before["queries"])
    hits = int(after["cache_hits"] - before["cache_hits"])
    return ReplayReport(
        invalidation=service.invalidation,
        rounds=config.rounds,
        epochs=feed.epoch_count,
        deltas_applied=feed.deltas_applied,
        queries=queries,
        cache_hits=hits,
        hit_rate=hits / queries if queries else 0.0,
        stale_serves=stale_serves,
        p50_ms=percentile(latencies, 50) * 1e3,
        p95_ms=percentile(latencies, 95) * 1e3,
        evicted=int(after["traffic_evicted"] - before["traffic_evicted"]),
        retained=int(after["traffic_retained"] - before["traffic_retained"]),
        plan_retries=int(after["plan_retries"] - before["plan_retries"]),
        wall_s=wall_s,
    )


def compare_invalidation(
    graph_factory,
    config: Optional[ReplayConfig] = None,
) -> Dict[str, object]:
    """Run the identical replay under both invalidation policies.

    ``graph_factory`` must build deterministically identical graphs
    (e.g. ``lambda: make_paper_grid(20, "variance")``) so both runs see
    the same costs, the same epochs and the same query schedule.
    Returns the two :class:`ReplayReport` records plus the warm-hit
    retention ratio (edge-granular hits over whole-graph hits).
    """
    config = config or ReplayConfig()
    reports: Dict[str, ReplayReport] = {}
    for policy in ("edge", "graph"):
        graph = graph_factory()
        service = RouteService(invalidation=policy)
        reports[policy] = run_replay(graph, config=config, service=service)
    graph_hits = reports["graph"].cache_hits
    edge_hits = reports["edge"].cache_hits
    ratio = edge_hits / graph_hits if graph_hits else float("inf")
    return {
        "edge": reports["edge"],
        "graph": reports["graph"],
        "retention_ratio": ratio,
    }
