"""Chaos replay: faults × traffic epochs × concurrent serving.

This is the one audited single-service replay driver. It marches a
:class:`~repro.service.RouteService` through rounds of traffic epochs
and concurrent ``plan``/``plan_many`` calls on either backend. With a
:class:`~repro.faults.FaultPlan` injecting transient I/O errors, torn
pages and latency into every relational run, the service still never
returns an **unflagged wrong route** — every served answer is either

* *exact*: :class:`repro.audit.Oracle` finds it optimal, path and
  cost, on the cost epoch it was served under, or
* *degraded*: explicitly flagged, with the fallback rung and root cause
  in ``degraded_reason``.

Determinism is the other half of the contract. With ``concurrency=1``
(the default) the whole replay — query schedule, epochs, fault
schedule, retry counts, every served cost — is a pure function of the
two seeds, summarised in :attr:`ChaosReport.determinism_key`; two runs
with the same config produce identical keys, and the ``tests/
test_chaos.py`` tier holds the driver to it. ``atis-repro bench-chaos``
exposes the same loop from the command line; ``--backend memory
--algorithm astar`` on the Minneapolis map is the sub-free-flow replay
(sweeps price edges below their straight-line length).
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.audit import Oracle
from repro.exceptions import FaultError
from repro.faults.plan import FaultPlan
from repro.graphs.graph import Graph, NodeId
from repro.service import RouteService
from repro.traffic.feed import TrafficFeed


@dataclass
class ChaosConfig:
    """Knobs for one chaos replay. Defaults give a brisk deterministic mix."""

    rounds: int = 6
    queries_per_round: int = 10
    distinct_pairs: int = 8
    #: 1 (default) serves queries sequentially — fully deterministic.
    #: Higher values exercise the locks but give up schedule replay.
    concurrency: int = 1
    batch_size: int = 3
    algorithm: str = "dijkstra"
    backend: str = "relational"
    #: Apply an epoch before every Nth round (0 disables traffic).
    update_period: int = 2
    update_fraction: float = 0.1
    update_factor_range: Tuple[float, float] = (0.7, 2.0)
    #: Apply one extra epoch concurrently with each round's queries
    #: (after the first); an answer exact at the epoch before it is
    #: then accepted too.
    mid_round_updates: bool = False
    #: Workload seed (query pairs, epoch sweeps).
    seed: int = 1993
    #: Fault-schedule seed and per-operation rates.
    #: Per-operation rates. A relational run issues hundreds to
    #: thousands of storage operations, so even these small rates fault
    #: most runs somewhere; rates much above ~1e-3 degrade nearly every
    #: answer (protected phases retry, but a fault in a non-idempotent
    #: phase — R initialisation, frontier mutation — degrades at once).
    fault_seed: int = 7
    read_error_rate: float = 0.0005
    write_error_rate: float = 0.0002
    torn_page_rate: float = 0.0002
    latency_rate: float = 0.001
    max_retries: int = 3
    degradation: Sequence[str] = ("memory", "last-good")

    def make_plan(self) -> FaultPlan:
        """The fault plan this config describes (fresh schedule state)."""
        return FaultPlan(
            seed=self.fault_seed,
            read_error_rate=self.read_error_rate,
            write_error_rate=self.write_error_rate,
            torn_page_rate=self.torn_page_rate,
            latency_rate=self.latency_rate,
        )


@dataclass
class ChaosReport:
    """Outcome of one chaos replay, with the audit verdict."""

    rounds: int
    epochs: int
    deltas_applied: int
    queries: int
    exact: int
    degraded: int
    unserved: int
    #: The contract counter: answers that were neither exact nor
    #: flagged. The chaos tier requires this to be zero.
    wrong_unflagged: int
    faults_injected: int
    fault_retries: int
    retries_exhausted: int
    memory_fallbacks: int
    last_good_served: int
    schedule_length: int
    schedule_digest: int
    #: CRC32 over the full ordered answer log + fault schedule + retry
    #: counters — identical configs must produce identical keys.
    determinism_key: int
    wall_s: float
    #: Ordered per-answer log: (round, source, dest, found, cost,
    #: degraded, rung). Kept for the determinism tests' diffing.
    records: List[Tuple] = field(default_factory=list)

    def summary_lines(self) -> List[str]:
        return [
            f"rounds: {self.rounds} ({self.epochs} epochs, "
            f"{self.deltas_applied} deltas)",
            f"queries: {self.queries} "
            f"({self.exact} exact, {self.degraded} degraded, "
            f"{self.unserved} unserved)",
            f"unflagged wrong answers: {self.wrong_unflagged}",
            f"faults injected: {self.faults_injected} "
            f"(schedule length {self.schedule_length}, "
            f"digest {self.schedule_digest})",
            f"retries: {self.fault_retries} absorbed, "
            f"{self.retries_exhausted} exhausted",
            f"fallbacks: {self.memory_fallbacks} in-memory, "
            f"{self.last_good_served} last-good",
            f"determinism key: {self.determinism_key}",
            f"wall clock: {self.wall_s:.2f} s",
        ]


def _degradation_rung(result: object) -> str:
    reason = getattr(result, "degraded_reason", "")
    return reason.split(":", 1)[0] if reason else ""


def run_chaos(
    graph: Graph,
    config: Optional[ChaosConfig] = None,
    service: Optional[RouteService] = None,
    feed: Optional[TrafficFeed] = None,
) -> ChaosReport:
    """Replay a faulted query/update workload and audit every answer.

    ``service`` defaults to a fresh :class:`RouteService` carrying the
    config's fault plan; pass one to inspect its mirrors afterwards (it
    should have been built with ``fault_plan=config.make_plan()``).
    """
    config = config or ChaosConfig()
    if service is None:
        service = RouteService(
            fault_plan=config.make_plan(),
            max_retries=config.max_retries,
            degradation=config.degradation,
            default_algorithm=config.algorithm,
            default_backend=config.backend,
        )
    fault_plan = service.fault_plan
    if feed is None:
        feed = TrafficFeed(graph)
    feed.subscribe(service)
    rng = random.Random(config.seed)

    node_ids = list(graph.node_ids())
    if len(node_ids) < 2:
        raise ValueError("chaos replay needs a graph with at least two nodes")
    pairs: List[Tuple[NodeId, NodeId]] = []
    while len(pairs) < config.distinct_pairs:
        source, destination = rng.choice(node_ids), rng.choice(node_ids)
        if source != destination:
            pairs.append((source, destination))
    base_edges = sorted(feed._base)
    sweep_size = max(1, int(round(config.update_fraction * len(base_edges))))

    oracle = Oracle(graph)

    before = service.snapshot()
    records: List[Tuple] = []
    exact = degraded = unserved = wrong_unflagged = 0
    started = time.perf_counter()

    def serve(pair: Tuple[NodeId, NodeId]):
        try:
            return service.plan(graph, pair[0], pair[1])
        except FaultError:
            # Every degradation rung failed (possible only with a
            # deliberately empty/limited ladder): the query goes
            # unanswered — loudly, never wrong.
            return None

    def apply_epoch() -> None:
        touched = rng.sample(base_edges, sweep_size)
        low, high = config.update_factor_range
        feed.apply(
            [
                (u, v, feed.base_cost(u, v) * rng.uniform(low, high))
                for u, v in touched
            ]
        )
        oracle.observe_epoch()

    for round_index in range(config.rounds):
        if (
            config.update_period > 0
            and round_index > 0
            and round_index % config.update_period == 0
        ):
            apply_epoch()

        round_queries = [
            rng.choice(pairs) for _ in range(config.queries_per_round)
        ]
        batch = round_queries[: config.batch_size]
        singles = round_queries[config.batch_size:]

        mid_epoch = None
        if config.mid_round_updates and round_index > 0:
            mid_epoch = threading.Thread(target=apply_epoch)
            mid_epoch.start()
        answers: List[Tuple[Tuple[NodeId, NodeId], object]] = []
        if batch:
            answers.extend(zip(batch, service.plan_many(graph, batch)))
        if config.concurrency <= 1:
            for pair in singles:
                answers.append((pair, serve(pair)))
        else:
            with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
                futures = [pool.submit(serve, pair) for pair in singles]
                answers.extend(
                    (pair, future.result())
                    for pair, future in zip(singles, futures)
                )
        if mid_epoch is not None:
            mid_epoch.join()

        for (source, destination), result in answers:
            verdict = oracle.check(source, destination, result).kind
            if verdict == "dropped":
                unserved += 1
                records.append((round_index, source, destination, "unserved"))
                continue
            if verdict == "flagged":
                degraded += 1
            elif verdict == "exact" or (
                verdict == "stale" and config.mid_round_updates
            ):
                # A stale verdict is exact at the epoch before the last;
                # with a mid-round epoch that is the one it was priced on.
                exact += 1
            else:
                wrong_unflagged += 1
            records.append(
                (
                    round_index,
                    source,
                    destination,
                    bool(result.found),
                    round(result.cost, 9) if result.found else None,
                    verdict == "flagged",
                    _degradation_rung(result),
                )
            )

    wall_s = time.perf_counter() - started
    after = service.snapshot()
    schedule = tuple(fault_plan.schedule) if fault_plan is not None else ()
    retry_counters = (
        int(after["fault_retries"] - before["fault_retries"]),
        int(after["retries_exhausted"] - before["retries_exhausted"]),
    )
    determinism_key = zlib.crc32(
        repr((records, schedule, retry_counters)).encode("utf-8")
    )
    return ChaosReport(
        rounds=config.rounds,
        epochs=feed.epoch_count,
        deltas_applied=feed.deltas_applied,
        queries=exact + degraded + unserved + wrong_unflagged,
        exact=exact,
        degraded=degraded,
        unserved=unserved,
        wrong_unflagged=wrong_unflagged,
        faults_injected=int(
            after["faults_injected"] - before["faults_injected"]
        ),
        fault_retries=retry_counters[0],
        retries_exhausted=retry_counters[1],
        memory_fallbacks=int(
            after["memory_fallbacks"] - before["memory_fallbacks"]
        ),
        last_good_served=int(
            after["last_good_served"] - before["last_good_served"]
        ),
        schedule_length=len(schedule),
        schedule_digest=(
            fault_plan.schedule_digest() if fault_plan is not None else 0
        ),
        determinism_key=determinism_key,
        wall_s=wall_s,
        records=records,
    )
