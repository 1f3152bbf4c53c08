"""The fleet chaos proof: faults × epochs × replica kills, audited.

:func:`run_fleet_chaos` replays one seeded Zipf OD stream against a
replicated fleet while a :class:`~repro.faults.WorkerFaultPlan` injects
transient errors, latency, and hung tasks into every shard replica, a
kill schedule hard-kills replicas between rounds, and traffic epochs
keep mutating the map underneath. Every non-shed answer is audited by
:class:`repro.audit.Oracle` against whole-graph Dijkstra on the
*current* parent state, and its ``stale`` verdict (exact at the
*previous* epoch only) tells a stale serve (right answer, wrong epoch)
from a plain wrong answer. The serving contract under chaos is the
same exact-or-flagged contract the storage tier keeps:

* zero inexact answers,
* zero silent drops (``answered + shed == queries``),
* zero stale serves across epochs.

The same stream then replays against a ``replicas=1`` baseline built
from the *same* seeds (baseline replica 0 runs the identical fault
schedule as the replicated run's replica 0, and the kill schedule
kills each run's highest replica index — the same physical failure).
Replication must buy strictly higher availability under that identical
failure pattern, or the report is not clean.

Determinism: queries replay serially and every fault decision depends
only on ``(seed, op_index)``, so the per-query outcome records — and
the CRC32 **determinism key** over them — are byte-identical across
same-seed runs, and a rate-0 plan produces the identical key as a
fleet with no plans attached at all. Wall-clock timings (hedge counts,
latencies) are deliberately excluded from the key: replicas compute
identical answers, so *which* replica won a race never changes a
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.bench import BenchReport, pinned_grid
from repro.bench.fleet import run_entry, run_problems
from repro.faults.workerplan import WorkerFaultPlan
from repro.fleet.loadgen import FleetLoadConfig, FleetLoadReport, run_fleet_load
from repro.fleet.partition import parse_layout, partition_graph
from repro.fleet.replica import DeadlinePolicy, HealthPolicy
from repro.fleet.router import FleetRouter
from repro.traffic.feed import TrafficFeed


@dataclass
class FleetChaosConfig:
    """One pinned chaos workload. Changing any field changes what the
    committed number means — bump deliberately, never casually."""

    grid: int = 10
    cost_model: str = "variance"
    seed: int = 1993
    layout: str = "2x2"
    replicas: int = 2
    queries: int = 240
    rounds: int = 4
    alpha: float = 1.1
    #: Edges perturbed per inter-round epoch.
    epoch_edges: int = 24
    #: Seed for the worker fault plans (per-replica schedules derive
    #: from it via a stable hash; see ``WorkerFaultPlan.derive``).
    fault_seed: int = 7
    #: Injected fault mix; the acceptance bar is a clean audit at a
    #: 10% total rate with 2 replicas.
    error_rate: float = 0.06
    latency_rate: float = 0.03
    hang_rate: float = 0.01
    latency_s: float = 0.002
    #: A hang must dwarf the stage budget so only hedged dispatch (or
    #: an explicit deadline shed) can resolve it.
    hang_s: float = 0.9
    #: ``(round_index, shard_id)``: before that round starts, the
    #: shard's highest replica index is hard-killed. The baseline run
    #: kills *its* highest index — replica 0 — so both runs suffer the
    #: same failure and differ only in having a spare.
    kills: Tuple[Tuple[int, int], ...] = ((2, 0),)
    # Deadline policy, tightened so the injected tail actually hits it.
    total_s: float = 1.6
    stage_s: float = 0.45
    hedge_s: float = 0.05
    max_attempts: int = 3
    backoff_s: float = 0.001
    max_queue: int = 128
    #: Generous so abandoned hung tasks never starve live dispatch (a
    #: zombie occupies a thread for ``hang_s``).
    worker_threads: int = 6

    @property
    def total_fault_rate(self) -> float:
        return self.error_rate + self.latency_rate + self.hang_rate

    def load_config(self) -> FleetLoadConfig:
        """The query stream and epoch schedule, replayed serially."""
        return FleetLoadConfig(
            queries=self.queries,
            rounds=self.rounds,
            concurrency=1,
            alpha=self.alpha,
            seed=self.seed,
            epoch_edges=self.epoch_edges,
            kills=self.kills,
        )

    def deadline_policy(self) -> DeadlinePolicy:
        return DeadlinePolicy(
            total_s=self.total_s,
            boundary_s=self.stage_s,
            hedge_s=self.hedge_s,
            max_attempts=self.max_attempts,
            backoff_s=self.backoff_s,
        )

    def parent_plan(self) -> WorkerFaultPlan:
        return WorkerFaultPlan(
            seed=self.fault_seed,
            error_rate=self.error_rate,
            latency_rate=self.latency_rate,
            hang_rate=self.hang_rate,
            latency_s=self.latency_s,
            hang_s=self.hang_s,
        )


_RUNS = ("replicated", "baseline")


@dataclass
class FleetChaosReport(BenchReport):
    """Replicated run vs same-seed baseline, with the clean verdict."""

    NAME = "fleet chaos"

    replicated: Optional[FleetLoadReport] = None
    baseline: Optional[FleetLoadReport] = None

    @property
    def missing(self) -> List[str]:
        return [name for name in _RUNS if getattr(self, name) is None]

    @property
    def availability_gain(self) -> float:
        if self.missing:
            return 0.0
        return self.replicated.availability - self.baseline.availability

    def problems(self) -> List[str]:
        """Both runs exact-or-flagged, and replication paid for itself.

        The availability comparison is only meaningful when the kill
        schedule actually removed capacity; a kill-free config (e.g.
        the rate-0 determinism check) skips it.
        """
        out = super().problems()
        if out:
            return out
        for name in _RUNS:
            run = getattr(self, name)
            out.extend(run_problems(name, run))
        if self.config.kills and self.availability_gain <= 0:
            out.append("replication bought no availability over baseline")
        return out

    def summary_lines(self) -> List[str]:
        cfg = self.config
        lines = [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, layout {cfg.layout}, {cfg.queries} "
            f"Zipf(alpha={cfg.alpha}) queries over {cfg.rounds} rounds",
            f"faults: seed={cfg.fault_seed} error={cfg.error_rate} "
            f"latency={cfg.latency_rate} hang={cfg.hang_rate} "
            f"(total {cfg.total_fault_rate:.0%}), kills={list(cfg.kills)}",
            f"deadlines: total {cfg.total_s}s, stage {cfg.stage_s}s, "
            f"hedge {cfg.hedge_s}s, attempts {cfg.max_attempts}",
        ]
        for name in _RUNS:
            run = getattr(self, name)
            if run is None:
                lines.append(f"{name:10s} MISSING")
                continue
            replicas = cfg.replicas if name == "replicated" else 1
            lines.append(
                f"{name:10s} replicas={replicas} "
                f"availability={run.availability:7.2%} "
                f"answered={run.answered} shed={run.shed} "
                f"hedged={run.hedged} failovers={run.failovers} "
                f"retries={run.retries} inexact={run.inexact} "
                f"stale={run.stale_serves} key={run.determinism_key}"
            )
            for sample in run.inexact_samples:
                lines.append(f"           INEXACT {sample}")
        if not self.missing:
            lines.append(
                f"availability gain from replication: "
                f"{self.availability_gain:+.2%}"
            )
        problems = self.problems()
        lines.append(
            "audit: clean" if not problems
            else "audit: NOT CLEAN (" + "; ".join(problems) + ")"
        )
        return lines

    def payload(self) -> Dict[str, Any]:
        return {
            "total_fault_rate": self.config.total_fault_rate,
            "availability_gain": round(self.availability_gain, 6),
            "runs": {name: run_entry(getattr(self, name)) for name in _RUNS},
        }


def run_chaos_replay(
    config: FleetChaosConfig,
    replicas: int,
    attach_plans: bool = True,
) -> FleetLoadReport:
    """One serial audited replay with ``replicas`` workers per shard.

    ``attach_plans=False`` builds the fleet with **no** fault plans at
    all (not even rate-0 ones) — the determinism tests compare its key
    against a rate-0 run to prove the noop path is byte-identical.
    """
    rows, cols = parse_layout(config.layout)
    graph = pinned_grid(config)
    partition = partition_graph(graph, rows, cols)
    fault_plans = None
    if attach_plans:
        parent = config.parent_plan()
        fault_plans = {
            (spec.shard_id, index): parent.derive(spec.shard_id, index)
            for spec in partition.shards
            for index in range(replicas)
        }
    router = FleetRouter(
        partition,
        max_queue=config.max_queue,
        threads=config.worker_threads,
        replicas=replicas,
        fault_plans=fault_plans,
        deadline=config.deadline_policy(),
        health=HealthPolicy(),
    )
    feed = TrafficFeed(graph)
    feed.subscribe(router)
    try:
        return run_fleet_load(graph, router, feed, config.load_config())
    finally:
        router.shutdown()


def run_fleet_chaos(
    config: Optional[FleetChaosConfig] = None,
) -> FleetChaosReport:
    """The full chaos proof: replicated run, then same-seed baseline."""
    config = config or FleetChaosConfig()
    report = FleetChaosReport(config=config)
    report.replicated = run_chaos_replay(config, replicas=config.replicas)
    report.baseline = run_chaos_replay(config, replicas=1)
    return report
