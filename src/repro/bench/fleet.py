"""Pinned fleet benchmark: sharded serving under skewed load.

One :class:`FleetBenchConfig` names one exact workload: a seeded paper
grid, a set of shard layouts, and a seeded Zipf OD stream with
inter-round traffic epochs. For every layout the bench partitions a
fresh copy of the graph, stands up a fleet, replays the stream
concurrently through :func:`repro.fleet.loadgen.run_fleet_load`, and
keeps the full per-layout report: throughput, p50/p99 latency,
per-shard SLO snapshots, and the exactness audit against whole-graph
Dijkstra that makes those numbers trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench import BenchReport, pinned_grid
from repro.fleet.loadgen import FleetLoadConfig, FleetLoadReport, run_fleet_load
from repro.fleet.partition import parse_layout, partition_graph
from repro.fleet.router import FleetRouter
from repro.traffic.feed import TrafficFeed


@dataclass
class FleetBenchConfig:
    """The pinned fleet workload. Changing any field changes what a
    number means across commits — bump deliberately, never casually."""

    grid: int = 12
    cost_model: str = "variance"
    seed: int = 1993
    layouts: Tuple[str, ...] = ("2x2", "3x3")
    queries: int = 2000
    rounds: int = 4
    concurrency: int = 8
    alpha: float = 1.1
    epoch_edges: int = 32
    max_queue: int = 128
    worker_threads: int = 2

    def load_config(self) -> FleetLoadConfig:
        return FleetLoadConfig(
            queries=self.queries,
            rounds=self.rounds,
            concurrency=self.concurrency,
            alpha=self.alpha,
            seed=self.seed,
            epoch_edges=self.epoch_edges,
        )


def run_problems(name: str, run: FleetLoadReport) -> List[str]:
    """Exact-or-flagged violations of one audited fleet run."""
    out = []
    if run.inexact:
        out.append(f"{name}: {run.inexact} inexact answers")
    if run.stale_serves:
        out.append(f"{name}: {run.stale_serves} stale serves")
    if run.answered + run.shed != run.queries:
        out.append(f"{name}: silent drops")
    return out


def run_entry(run: FleetLoadReport) -> Dict[str, Any]:
    """The JSON block of one run: flat summary, fleet and shard SLOs."""
    return {
        "summary": {
            name: round(value, 6) if isinstance(value, float) else value
            for name, value in run.to_snapshot().items()
        },
        "fleet": run.snapshot.get("fleet", {}),
        "shards": {
            name: snap for name, snap in run.snapshot.items() if name != "fleet"
        },
    }


@dataclass
class FleetBenchReport(BenchReport):
    """Per-layout load reports over one pinned workload."""

    NAME = "fleet"

    runs: Dict[str, FleetLoadReport] = field(default_factory=dict)

    @property
    def missing(self) -> List[str]:
        return [name for name in self.config.layouts if name not in self.runs]

    def problems(self) -> List[str]:
        out = super().problems()
        if not self.config.layouts:
            out.append("partial: no layouts configured")
        for layout, run in self.runs.items():
            out.extend(run_problems(layout, run))
        return out

    def summary_lines(self) -> List[str]:
        cfg = self.config
        lines = [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, {cfg.queries} Zipf(alpha={cfg.alpha}) queries "
            f"x{cfg.concurrency} threads, {cfg.rounds} rounds",
        ]
        for layout in cfg.layouts:
            run = self.runs.get(layout)
            if run is None:
                lines.append(f"{layout:6s} MISSING")
                continue
            lines.append(
                f"{layout:6s} shards={run.shard_count} cut={run.cut_edges:4d}  "
                f"{run.throughput_qps:8.1f} q/s  "
                f"p50 {run.p50_latency_ms:7.3f} ms  "
                f"p99 {run.p99_latency_ms:7.3f} ms  "
                f"cross={run.cross_shard} stitched={run.stitched} "
                f"shed={run.shed} inexact={run.inexact}"
            )
            for sample in run.inexact_samples:
                lines.append(f"       INEXACT {sample}")
        problems = self.problems()
        lines.append(
            "audit: clean" if not problems
            else "audit: " + "; ".join(problems)
        )
        return lines

    def payload(self) -> Dict[str, Any]:
        return {
            "layouts": {
                layout: run_entry(self.runs[layout])
                for layout in self.config.layouts
            }
        }


def run_layout(config: FleetBenchConfig, layout: str) -> FleetLoadReport:
    """Partition, serve, and audit one layout of the pinned workload.

    Each layout gets a **fresh** graph build so its inter-round epochs
    (same seed, hence same perturbations) start from the identical
    free-flow state — layouts are compared on the same evolving map.
    """
    rows, cols = parse_layout(layout)
    graph = pinned_grid(config)
    partition = partition_graph(graph, rows, cols)
    router = FleetRouter(
        partition,
        max_queue=config.max_queue,
        threads=config.worker_threads,
    )
    feed = TrafficFeed(graph)
    feed.subscribe(router)
    try:
        return run_fleet_load(graph, router, feed, config.load_config())
    finally:
        router.shutdown()


def run_fleet_bench(config: Optional[FleetBenchConfig] = None) -> FleetBenchReport:
    """Run the pinned fleet workload over every configured layout."""
    config = config or FleetBenchConfig()
    report = FleetBenchReport(config=config)
    for layout in config.layouts:
        report.runs[layout] = run_layout(config, layout)
    return report
