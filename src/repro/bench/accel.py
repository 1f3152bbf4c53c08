"""Pinned accelerator benchmark: query speedup vs customization latency.

The accelerator pipeline's bargain is explicit: pay a topology-only
preprocess once, pay a cheap metric customize per traffic epoch, and
answer point queries much faster than a from-scratch search. This
bench measures both sides of that bargain and audits exactness the
whole way — an accelerator that is fast but wrong fails the run, it
does not produce a report.

Scenarios (each best of ``repetitions`` timed runs of the pair batch):

* ``query/csr`` — CSR-tier Dijkstra (warm build cache), the baseline
  the speedup floor is measured against;
* ``query/cch`` — the CCH-lite accelerator's elimination-tree query,
  preprocessed and customized *outside* the timed region (that cost is
  reported separately as overheads).

Then ``epochs`` traffic epochs are applied; for each one the report
records the accelerator's re-customization latency (incremental,
riding the epoch's delta chain) and re-audits every pinned pair with
:class:`repro.audit.Oracle` on the updated costs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.audit import Oracle
from repro.bench import BenchReport, pinned_epochs, pinned_grid
from repro.graphs.graph import Graph
from repro.kernel import accel, csr
from repro.traffic.feed import TrafficFeed


@dataclass
class AccelBenchConfig:
    """The pinned workload. Changing any field changes what a number
    means across commits — bump deliberately, never casually."""

    grid: int = 30
    cost_model: str = "variance"
    seed: int = 1993
    #: Timed runs of the full pair batch per scenario.
    repetitions: int = 3
    #: Random OD pairs in the batch (drawn from ``seed``).
    pairs: int = 55
    #: Traffic epochs applied after the query scenarios.
    epochs: int = 3
    #: Edges re-priced per epoch (incident-sized, so the incremental
    #: customize path is the one under test; dense sweeps trip the
    #: accelerator's density cutoff and run the full pass instead).
    epoch_edges: int = 12


@dataclass
class EpochTiming:
    """One traffic epoch absorbed by the accelerator."""

    number: int
    deltas: int
    customize_s: float
    incremental: bool
    pairs_checked: int
    inexact: int


@dataclass
class AccelBenchReport(BenchReport):
    """Scenario timings, per-epoch customize latencies, exactness audit."""

    NAME = "accel"
    SCENARIOS = ("query/csr", "query/cch")
    SPEEDUPS = (("cch_vs_csr", "query/csr", "query/cch"),)

    epochs: List[EpochTiming] = field(default_factory=list)
    #: Exactness audit of the timed query scenarios (pre-epoch).
    pairs_checked: int = 0
    inexact: int = 0
    #: Structure counters from the accelerator.
    arcs: int = 0
    shortcuts: int = 0

    @property
    def total_inexact(self) -> int:
        return self.inexact + sum(epoch.inexact for epoch in self.epochs)

    def problems(self) -> List[str]:
        out = super().problems()
        if len(self.epochs) != self.config.epochs:
            out.append(
                f"partial: {len(self.epochs)}/{self.config.epochs} epochs "
                "measured"
            )
        if self.total_inexact:
            out.append(
                f"{self.total_inexact} inexact answers disagreed with Dijkstra"
            )
        return out

    def summary_lines(self) -> List[str]:
        cfg = self.config
        lines = [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, {cfg.pairs} pairs, best of "
            f"{cfg.repetitions}, {cfg.epochs} epochs x "
            f"{cfg.epoch_edges} edges",
            f"overlay: {self.arcs} arcs ({self.shortcuts} shortcuts)",
        ] + self.timing_lines(16)
        for epoch in self.epochs:
            kind = "incremental" if epoch.incremental else "full"
            lines.append(
                f"epoch {epoch.number}: customize {epoch.customize_s * 1e3:8.3f} ms "
                f"({kind}, {epoch.deltas} deltas), "
                f"{epoch.pairs_checked} pairs audited, "
                f"{epoch.inexact} inexact"
            )
        return lines + self.speedup_lines() + [
            f"audit: {self.pairs_checked} pre-epoch pairs, "
            f"{self.total_inexact} inexact total"
        ]

    def payload(self) -> Dict[str, Any]:
        return {
            "overlay": {"arcs": self.arcs, "shortcuts": self.shortcuts},
            "epochs": [
                {
                    "number": epoch.number,
                    "deltas": epoch.deltas,
                    "customize_s": round(epoch.customize_s, 9),
                    "incremental": epoch.incremental,
                    "pairs_checked": epoch.pairs_checked,
                    "inexact": epoch.inexact,
                }
                for epoch in self.epochs
            ],
            "audit": {
                "pairs_checked": self.pairs_checked,
                "inexact": self.total_inexact,
            },
        }


def pinned_pairs(config: AccelBenchConfig, graph: Graph) -> List[Tuple]:
    rng = random.Random(config.seed)
    nodes = sorted(node.node_id for node in graph.nodes())
    return [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(config.pairs)
    ]


def run_accel_bench(config: Optional[AccelBenchConfig] = None) -> AccelBenchReport:
    """Run the pinned scenarios and epoch sweeps and return the report."""
    config = config or AccelBenchConfig()
    report = AccelBenchReport(config=config)
    graph = pinned_grid(config)
    pairs = pinned_pairs(config, graph)

    def batch(fn: Callable) -> Callable[[], None]:
        def run() -> None:
            for source, destination in pairs:
                fn(graph, source, destination)

        return run

    csr.csr_for(graph)
    report.time("query/csr", batch(csr.uniform_cost))

    instance = accel.CCHAccelerator()
    started = time.perf_counter()
    instance.preprocess(graph)
    report.overheads["cch-preprocess"] = time.perf_counter() - started
    started = time.perf_counter()
    instance.customize(graph)
    report.overheads["cch-customize-full"] = time.perf_counter() - started
    report.arcs = instance.arc_count
    report.shortcuts = instance.shortcut_count
    report.time("query/cch", batch(instance.query))

    oracle = Oracle(graph)

    def audit() -> Tuple[int, int]:
        """(checked, inexact): accelerator answers the oracle rejects."""
        inexact = sum(
            oracle.check(s, d, instance.query(graph, s, d)).kind != "exact"
            for s, d in pairs
        )
        return len(pairs), inexact

    report.pairs_checked, report.inexact = audit()

    feed = TrafficFeed(graph)
    feed.subscribe(instance)
    for number, updates in pinned_epochs(graph, config):
        before = instance.incremental_customizes
        epoch = feed.apply(updates)
        oracle.observe_epoch()
        checked, inexact = audit()
        report.epochs.append(
            EpochTiming(
                number=number,
                deltas=len(epoch.deltas),
                # The accelerator's own measurement of the customize
                # leg this epoch triggered (excludes the feed's delta
                # application and fan-out bookkeeping).
                customize_s=instance.last_customize_s,
                incremental=instance.incremental_customizes > before,
                pairs_checked=checked,
                inexact=inexact,
            )
        )

    return report
