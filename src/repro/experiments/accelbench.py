"""Pinned accelerator benchmark: query speedup vs customization latency.

The accelerator pipeline's bargain is explicit: pay a topology-only
preprocess once, pay a cheap metric customize per traffic epoch, and
answer point queries much faster than a from-scratch search. This
harness measures both sides of that bargain on one **pinned workload**
(fixed grid, fixed seed, fixed OD-pair batch, fixed epoch sweeps) and
audits exactness the whole way — an accelerator that is fast but wrong
fails the run, it does not produce a report.

Scenarios (each best-of-N over ``repetitions`` timed runs of the full
pair batch):

* ``query/csr`` — CSR-tier Dijkstra (warm build cache), the baseline
  the speedup floor is measured against;
* ``query/cch`` — the CCH-lite accelerator's elimination-tree query,
  preprocessed and customized *outside* the timed region (that cost is
  reported separately, which is the whole point).

After the query scenarios, ``epochs`` traffic epochs are applied; for
each one the report records the accelerator's re-customization latency
(incremental, riding the epoch's delta chain) and re-audits every
pinned pair against the generic kernel loop's Dijkstra on the updated
costs.

``atis-repro bench-accel --out BENCH_accel.json`` runs it and writes
the report (``benchmarks/bench_accel.py`` runs it piece by piece); the
report refuses to serialise unless every scenario ran, every epoch was
measured, and **zero** answers were inexact.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.experiments.wallclock import ScenarioTiming, time_best_of
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.kernel import accel, csr, search

#: Every scenario a complete report must contain, in report order.
EXPECTED_SCENARIOS = (
    "query/csr",
    "query/cch",
)


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
class AccelBenchReport:
    """Scenario timings, per-epoch customize latencies, exactness audit."""

    config: AccelBenchConfig
    timings: Dict[str, ScenarioTiming] = field(default_factory=dict)
    #: One-off pipeline costs measured outside any scenario (seconds).
    overheads: Dict[str, float] = field(default_factory=dict)
    epochs: List[EpochTiming] = field(default_factory=list)
    #: Exactness audit of the timed query scenarios (pre-epoch).
    pairs_checked: int = 0
    inexact: int = 0
    #: Structure counters from the accelerator.
    arcs: int = 0
    shortcuts: int = 0

    @property
    def complete(self) -> bool:
        return (
            all(name in self.timings for name in EXPECTED_SCENARIOS)
            and len(self.epochs) == self.config.epochs
        )

    @property
    def missing(self) -> List[str]:
        out = [name for name in EXPECTED_SCENARIOS if name not in self.timings]
        if len(self.epochs) != self.config.epochs:
            out.append(
                f"epochs ({len(self.epochs)}/{self.config.epochs} measured)"
            )
        return out

    @property
    def total_inexact(self) -> int:
        return self.inexact + sum(epoch.inexact for epoch in self.epochs)

    @property
    def clean(self) -> bool:
        return self.total_inexact == 0

    def speedup(self, baseline: str, candidate: str) -> float:
        """How many times faster ``candidate`` is than ``baseline``."""
        base = self.timings[baseline].best_s
        cand = self.timings[candidate].best_s
        return base / cand if cand > 0 else float("inf")

    @property
    def speedups(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        pairs = (
            ("cch_vs_csr", "query/csr", "query/cch"),
        )
        for name, baseline, candidate in pairs:
            if baseline in self.timings and candidate in self.timings:
                out[name] = self.speedup(baseline, candidate)
        return out

    def summary_lines(self) -> List[str]:
        cfg = self.config
        lines = [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, {cfg.pairs} pairs, best of "
            f"{cfg.repetitions}, {cfg.epochs} epochs x "
            f"{cfg.epoch_edges} edges",
            f"overlay: {self.arcs} arcs ({self.shortcuts} shortcuts)",
        ]
        for name in EXPECTED_SCENARIOS:
            timing = self.timings.get(name)
            if timing is None:
                lines.append(f"{name:16s} MISSING")
                continue
            lines.append(
                f"{name:16s} best {timing.best_s * 1e3:8.3f} ms   "
                f"mean {timing.mean_s * 1e3:8.3f} ms"
            )
        for name, seconds in sorted(self.overheads.items()):
            lines.append(f"{name:16s} once {seconds * 1e3:8.3f} ms")
        for epoch in self.epochs:
            kind = "incremental" if epoch.incremental else "full"
            lines.append(
                f"epoch {epoch.number}: customize {epoch.customize_s * 1e3:8.3f} ms "
                f"({kind}, {epoch.deltas} deltas), "
                f"{epoch.pairs_checked} pairs audited, "
                f"{epoch.inexact} inexact"
            )
        for name, ratio in self.speedups.items():
            lines.append(f"speedup {name}: {ratio:.2f}x")
        lines.append(
            f"audit: {self.pairs_checked} pre-epoch pairs, "
            f"{self.total_inexact} inexact total"
        )
        return lines

    def to_json(self, indent: int = 2) -> str:
        if not self.complete:
            raise ValueError(
                "refusing to serialise a partial accel report; missing: "
                f"{', '.join(self.missing)}"
            )
        if not self.clean:
            raise ValueError(
                "refusing to serialise an inexact accel report; "
                f"{self.total_inexact} answers disagreed with Dijkstra"
            )
        cfg = self.config
        return json.dumps(
            {
                "workload": {
                    "grid": cfg.grid,
                    "cost_model": cfg.cost_model,
                    "seed": cfg.seed,
                    "repetitions": cfg.repetitions,
                    "pairs": cfg.pairs,
                    "epochs": cfg.epochs,
                    "epoch_edges": cfg.epoch_edges,
                },
                "overlay": {"arcs": self.arcs, "shortcuts": self.shortcuts},
                "scenarios": {
                    name: {
                        "best_s": round(t.best_s, 9),
                        "mean_s": round(t.mean_s, 9),
                        "repetitions": t.repetitions,
                    }
                    for name, t in (
                        (name, self.timings[name])
                        for name in EXPECTED_SCENARIOS
                    )
                },
                "overheads_s": {
                    name: round(seconds, 9)
                    for name, seconds in sorted(self.overheads.items())
                },
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
                "speedups": {
                    name: round(ratio, 4)
                    for name, ratio in self.speedups.items()
                },
                "audit": {
                    "pairs_checked": self.pairs_checked,
                    "inexact": self.total_inexact,
                },
            },
            indent=indent,
        )


def pinned_graph(config: AccelBenchConfig) -> Graph:
    return make_paper_grid(config.grid, config.cost_model, seed=config.seed)


def pinned_pairs(config: AccelBenchConfig, graph: Graph) -> List[Tuple]:
    rng = random.Random(config.seed)
    nodes = sorted(node.node_id for node in graph.nodes())
    return [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(config.pairs)
    ]


def _exact(cost_a: float, cost_b: float) -> bool:
    return math.isclose(cost_a, cost_b, rel_tol=1e-9, abs_tol=1e-9)


def _audit(
    graph: Graph, instance: accel.Accelerator, pairs: List[Tuple]
) -> Tuple[int, int]:
    """(checked, inexact) — accelerator answers vs generic-loop Dijkstra."""
    inexact = 0
    for source, destination in pairs:
        run = instance.query(graph, source, destination)
        ref = search(graph, source, destination, trace=True)
        if run.found != ref.found:
            inexact += 1
        elif ref.found and not (
            _exact(run.cost, ref.cost)
            and _exact(graph.path_cost(run.path), run.cost)
        ):
            inexact += 1
    return len(pairs), inexact


def run_accel_bench(
    config: AccelBenchConfig | None = None,
    scenarios: Tuple[str, ...] = EXPECTED_SCENARIOS,
    with_epochs: bool = True,
) -> AccelBenchReport:
    """Run the pinned scenarios (and epoch sweeps) and return the report.

    ``scenarios`` / ``with_epochs`` exist so the pytest harness can run
    one piece per test; a partial report refuses
    :meth:`~AccelBenchReport.to_json`.
    """
    config = config or AccelBenchConfig()
    report = AccelBenchReport(config=config)
    graph = pinned_graph(config)
    pairs = pinned_pairs(config, graph)
    reps = config.repetitions

    def batch(fn: Callable) -> Callable[[], None]:
        def run() -> None:
            for source, destination in pairs:
                fn(graph, source, destination)

        return run

    def record(name: str, fn: Callable[[], object]) -> None:
        best, mean = time_best_of(fn, reps)
        report.timings[name] = ScenarioTiming(name, best, mean, reps)

    wanted = set(scenarios)

    if "query/csr" in wanted:
        csr.csr_for(graph)
        record("query/csr", batch(csr.uniform_cost))

    needs_cch = "query/cch" in wanted or with_epochs
    if needs_cch:
        instance = accel.make_accelerator("cch")
        started = time.perf_counter()
        instance.preprocess(graph)
        report.overheads["cch-preprocess"] = time.perf_counter() - started
        started = time.perf_counter()
        instance.customize(graph)
        report.overheads["cch-customize-full"] = time.perf_counter() - started
        report.arcs = instance.arc_count
        report.shortcuts = instance.shortcut_count
        if "query/cch" in wanted:
            record("query/cch", batch(instance.query))
            checked, inexact = _audit(graph, instance, pairs)
            report.pairs_checked = checked
            report.inexact = inexact

    if with_epochs:
        from repro.traffic.feed import TrafficFeed

        feed = TrafficFeed(graph)
        feed.subscribe(instance)
        edge_rng = random.Random(config.seed + 7)
        edges = sorted((e.source, e.target) for e in graph.edges())
        for number in range(1, config.epochs + 1):
            sample = edge_rng.sample(edges, min(config.epoch_edges, len(edges)))
            updates = [
                (u, v, graph.edge_cost(u, v) * edge_rng.uniform(0.7, 1.6))
                for u, v in sample
            ]
            before = instance.incremental_customizes
            epoch = feed.apply(updates)
            checked, inexact = _audit(graph, instance, pairs)
            report.epochs.append(
                EpochTiming(
                    number=number,
                    deltas=len(epoch.deltas),
                    # The accelerator's own measurement of the customize
                    # leg this epoch triggered (excludes the feed's
                    # delta application and fan-out bookkeeping).
                    customize_s=instance.last_customize_s,
                    incremental=instance.incremental_customizes > before,
                    pairs_checked=checked,
                    inexact=inexact,
                )
            )

    return report
