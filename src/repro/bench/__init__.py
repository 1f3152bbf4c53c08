"""repro.bench: the pinned benchmarks behind the committed ``BENCH_*.json``.

Every other experiment in this repo reproduces the *paper's* numbers,
which are counted in I/O units and iterations and so are
machine-independent. These benchmarks time the real interpreter on
**pinned workloads** (fixed grid, seeds, pairs and epoch sweeps), so
that successive commits can be compared on wall-clock seconds. Each
one also audits its answers for exactness.

One shared core serves all five:

* :func:`time_best_of` — the one timing primitive (best and mean of N);
* :func:`pinned_grid` — the pinned paper grid a config names;
* :func:`pinned_epochs` — the seeded traffic-epoch sweep;
* :class:`BenchReport` — timings, declared speedup pairs, and
  :meth:`~BenchReport.problems`, which each bench fills in;
* :meth:`BenchReport.to_json` / :func:`write_report` — the one guarded
  writer. It refuses any report with a problem, so an interrupted,
  inexact or otherwise broken run never overwrites a committed file.

:data:`BENCHES` names the five (``wallclock``, ``accel``, ``demand``,
``fleet``, ``fleet-chaos``). Each entry holds the pinned config, the
run function and the speedup floors the run must meet.
``atis-repro bench NAME --out BENCH_NAME.json`` runs one. A variant
workload is a different config passed to the run function from Python;
it is never written over a pinned file by the CLI.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Iterator, List, Mapping, Tuple

from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid


def time_best_of(fn: Callable[[], object], repetitions: int) -> Tuple[float, float]:
    """(best, mean) wall seconds of ``fn`` over ``repetitions`` runs."""
    samples = []
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return min(samples), sum(samples) / len(samples)


def pinned_grid(config: Any) -> Graph:
    """The paper grid named by ``config.grid``/``cost_model``/``seed``."""
    return make_paper_grid(config.grid, config.cost_model, seed=config.seed)


def pinned_epochs(graph: Graph, config: Any) -> Iterator[Tuple[int, List[Tuple]]]:
    """Yield ``(number, updates)`` for ``config.epochs`` traffic epochs.

    Each epoch re-prices ``config.epoch_edges`` edges to their current
    cost times a multiplier in [0.7, 1.6], all drawn from one stream
    seeded ``config.seed + 7``. Costs are read when an epoch is drawn,
    so the caller applies each epoch before asking for the next.
    """
    rng = random.Random(config.seed + 7)
    edges = sorted((e.source, e.target) for e in graph.edges())
    for number in range(1, config.epochs + 1):
        sample = rng.sample(edges, min(config.epoch_edges, len(edges)))
        yield number, [
            (u, v, graph.edge_cost(u, v) * rng.uniform(0.7, 1.6))
            for u, v in sample
        ]


@dataclass
class ScenarioTiming:
    """Best-of-N wall time for one scenario."""

    name: str
    best_s: float
    mean_s: float
    repetitions: int


@dataclass
class BenchReport:
    """What every bench reports: timings, speedups and its problems.

    A subclass declares its :attr:`SCENARIOS` (in report order) and its
    :attr:`SPEEDUPS` as ``(name, baseline, candidate)`` triples, and
    extends :meth:`problems`, :meth:`summary_lines` and :meth:`payload`.
    """

    NAME: ClassVar[str] = ""
    SCENARIOS: ClassVar[Tuple[str, ...]] = ()
    SPEEDUPS: ClassVar[Tuple[Tuple[str, str, str], ...]] = ()

    config: Any
    timings: Dict[str, ScenarioTiming] = field(default_factory=dict)
    #: One-off costs measured outside any scenario (seconds).
    overheads: Dict[str, float] = field(default_factory=dict)

    def time(self, name: str, fn: Callable[[], object]) -> None:
        """Record ``fn`` as scenario ``name``, best of the config's reps."""
        reps = self.config.repetitions
        best, mean = time_best_of(fn, reps)
        self.timings[name] = ScenarioTiming(name, best, mean, reps)

    def speedup(self, baseline: str, candidate: str) -> float:
        """How many times faster ``candidate`` is than ``baseline``."""
        base = self.timings[baseline].best_s
        cand = self.timings[candidate].best_s
        return base / cand if cand > 0 else float("inf")

    @property
    def speedups(self) -> Dict[str, float]:
        return {
            name: self.speedup(baseline, candidate)
            for name, baseline, candidate in self.SPEEDUPS
            if baseline in self.timings and candidate in self.timings
        }

    @property
    def missing(self) -> List[str]:
        return [name for name in self.SCENARIOS if name not in self.timings]

    def problems(self) -> List[str]:
        """Why this report must not be written; empty when it may be."""
        if self.missing:
            return [f"partial: missing {', '.join(self.missing)}"]
        return []

    @property
    def clean(self) -> bool:
        return not self.problems()

    def timing_lines(self, width: int) -> List[str]:
        """One line per declared scenario and per overhead."""
        lines = []
        for name in self.SCENARIOS:
            timing = self.timings.get(name)
            if timing is None:
                lines.append(f"{name:{width}s} MISSING")
                continue
            lines.append(
                f"{name:{width}s} best {timing.best_s * 1e3:8.3f} ms   "
                f"mean {timing.mean_s * 1e3:8.3f} ms"
            )
        for name, seconds in sorted(self.overheads.items()):
            lines.append(f"{name:{width}s} once {seconds * 1e3:8.3f} ms")
        return lines

    def speedup_lines(self) -> List[str]:
        return [
            f"speedup {name}: {ratio:.2f}x"
            for name, ratio in self.speedups.items()
        ]

    def summary_lines(self) -> List[str]:
        return self.timing_lines(24) + self.speedup_lines()

    def payload(self) -> Dict[str, Any]:
        """The bench-specific part of the JSON report."""
        return {}

    def to_json(self, indent: int = 2) -> str:
        """Serialise — refusing any report with a problem."""
        problems = self.problems()
        if problems:
            raise ValueError(
                f"refusing to serialise the {self.NAME} report: "
                + "; ".join(problems)
            )
        document: Dict[str, Any] = {"workload": dataclasses.asdict(self.config)}
        if self.SCENARIOS:
            document["scenarios"] = {
                name: {
                    "best_s": round(self.timings[name].best_s, 9),
                    "mean_s": round(self.timings[name].mean_s, 9),
                    "repetitions": self.timings[name].repetitions,
                }
                for name in self.SCENARIOS
            }
        if self.overheads:
            document["overheads_s"] = {
                name: round(seconds, 9)
                for name, seconds in sorted(self.overheads.items())
            }
        if self.SPEEDUPS:
            document["speedups"] = {
                name: round(ratio, 4) for name, ratio in self.speedups.items()
            }
        document.update(self.payload())
        return json.dumps(document, indent=indent)


def write_report(report: BenchReport, path: str) -> None:
    """Write ``report`` to ``path`` through the guarded :meth:`~BenchReport.to_json`."""
    payload = report.to_json()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")


@dataclass
class Bench:
    """One registry entry: the pinned workload and what it must meet."""

    name: str
    config: Any
    run: Callable[[Any], BenchReport]
    #: Speedup name -> the least ratio a run must reach.
    floors: Mapping[str, float] = field(default_factory=dict)

    def missed_floors(self, report: BenchReport) -> List[str]:
        speedups = report.speedups
        return [
            f"{name} {speedups.get(name, 0.0):.2f}x is below {floor:.2f}x"
            for name, floor in self.floors.items()
            if speedups.get(name, 0.0) < floor
        ]


# The per-bench modules import the core above, so the registry is
# assembled after it.
from repro.bench import accel, demand, fleet, fleet_chaos, wallclock  # noqa: E402

#: The pinned benchmarks, by CLI name. The floors are the CI gates.
BENCHES: Dict[str, Bench] = {
    bench.name: bench
    for bench in (
        Bench(
            "wallclock",
            wallclock.WallclockConfig(),
            wallclock.run_wallclock,
            {"dijkstra_csr_vs_generic": 1.0},
        ),
        Bench(
            "accel",
            accel.AccelBenchConfig(),
            accel.run_accel_bench,
            {"cch_vs_csr": 1.0},
        ),
        Bench("demand", demand.DemandBenchConfig(), demand.run_demand_bench),
        Bench("fleet", fleet.FleetBenchConfig(), fleet.run_fleet_bench),
        Bench(
            "fleet-chaos",
            fleet_chaos.FleetChaosConfig(),
            fleet_chaos.run_fleet_chaos,
        ),
    )
}

__all__ = [
    "BENCHES",
    "Bench",
    "BenchReport",
    "ScenarioTiming",
    "pinned_epochs",
    "pinned_grid",
    "time_best_of",
    "write_report",
]
