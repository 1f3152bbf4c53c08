"""Pinned wall-clock benchmark: the repo's perf trajectory, measured.

Every other experiment in this package reproduces the *paper's*
numbers, which are counted in I/O units and iterations — deliberately
machine-independent. This harness is the opposite: it times the real
interpreter on one **pinned workload** (fixed grid, fixed seed, fixed
source/destination pair, fixed batch) so that successive commits can be
compared on wall-clock seconds. ``atis-repro bench-wallclock --reps 7
--out BENCH_wallclock.json`` runs it and writes the report
(``benchmarks/bench_wallclock.py`` runs it scenario by scenario); CI
fails the build if the CSR tier stops beating the generic reference
loop on the pinned Dijkstra scenario.

Scenarios (each reported as best-of-N over ``repetitions`` runs):

* ``dijkstra/generic`` — the traced generic kernel loop
  (``search(..., trace=True)``), the reference every fused loop is
  held to counter for counter (the baseline);
* ``dijkstra/csr-cold`` — CSR tier with the build cache cleared every
  repetition, so the flattening cost is inside the timed region;
* ``dijkstra/csr-warm`` — CSR tier against a warm build cache (the
  steady-state production path);
* ``astar-euclidean/generic`` / ``astar-euclidean/csr`` — A* with the
  euclidean estimator on the generic loop and the CSR tier;
* ``astar-landmark/csr`` — A* with a prepared :class:`LandmarkEstimator`
  (table builds run outside the timed region; they share the CSR cache
  through :func:`repro.kernel.csr.sssp`);
* ``iterative/generic`` / ``iterative/csr`` — the wave loop on each;
* ``plan_many/cold`` — a :class:`RouteService` batch on a fresh
  service (every distinct query computed);
* ``plan_many/warm`` — the same batch replayed on the same service
  (cache hits and dedup).

The report refuses to serialise unless **every** scenario in
:data:`EXPECTED_SCENARIOS` ran — an interrupted run must never
overwrite a complete ``BENCH_wallclock.json`` with a partial one.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.estimators import EuclideanEstimator, LandmarkEstimator
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr, search

#: Every scenario a complete report must contain, in report order.
EXPECTED_SCENARIOS = (
    "dijkstra/generic",
    "dijkstra/csr-cold",
    "dijkstra/csr-warm",
    "astar-euclidean/generic",
    "astar-euclidean/csr",
    "astar-landmark/csr",
    "iterative/generic",
    "iterative/csr",
    "plan_many/cold",
    "plan_many/warm",
)


@dataclass
class WallclockConfig:
    """The pinned workload. Changing any field changes what a number
    means across commits — bump deliberately, never casually."""

    grid: int = 30
    cost_model: str = "variance"
    seed: int = 1993
    #: Timed runs per scenario; the report keeps best and mean.
    repetitions: int = 5
    #: Queries in the ``plan_many`` batch (drawn from ``seed``, with
    #: deliberate duplicates so dedup is part of the workload).
    batch_size: int = 24
    landmark_count: int = 4


@dataclass
class ScenarioTiming:
    """Best-of-N wall time for one scenario."""

    name: str
    best_s: float
    mean_s: float
    repetitions: int


@dataclass
class WallclockReport:
    """All scenario timings plus the derived speedup ratios."""

    config: WallclockConfig
    timings: Dict[str, ScenarioTiming] = field(default_factory=dict)
    #: One-off costs measured outside any scenario (seconds).
    overheads: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return all(name in self.timings for name in EXPECTED_SCENARIOS)

    @property
    def missing(self) -> List[str]:
        return [name for name in EXPECTED_SCENARIOS if name not in self.timings]

    def speedup(self, baseline: str, candidate: str) -> float:
        """How many times faster ``candidate`` is than ``baseline``."""
        base = self.timings[baseline].best_s
        cand = self.timings[candidate].best_s
        return base / cand if cand > 0 else float("inf")

    @property
    def speedups(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        pairs = (
            ("dijkstra_csr_vs_generic", "dijkstra/generic",
             "dijkstra/csr-warm"),
            ("astar_euclidean_csr_vs_generic", "astar-euclidean/generic",
             "astar-euclidean/csr"),
            ("iterative_csr_vs_generic", "iterative/generic",
             "iterative/csr"),
            ("plan_many_warm_vs_cold", "plan_many/cold", "plan_many/warm"),
        )
        for name, baseline, candidate in pairs:
            if baseline in self.timings and candidate in self.timings:
                out[name] = self.speedup(baseline, candidate)
        return out

    def summary_lines(self) -> List[str]:
        cfg = self.config
        lines = [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, corner-to-corner, best of {cfg.repetitions}",
        ]
        for name in EXPECTED_SCENARIOS:
            timing = self.timings.get(name)
            if timing is None:
                lines.append(f"{name:24s} MISSING")
                continue
            lines.append(
                f"{name:24s} best {timing.best_s * 1e3:8.3f} ms   "
                f"mean {timing.mean_s * 1e3:8.3f} ms"
            )
        for name, seconds in sorted(self.overheads.items()):
            lines.append(f"{name:24s} once {seconds * 1e3:8.3f} ms")
        for name, ratio in self.speedups.items():
            lines.append(f"speedup {name}: {ratio:.2f}x")
        return lines

    def to_json(self, indent: int = 2) -> str:
        if not self.complete:
            raise ValueError(
                "refusing to serialise a partial wall-clock report; "
                f"missing scenarios: {', '.join(self.missing)}"
            )
        cfg = self.config
        return json.dumps(
            {
                "workload": {
                    "grid": cfg.grid,
                    "cost_model": cfg.cost_model,
                    "seed": cfg.seed,
                    "repetitions": cfg.repetitions,
                    "batch_size": cfg.batch_size,
                    "landmark_count": cfg.landmark_count,
                },
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
                "speedups": {
                    name: round(ratio, 4)
                    for name, ratio in self.speedups.items()
                },
            },
            indent=indent,
        )


def time_best_of(fn: Callable[[], object], repetitions: int) -> Tuple[float, float]:
    """(best, mean) wall seconds of ``fn`` over ``repetitions`` runs."""
    samples = []
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return min(samples), sum(samples) / len(samples)


def pinned_graph(config: WallclockConfig) -> Graph:
    return make_paper_grid(config.grid, config.cost_model, seed=config.seed)


def pinned_pair(config: WallclockConfig) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    return (0, 0), (config.grid - 1, config.grid - 1)


def pinned_batch(config: WallclockConfig) -> List[Tuple]:
    """The ``plan_many`` batch: seeded pairs with ~1/3 duplicates."""
    rng = random.Random(config.seed)
    side = config.grid
    distinct = max(1, (2 * config.batch_size) // 3)
    pairs = [
        (
            (rng.randrange(side), rng.randrange(side)),
            (rng.randrange(side), rng.randrange(side)),
        )
        for _ in range(distinct)
    ]
    batch = list(pairs)
    while len(batch) < config.batch_size:
        batch.append(rng.choice(pairs))
    rng.shuffle(batch)
    return batch


def run_wallclock(
    config: WallclockConfig | None = None,
    scenarios: Tuple[str, ...] = EXPECTED_SCENARIOS,
) -> WallclockReport:
    """Run the pinned scenarios and return the (possibly partial) report.

    ``scenarios`` exists so the pytest harness can run one scenario per
    test; a report built from a subset will refuse :meth:`~WallclockReport.to_json`.
    """
    config = config or WallclockConfig()
    report = WallclockReport(config=config)
    graph = pinned_graph(config)
    source, destination = pinned_pair(config)
    reps = config.repetitions

    def record(name: str, fn: Callable[[], object]) -> None:
        best, mean = time_best_of(fn, reps)
        report.timings[name] = ScenarioTiming(name, best, mean, reps)

    wanted = set(scenarios)

    if "dijkstra/generic" in wanted:
        record(
            "dijkstra/generic",
            lambda: search(graph, source, destination, trace=True),
        )
    if "dijkstra/csr-cold" in wanted:
        def cold_dijkstra():
            csr.clear_cache()
            return csr.uniform_cost(graph, source, destination)

        record("dijkstra/csr-cold", cold_dijkstra)
    if "dijkstra/csr-warm" in wanted:
        csr.csr_for(graph)
        record(
            "dijkstra/csr-warm",
            lambda: csr.uniform_cost(graph, source, destination),
        )

    if "astar-euclidean/generic" in wanted or "astar-euclidean/csr" in wanted:
        euclidean = EuclideanEstimator()
        if "astar-euclidean/generic" in wanted:
            record(
                "astar-euclidean/generic",
                lambda: search(
                    graph, source, destination, algorithm="astar",
                    estimator=euclidean, trace=True,
                ),
            )
        if "astar-euclidean/csr" in wanted:
            csr.csr_for(graph)
            record(
                "astar-euclidean/csr",
                lambda: csr.best_first(graph, source, destination, euclidean),
            )

    if "astar-landmark/csr" in wanted:
        from repro.service.pool import default_landmarks

        landmark = LandmarkEstimator(
            default_landmarks(graph, config.landmark_count)
        )
        started = time.perf_counter()
        landmark.preprocess(graph)
        report.overheads["landmark-preprocess"] = time.perf_counter() - started
        record(
            "astar-landmark/csr",
            lambda: csr.best_first(graph, source, destination, landmark),
        )

    if "iterative/generic" in wanted:
        record(
            "iterative/generic",
            lambda: search(
                graph, source, destination, algorithm="iterative", trace=True
            ),
        )
    if "iterative/csr" in wanted:
        csr.csr_for(graph)
        record(
            "iterative/csr",
            lambda: csr.wave(graph, source, destination),
        )

    if "plan_many/cold" in wanted or "plan_many/warm" in wanted:
        from repro.service import RouteService

        batch = pinned_batch(config)
        cold_samples = []
        warm_samples = []
        for _ in range(reps):
            service = RouteService()
            csr.clear_cache()
            started = time.perf_counter()
            service.plan_many(graph, batch)
            cold_samples.append(time.perf_counter() - started)
            started = time.perf_counter()
            service.plan_many(graph, batch)
            warm_samples.append(time.perf_counter() - started)
        if "plan_many/cold" in wanted:
            report.timings["plan_many/cold"] = ScenarioTiming(
                "plan_many/cold", min(cold_samples),
                sum(cold_samples) / len(cold_samples), reps,
            )
        if "plan_many/warm" in wanted:
            report.timings["plan_many/warm"] = ScenarioTiming(
                "plan_many/warm", min(warm_samples),
                sum(warm_samples) / len(warm_samples), reps,
            )

    return report
