"""Pinned wall-clock benchmark: the CSR tier against the generic loop.

Scenarios (each best of ``repetitions`` runs):

* ``dijkstra/generic`` — the traced generic kernel loop
  (``search(..., trace=True)``), the reference every fused loop is
  held to counter for counter (the baseline);
* ``dijkstra/csr-cold`` — CSR tier with the build cache cleared every
  repetition (:func:`repro.kernel.csr.clear_cache`), so the flattening
  cost is inside the timed region;
* ``dijkstra/csr-warm`` — CSR tier against a warm build cache (the
  steady-state production path);
* ``astar-euclidean/generic`` / ``astar-euclidean/csr`` — A* with the
  euclidean estimator on the generic loop and the CSR tier;
* ``astar-landmark/csr`` — A* with a prepared :class:`LandmarkEstimator`
  (table builds run outside the timed region; they share the graph's
  one CSR snapshot through :func:`repro.kernel.csr.sssp`, the
  to-landmark tables over its transpose);
* ``iterative/generic`` / ``iterative/csr`` — the wave loop on each;
* ``plan_many/cold`` — a :class:`RouteService` batch on a fresh
  service (every distinct query computed);
* ``plan_many/warm`` — the same batch replayed on the same service
  (cache hits and dedup).

The registry's floor fails ``atis-repro bench wallclock`` if the warm
CSR tier stops beating the generic loop on the pinned Dijkstra pair.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench import BenchReport, ScenarioTiming, pinned_grid
from repro.core.estimators import EuclideanEstimator, LandmarkEstimator
from repro.kernel import csr, search


@dataclass
class WallclockConfig:
    """The pinned workload. Changing any field changes what a number
    means across commits — bump deliberately, never casually."""

    grid: int = 30
    cost_model: str = "variance"
    seed: int = 1993
    #: Timed runs per scenario; the report keeps best and mean.
    repetitions: int = 7
    #: Queries in the ``plan_many`` batch (drawn from ``seed``, with
    #: deliberate duplicates so dedup is part of the workload).
    batch_size: int = 24
    landmark_count: int = 4


@dataclass
class WallclockReport(BenchReport):
    NAME = "wall-clock"
    SCENARIOS = (
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
    SPEEDUPS = (
        ("dijkstra_csr_vs_generic", "dijkstra/generic", "dijkstra/csr-warm"),
        ("astar_euclidean_csr_vs_generic", "astar-euclidean/generic",
         "astar-euclidean/csr"),
        ("iterative_csr_vs_generic", "iterative/generic", "iterative/csr"),
        ("plan_many_warm_vs_cold", "plan_many/cold", "plan_many/warm"),
    )

    def summary_lines(self) -> List[str]:
        cfg = self.config
        return [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, corner-to-corner, best of {cfg.repetitions}",
        ] + super().summary_lines()


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


def run_wallclock(config: Optional[WallclockConfig] = None) -> WallclockReport:
    """Run every pinned scenario and return the report."""
    from repro.service import RouteService
    from repro.service.pool import default_landmarks

    config = config or WallclockConfig()
    report = WallclockReport(config=config)
    graph = pinned_grid(config)
    source, destination = pinned_pair(config)

    report.time(
        "dijkstra/generic",
        lambda: search(graph, source, destination, trace=True),
    )

    def cold_dijkstra():
        csr.clear_cache()
        return csr.uniform_cost(graph, source, destination)

    report.time("dijkstra/csr-cold", cold_dijkstra)
    csr.csr_for(graph)
    report.time(
        "dijkstra/csr-warm",
        lambda: csr.uniform_cost(graph, source, destination),
    )

    euclidean = EuclideanEstimator()
    report.time(
        "astar-euclidean/generic",
        lambda: search(
            graph, source, destination, algorithm="astar",
            estimator=euclidean, trace=True,
        ),
    )
    report.time(
        "astar-euclidean/csr",
        lambda: csr.best_first(graph, source, destination, euclidean),
    )

    landmark = LandmarkEstimator(default_landmarks(graph, config.landmark_count))
    started = time.perf_counter()
    landmark.preprocess(graph)
    report.overheads["landmark-preprocess"] = time.perf_counter() - started
    report.time(
        "astar-landmark/csr",
        lambda: csr.best_first(graph, source, destination, landmark),
    )

    report.time(
        "iterative/generic",
        lambda: search(
            graph, source, destination, algorithm="iterative", trace=True
        ),
    )
    report.time("iterative/csr", lambda: csr.wave(graph, source, destination))

    # Cold and warm pair up per repetition: each warm pass replays the
    # batch on the service its cold pass just filled.
    batch = pinned_batch(config)
    samples: Dict[str, List[float]] = {"plan_many/cold": [], "plan_many/warm": []}
    for _ in range(config.repetitions):
        service = RouteService()
        csr.clear_cache()
        for name in ("plan_many/cold", "plan_many/warm"):
            started = time.perf_counter()
            service.plan_many(graph, batch)
            samples[name].append(time.perf_counter() - started)
    for name, runs in samples.items():
        report.timings[name] = ScenarioTiming(
            name, min(runs), sum(runs) / len(runs), len(runs)
        )

    return report
