"""E10 — the optimality/speed trade-off (the paper's future work).

"Our future work will include analyzing the algorithms to find a way to
characterize the tradeoff [between optimality and speed]."

This experiment characterizes it on the Minneapolis map: weighted A*
sweeps estimator weights from exact (w = 1) toward greedy, recording
average node expansions and the worst-case sub-optimality gap over the
paper's four queries; the landmark (ALT) estimator and pure greedy
best-first anchor the two ends of the spectrum.
"""

from __future__ import annotations

from typing import Dict

from repro import kernel
from repro.core.estimators import (
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ScaledEstimator,
)
from repro.core.planner import RoutePlanner, greedy_best_first_search
from repro.graphs.roadmap import make_minneapolis_map, road_queries
from repro.experiments.spec import ExperimentResult, ExperimentSpec, register
from repro.experiments.tables import render_table

WEIGHTS = (1.0, 1.2, 1.5, 2.0, 3.0)


def run(seed: int = 1993, cross_check: bool = True) -> ExperimentResult:
    road_map = make_minneapolis_map(seed=seed)
    graph = road_map.graph
    queries = road_queries(road_map)
    planner = RoutePlanner()
    optima = {
        label: planner.plan(graph, s, d, "dijkstra").cost
        for label, (s, d) in queries.items()
    }

    candidates = [("dijkstra", None)]
    for weight in WEIGHTS:
        candidates.append(
            (f"euclid-w{weight:g}", ScaledEstimator(EuclideanEstimator(), weight))
        )
    candidates.append(("manhattan", ManhattanEstimator()))
    landmarks = [road_map.landmark(name) for name in "ABCD"]
    candidates.append(("landmark-ALT", LandmarkEstimator(landmarks)))
    candidates.append(("greedy", None))

    expansions: Dict[str, Dict[str, float]] = {}
    gaps: Dict[str, Dict[str, float]] = {}
    for name, estimator in candidates:
        expansions[name] = {}
        gaps[name] = {}
        for label, (source, destination) in queries.items():
            if name == "dijkstra":
                result = planner.plan(graph, source, destination, "dijkstra")
            elif name == "greedy":
                result = greedy_best_first_search(
                    graph, source, destination, EuclideanEstimator()
                )
            else:
                result = kernel.search(graph, source, destination, "astar", estimator)
            expansions[name][label] = result.stats.nodes_expanded
            gaps[name][label] = 100.0 * (result.cost / optima[label] - 1.0)

    result = ExperimentResult(
        experiment_id="E10",
        title="Optimality/speed trade-off on the Minneapolis map "
        "(the paper's future-work question)",
        conditions=list(queries),
        execution_cost=expansions,  # expansions play the cost axis here
    )
    worst_gap_rows = []
    for name in expansions:
        worst = max(gaps[name].values())
        mean_expansions = sum(expansions[name].values()) / len(queries)
        worst_gap_rows.append(
            f"  {name:<14} avg expansions {mean_expansions:7.0f}   "
            f"worst gap {worst:5.1f}%"
        )
    result.notes = (
        "Trade-off summary (averaged over the four paper queries):\n"
        + "\n".join(worst_gap_rows)
    )
    return result


def render(result: ExperimentResult) -> str:
    table = render_table(
        "Node expansions per query",
        result.execution_cost,
        result.conditions,
        row_header="Estimator",
    )
    return f"{result.title}\n\n{table}\n\n{result.notes}"


SPEC = register(
    ExperimentSpec(
        experiment_id="E10",
        paper_artifacts=("Section 6 future work (ablation)",),
        title="Optimality/speed trade-off",
        runner=run,
        renderer=render,
    )
)
