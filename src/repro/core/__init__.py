"""Core single-pair path computation algorithms (the paper's contribution)."""

from repro.core.astar import astar_search, greedy_best_first_search
from repro.core.bidirectional import bidirectional_search
from repro.core.dijkstra import dijkstra_search, dijkstra_sssp
from repro.core.estimators import (
    Estimator,
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ScaledEstimator,
    ZeroEstimator,
    make_estimator,
)
from repro.core.iterative import iterative_search
from repro.core.kshortest import (
    diverse_alternatives,
    k_shortest_paths,
    path_overlap,
)
from repro.core.planner import RoutePlanner, default_planner, plan_route
from repro.kernel.result import PathResult, SearchStats, reconstruct_path

__all__ = [
    "astar_search",
    "greedy_best_first_search",
    "bidirectional_search",
    "dijkstra_search",
    "dijkstra_sssp",
    "Estimator",
    "EuclideanEstimator",
    "LandmarkEstimator",
    "ManhattanEstimator",
    "ScaledEstimator",
    "ZeroEstimator",
    "make_estimator",
    "iterative_search",
    "k_shortest_paths",
    "diverse_alternatives",
    "path_overlap",
    "RoutePlanner",
    "default_planner",
    "plan_route",
    "PathResult",
    "SearchStats",
    "reconstruct_path",
]
