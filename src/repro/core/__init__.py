"""Core single-pair path computation algorithms (the paper's contribution)."""

from repro.core.estimators import (
    Estimator,
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ScaledEstimator,
    ZeroEstimator,
    make_estimator,
)
from repro.core.kshortest import (
    diverse_alternatives,
    k_shortest_paths,
    path_overlap,
)
from repro.core.planner import RoutePlanner, greedy_best_first_search
from repro.kernel.result import PathResult, SearchStats, reconstruct_path

__all__ = [
    "greedy_best_first_search",
    "Estimator",
    "EuclideanEstimator",
    "LandmarkEstimator",
    "ManhattanEstimator",
    "ScaledEstimator",
    "ZeroEstimator",
    "make_estimator",
    "k_shortest_paths",
    "diverse_alternatives",
    "path_overlap",
    "RoutePlanner",
    "PathResult",
    "SearchStats",
    "reconstruct_path",
]
