"""repro — reproduction of Shekhar, Kohli & Coyle (ICDE 1993).

Single-pair path computation algorithms for Advanced Traveller
Information Systems, including the paper's relational (database-backed)
execution engine, analytical I/O cost model, and experiment harness.

Public API highlights
---------------------
* :class:`repro.RoutePlanner` — in-memory planners (iterative /
  dijkstra / astar / bidirectional / greedy).
* :func:`repro.make_grid` / ``repro.graphs.roadmap.make_minneapolis_map``
  — the paper's benchmark graphs.
* :mod:`repro.engine` — the algorithms executed over paged relations
  with block-level I/O cost accounting (the "EQUEL on INGRES" tier).
* :mod:`repro.costmodel` — the algebraic cost formulas of Section 4.
* :mod:`repro.experiments` — regenerates every table and figure.
"""

from repro.core import (
    PathResult,
    RoutePlanner,
    SearchStats,
    diverse_alternatives,
    greedy_best_first_search,
    k_shortest_paths,
)
from repro.core.estimators import (
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ScaledEstimator,
    ZeroEstimator,
    make_estimator,
)
from repro.graphs import (
    Graph,
    graph_from_edges,
    make_grid,
    make_paper_grid,
    paper_queries,
)
from repro.faults import ChaosConfig, FaultInjector, FaultPlan, run_chaos
from repro.service import EstimatorPool, RouteCache, RouteService
from repro.traffic import TrafficFeed
from repro.demand import assign, select_link, skim  # after traffic: assign needs it

__version__ = "1.0.0"

__all__ = [
    "PathResult",
    "RoutePlanner",
    "SearchStats",
    "greedy_best_first_search",
    "k_shortest_paths",
    "diverse_alternatives",
    "EuclideanEstimator",
    "LandmarkEstimator",
    "ManhattanEstimator",
    "ScaledEstimator",
    "ZeroEstimator",
    "make_estimator",
    "Graph",
    "graph_from_edges",
    "make_grid",
    "make_paper_grid",
    "paper_queries",
    "RouteService",
    "RouteCache",
    "EstimatorPool",
    "TrafficFeed",
    "skim",
    "select_link",
    "assign",
    "ChaosConfig",
    "FaultInjector",
    "FaultPlan",
    "run_chaos",
    "__version__",
]
