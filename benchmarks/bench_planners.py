"""Ablation benchmarks: raw planner throughput and design choices.

These go beyond the paper's artifacts to benchmark the design decisions
DESIGN.md calls out:

* in-memory planner throughput (what a modern adopter of the library
  actually runs) across the three paper algorithms and the extensions;
* estimator ablation: zero vs euclidean vs manhattan vs landmark (ALT)
  expansions on the road map;
* buffer-pool ablation: how modern caching would change the 1993
  conclusions (pass-through vs a pool big enough to hold R);
* backend parity: the same kernel configuration on the in-memory vs
  relational backend.

Besides pytest-benchmark's own output, the module writes the domain
numbers (iterations, costs, expansions) to ``BENCH_planners.json`` at
the repo root, so a CI artifact carries the reproduced quantities
without parsing benchmark JSON.
"""

import json
from pathlib import Path

import pytest

from repro import kernel
from repro.core.estimators import (
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ZeroEstimator,
)
from repro.core.planner import RoutePlanner
from repro.engine import RelationalGraph, run_dijkstra
from repro.graphs.grid import make_paper_grid
from repro.graphs.roadmap import make_minneapolis_map, road_queries
from repro.storage.database import Database
from repro.storage.iostats import IOStatistics


#: Domain numbers collected by every benchmark in this module, dumped
#: to BENCH_planners.json when the module finishes.
_RESULTS: dict = {}

#: Keys a complete run produces. The emitter refuses to write unless
#: every one is present, so an interrupted or filtered run (-k, -x,
#: Ctrl-C) can never overwrite a complete BENCH_planners.json with a
#: partial one.
_EXPECTED_KEYS = frozenset({
    "throughput/iterative",
    "throughput/dijkstra",
    "throughput/astar-manhattan",
    "throughput/astar-euclidean",
    "throughput/bidirectional",
    "throughput/greedy-manhattan",
    "estimator_ablation/A->B",
    "buffer_pool_ablation/dijkstra",
    "backend_parity/dijkstra",
})


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if _EXPECTED_KEYS.issubset(_RESULTS):
        path = Path(__file__).resolve().parent.parent / "BENCH_planners.json"
        path.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def grid30():
    return make_paper_grid(30, "variance")


@pytest.fixture(scope="module")
def road_map():
    return make_minneapolis_map()


@pytest.mark.parametrize(
    "algorithm,estimator",
    [
        ("iterative", None),
        ("dijkstra", None),
        ("astar", "manhattan"),
        ("astar", "euclidean"),
        ("bidirectional", None),
        ("greedy", "manhattan"),
    ],
)
def test_bench_core_planner_throughput(benchmark, grid30, algorithm, estimator):
    """Wall-clock of the in-memory planners on the 30x30 diagonal."""
    planner = RoutePlanner()
    result = benchmark(
        planner.plan, grid30, (0, 0), (29, 29), algorithm, estimator
    )
    assert result.found
    benchmark.extra_info["iterations"] = result.iterations
    benchmark.extra_info["cost"] = result.cost
    _RESULTS[f"throughput/{algorithm}" + (f"-{estimator}" if estimator else "")] = {
        "iterations": result.iterations,
        "cost": result.cost,
        "nodes_expanded": result.stats.nodes_expanded,
    }


def test_bench_estimator_ablation_on_road_map(benchmark, road_map):
    """Expansions per estimator on the A->B query (run once)."""
    graph = road_map.graph
    source, destination = road_queries(road_map)["A to B"]
    landmarks = [road_map.landmark(name) for name in ("C", "D", "G")]
    estimators = {
        "zero": ZeroEstimator(),
        "euclidean": EuclideanEstimator(),
        "manhattan": ManhattanEstimator(),
        "landmark": LandmarkEstimator(landmarks),
    }

    def sweep():
        return {
            name: kernel.search(graph, source, destination, "astar", estimator).iterations
            for name, estimator in estimators.items()
        }

    expansions = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["expansions"] = expansions
    _RESULTS["estimator_ablation/A->B"] = expansions
    print()
    print("A* expansions on A->B by estimator:", expansions)
    # Informed estimators beat blind search; ALT stays admissible AND focused.
    assert expansions["euclidean"] < expansions["zero"]
    assert expansions["landmark"] < expansions["zero"]


def test_bench_buffer_pool_ablation(benchmark, grid30):
    """1993 pass-through I/O vs a modern pool that caches R.

    A pool holding R's four blocks makes the per-iteration frontier
    scan nearly free, compressing the engine's Dijkstra cost — the
    modernization DESIGN.md flags as an ablation.
    """

    def sweep():
        costs = {}
        for capacity in (0, 64):
            stats = IOStatistics()
            database = Database(buffer_capacity=capacity, stats=stats)
            rgraph = RelationalGraph(grid30, database=database)
            run = run_dijkstra(rgraph, (0, 0), (29, 29))
            costs[f"capacity={capacity}"] = run.execution_cost
        return costs

    costs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["costs"] = costs
    _RESULTS["buffer_pool_ablation/dijkstra"] = costs
    print()
    print("Dijkstra engine cost by buffer capacity:", costs)
    assert costs["capacity=64"] < costs["capacity=0"]


def test_bench_backend_parity(benchmark, grid30):
    """One kernel configuration, both backends.

    The relational run must select the same labels (equal iteration
    count and path cost); the benchmark records its billed execution
    units next to the in-memory run's free traversal.
    """

    def sweep():
        memory = kernel.search(grid30, (0, 0), (29, 29))
        rgraph = RelationalGraph(grid30)
        relational = run_dijkstra(rgraph, (0, 0), (29, 29))
        return memory, relational

    memory, relational = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert relational.iterations == memory.iterations
    assert abs(relational.cost - memory.cost) < 1e-9
    parity = {
        "iterations": memory.iterations,
        "cost": memory.cost,
        "relational_execution_units": relational.execution_cost,
    }
    benchmark.extra_info["parity"] = parity
    _RESULTS["backend_parity/dijkstra"] = parity
