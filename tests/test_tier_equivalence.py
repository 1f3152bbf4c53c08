"""Cross-tier equivalence: the relational engine vs the in-memory core.

Both tiers implement the same three algorithms; on any graph they must
find equal-cost paths, and for the deterministic workloads their
iteration counts must match exactly. Hypothesis drives random small
grids and sparse directed graphs through both tiers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.estimators import EuclideanEstimator, ManhattanEstimator
from repro.engine import RelationalGraph, run_relational
from repro.graphs.costmodels import VarianceCostModel
from repro.graphs.grid import make_grid
from repro.graphs.random_graphs import random_sparse_directed

_SETTINGS = settings(max_examples=12, deadline=None)


@_SETTINGS
@given(k=st.integers(3, 6), seed=st.integers(0, 50))
def test_grid_costs_agree_across_tiers(k, seed):
    graph = make_grid(k, VarianceCostModel(seed=seed))
    rgraph = RelationalGraph(graph)
    source, destination = (0, 0), (k - 1, k - 1)
    reference = kernel.search(graph, source, destination)
    for algorithm in ("iterative", "dijkstra", "astar-v3"):
        run = run_relational(graph, source, destination, algorithm, rgraph=rgraph)
        assert run.found == reference.found
        assert run.cost == pytest.approx(reference.cost)


@_SETTINGS
@given(k=st.integers(3, 6), seed=st.integers(0, 50))
def test_grid_iterations_agree_across_tiers(k, seed):
    graph = make_grid(k, VarianceCostModel(seed=seed))
    rgraph = RelationalGraph(graph)
    source, destination = (0, 0), (k - 1, k - 1)

    core_counts = {
        "iterative": kernel.search(graph, source, destination, "iterative").iterations,
        "dijkstra": kernel.search(graph, source, destination).iterations,
    }
    for algorithm, expected in core_counts.items():
        run = run_relational(graph, source, destination, algorithm, rgraph=rgraph)
        assert run.iterations == expected


@_SETTINGS
@given(seed=st.integers(0, 100))
def test_sparse_directed_graphs_agree(seed):
    graph = random_sparse_directed(15, 25, seed=seed)
    rgraph = RelationalGraph(graph)
    reference = kernel.search(graph, 0, 8)
    for algorithm in ("iterative", "dijkstra"):
        run = run_relational(graph, 0, 8, algorithm, rgraph=rgraph)
        assert run.found == reference.found
        if run.found:
            assert run.cost == pytest.approx(reference.cost)
            assert graph.is_valid_path(run.path)


@_SETTINGS
@given(k=st.integers(3, 5), seed=st.integers(0, 30))
def test_astar_versions_never_beat_optimum(k, seed):
    graph = make_grid(k, VarianceCostModel(seed=seed))
    rgraph = RelationalGraph(graph)
    source, destination = (0, 0), (0, k - 1)
    optimum = kernel.search(graph, source, destination).cost
    for version in ("astar-v1", "astar-v2", "astar-v3"):
        run = run_relational(graph, source, destination, version, rgraph=rgraph)
        assert run.found
        assert run.cost >= optimum - 1e-9
        # Manhattan and euclidean are admissible on grids -> optimal.
        assert run.cost == pytest.approx(optimum)


def test_engine_astar_expansion_counts_match_core_on_grid():
    """Same tie-breaking semantics: engine A*-v3 expands within a hair
    of core A*-manhattan on the benchmark grid."""
    graph = make_grid(10, VarianceCostModel(seed=1993))
    rgraph = RelationalGraph(graph)
    core = kernel.search(graph, (0, 0), (9, 9), "astar", ManhattanEstimator())
    engine = run_relational(graph, (0, 0), (9, 9), "astar-v3", rgraph=rgraph)
    assert abs(engine.iterations - core.iterations) <= max(
        3, core.iterations // 20
    )
