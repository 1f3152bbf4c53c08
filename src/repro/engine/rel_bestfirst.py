"""Relational best-first execution: Dijkstra and the A* versions.

This module configures the kernel loop (:mod:`repro.kernel`) to run
Figure 2 / Figure 3 as database programs over the S and R relations,
following the ten cost steps of Table 3:

1-3. create, populate and index R (skipped by A* version 1, which
     builds R lazily);
4.   open the source node;
per iteration:
5.   select the best open node (a scan of the frontier);
6.   move it to the explored set;
7.   join it with S to fetch its adjacency list (optimizer-chosen plan);
8.   conditionally REPLACE each neighbor's label;
9.   terminate when the destination is selected;
10.  reconstruct the path by chasing R.path pointers, then drop the
     temporaries.

Steps 1-4 happen in :class:`RelationalBestFirstPolicy`'s construction
(inside the kernel's init phase), 5-9 are the kernel loop driving that
policy over :class:`RelationalBackend`, and 10 is the policy's
finalize. The paper's three A* versions map onto two orthogonal
switches:

========  ====================  ==========
version   frontier              estimator
========  ====================  ==========
v1        separate relation     euclidean
v2        status attribute      euclidean
v3        status attribute      manhattan
========  ====================  ==========

Dijkstra is the status-attribute frontier with the zero estimator.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import NodeNotFoundError, PlannerError
from repro.graphs.graph import NodeId
from repro.core.estimators import (
    Estimator,
    EuclideanEstimator,
    ManhattanEstimator,
    ZeroEstimator,
)
from repro.engine.frontier import (
    SeparateRelationFrontier,
    StatusAttributeFrontier,
)
from repro.engine.relational_graph import RelationalGraph
from repro.engine.tracing import RelationalRunResult
from repro.kernel.backends import RelationalBackend, RelationalBestFirstPolicy
from repro.kernel.loop import SearchConfig, run_search

#: variant name -> (frontier kind, estimator factory)
ASTAR_VERSIONS = {
    "v1": ("separate-relation", EuclideanEstimator),
    "v2": ("status-attribute", EuclideanEstimator),
    "v3": ("status-attribute", ManhattanEstimator),
}


def run_best_first(
    rgraph: RelationalGraph,
    source: NodeId,
    destination: NodeId,
    estimator: Optional[Estimator] = None,
    frontier_kind: str = "status-attribute",
    algorithm: str = "astar",
    variant: str = "",
    max_iterations: Optional[int] = None,
) -> RelationalRunResult:
    """Execute one best-first single-pair query against the database.

    The relational graph's statistics ledger is reset first, so the
    returned costs cover exactly this run (graph loading is catalogued
    data, not query work — the paper's cost steps likewise start at
    "creating the resultant relation R").
    """
    graph = rgraph.graph
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    estimator = estimator if estimator is not None else ZeroEstimator()

    def make_policy(backend, stats, dest):
        def key_of(node_id: NodeId, path_cost: float) -> float:
            return path_cost + estimator.estimate(graph, node_id, dest)

        if frontier_kind == "status-attribute":
            R = rgraph.fresh_node_relation(populate=True)  # C1-C3
            frontier = StatusAttributeFrontier(R, rgraph.stats, key_of)
        elif frontier_kind == "separate-relation":
            R = rgraph.fresh_node_relation(populate=False)  # C1 only
            frontier = SeparateRelationFrontier(
                rgraph.db.create_relation, R, graph, rgraph.stats, key_of
            )
        else:
            raise PlannerError(f"unknown frontier kind {frontier_kind!r}")
        return RelationalBestFirstPolicy(rgraph, R, frontier)

    config = SearchConfig(
        algorithm=algorithm,
        variant=variant or frontier_kind,
        estimator=estimator,
        make_policy=make_policy,
        limit=(
            max_iterations
            if max_iterations is not None
            else 20 * len(graph) + 100
        ),
        limit_error=lambda bound: PlannerError(
            f"relational best-first exceeded {bound} iterations"
        ),
        trace=True,
    )
    return run_search(RelationalBackend(rgraph), source, destination, config)


# ----------------------------------------------------------------------
# named entry points
# ----------------------------------------------------------------------
def run_dijkstra(
    rgraph: RelationalGraph, source: NodeId, destination: NodeId
) -> RelationalRunResult:
    """Figure 2 over relations: zero estimator, status frontier."""
    return run_best_first(
        rgraph,
        source,
        destination,
        estimator=ZeroEstimator(),
        frontier_kind="status-attribute",
        algorithm="dijkstra",
        variant="status-attribute",
    )


def run_astar(
    rgraph: RelationalGraph,
    source: NodeId,
    destination: NodeId,
    version: str = "v3",
    estimator: Optional[Estimator] = None,
) -> RelationalRunResult:
    """Figure 3 over relations, in one of the paper's three versions.

    ``estimator`` overrides the version's default estimator (used by
    the estimator-quality ablations); the frontier kind always follows
    the version.
    """
    try:
        frontier_kind, estimator_factory = ASTAR_VERSIONS[version]
    except KeyError:
        raise PlannerError(
            f"unknown A* version {version!r}; known: "
            f"{', '.join(sorted(ASTAR_VERSIONS))}"
        ) from None
    return run_best_first(
        rgraph,
        source,
        destination,
        estimator=estimator if estimator is not None else estimator_factory(),
        frontier_kind=frontier_kind,
        algorithm="astar",
        variant=version,
    )
