r"""E9 — ablation: single-pair search vs precomputed closures.

Not a paper artifact but the paper's *motivating claim*, quantified:
"These algorithms compute many more paths beyond the single pair path
that is of interest to ATIS, and hence may not be satisfactory for ATIS
due to the dynamic nature of edge costs."

On a benchmark grid we price three architectures for answering Q
route queries between travel-time refreshes:

* **single-pair A\*** — plan each query fresh (no precomputation);
* **all-pairs table** — build Floyd-Warshall / repeated-Dijkstra once
  per refresh, then answer queries by lookup;
* **reachability closure** — what the 1980s TC algorithms actually
  produce (it cannot even answer a cost query, but we count its work
  for scale).

The output reports elementary operations per refresh cycle as a
function of Q, and the break-even query count where a precomputed
table would start to pay — which for ATIS-size refresh rates it never
reaches.
"""

from __future__ import annotations

from typing import Dict, List

from repro import kernel
from repro.closure.allpairs import floyd_warshall_paths, repeated_dijkstra_paths
from repro.closure.reachability import dfs_closure, seminaive_closure
from repro.core.estimators import ManhattanEstimator
from repro.graphs.grid import make_paper_grid, paper_queries
from repro.experiments.spec import ExperimentResult, ExperimentSpec, register
from repro.experiments.tables import render_table

QUERY_COUNTS = (1, 10, 100)


def run(k: int = 15, seed: int = 1993, cross_check: bool = True) -> ExperimentResult:
    graph = make_paper_grid(k, "variance", seed=seed)
    queries = list(paper_queries(k).values())

    # Per-query cost of fresh single-pair search (average edge
    # relaxations over the three canonical queries).
    single_pair_ops: List[int] = []
    for query in queries:
        result = kernel.search(
            graph, query.source, query.destination, "astar", ManhattanEstimator()
        )
        single_pair_ops.append(result.stats.edges_relaxed)
    per_query = sum(single_pair_ops) / len(single_pair_ops)

    # One-time build cost of each precomputed structure.
    builds = {
        "floyd-warshall": floyd_warshall_paths(graph).operations,
        "repeated-dijkstra": repeated_dijkstra_paths(graph).operations,
        "seminaive-closure": seminaive_closure(graph).operations,
        "dfs-closure": dfs_closure(graph).operations,
    }

    conditions = [f"Q={q}" for q in QUERY_COUNTS]
    operations: Dict[str, Dict[str, float]] = {
        "astar-single-pair": {
            f"Q={q}": per_query * q for q in QUERY_COUNTS
        }
    }
    for name, build_ops in builds.items():
        # Lookup cost after the build is ~path length; negligible but
        # charged as one operation per query for honesty.
        operations[name] = {
            f"Q={q}": build_ops + q for q in QUERY_COUNTS
        }

    breakeven = {
        name: build_ops / per_query for name, build_ops in builds.items()
    }
    cheapest = min(breakeven, key=breakeven.get)
    result = ExperimentResult(
        experiment_id="E9",
        title=(
            f"Ablation: single-pair vs precomputed closures "
            f"({k}x{k} grid, operations per travel-time refresh cycle)"
        ),
        conditions=conditions,
        execution_cost=operations,
        notes=(
            "Break-even queries per refresh before a precomputed table "
            "pays off:\n"
            + "\n".join(
                f"  {name}: {ratio:,.0f} queries"
                for name, ratio in sorted(breakeven.items(), key=lambda x: x[1])
            )
            + f"\n(cheapest closure: {cheapest}; single-pair A* averaged "
            f"{per_query:,.0f} edge relaxations per query)"
        ),
    )
    return result


def render(result: ExperimentResult) -> str:
    table = render_table(
        "Elementary operations per refresh cycle, by queries Q between "
        "refreshes",
        result.execution_cost,
        result.conditions,
        row_header="Architecture",
    )
    return f"{result.title}\n\n{table}\n\n{result.notes}"


SPEC = register(
    ExperimentSpec(
        experiment_id="E9",
        paper_artifacts=("Section 1 motivation (ablation)",),
        title="Single-pair vs precomputed closures",
        runner=run,
        renderer=render,
    )
)
