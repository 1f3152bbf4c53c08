"""repro.kernel — one search kernel, pluggable graph backends.

The paper's central observation is that its five algorithms (Iterative,
Dijkstra, A* versions 1-3) are a single expansion loop varied along
three axes: frontier policy, estimator, and where the tuples live.
This package is that observation as code:

* :mod:`repro.kernel.loop` — the one loop (:func:`run_search`), the
  :class:`SearchConfig` that names a point in the design space, and
  :func:`reference_sssp`, the dict-of-dict one-to-all audit oracle;
* :mod:`repro.kernel.frontiers` — in-memory heap and wave policies;
* :mod:`repro.kernel.backends` — :class:`InMemoryBackend` (zero I/O)
  and :class:`RelationalBackend` (Table 3/4A rates through ``iostats``),
  plus the relational frontier-policy adapters;
* :mod:`repro.kernel.csr` — the compact CSR form of a graph
  (flat ``indptr``/``indices``/``weights`` slot lists, per-node
  ``(neighbor, weight)`` adjacency rows, a node-id interning table and
  the coordinate lists A*'s potentials read by dense id;
  one snapshot per graph state, cached for as long as the graph lives)
  and the flat-array fused loops that run on it — the one fast tier
  untraced in-memory runs dispatch to;
* :mod:`repro.kernel.accel` — the preprocess → customize → query
  accelerator pipeline (CCH-lite);
* :mod:`repro.kernel.result` — the unified :class:`RunResult` schema
  both tiers return.

:func:`search` is the front door for in-memory runs; the relational
configurations live in :mod:`repro.engine` (they need a prepared
:class:`RelationalGraph`).
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import UnknownAlgorithmError
from repro.graphs.graph import Graph, NodeId
from repro.kernel import accel, csr
from repro.kernel.accel import Accelerator, CCHAccelerator
from repro.kernel.csr import CSRGraph, csr_for
from repro.kernel.backends import (
    InMemoryBackend,
    RelationalBackend,
    RelationalBestFirstPolicy,
    RelationalWavePolicy,
    chase_path_pointers,
)
from repro.kernel.frontiers import HeapFrontierPolicy, WaveFrontierPolicy
from repro.kernel.loop import SearchConfig, reference_sssp, run_search
from repro.kernel.result import (
    IterationRecord,
    PathResult,
    RelationalRunResult,
    RunResult,
    SearchStats,
    reconstruct_path,
)

#: Algorithms :func:`search` accepts (the in-memory tier's kernel points).
IN_MEMORY_ALGORITHMS = ("dijkstra", "astar", "iterative", "bidirectional")


def search(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    algorithm: str = "dijkstra",
    estimator=None,
    max_iterations: Optional[int] = None,
    trace: bool = False,
) -> RunResult:
    """Run one in-memory single-pair search through the kernel.

    ``algorithm`` selects the frontier policy: ``"dijkstra"`` is the
    heap policy with no lookahead (``estimator`` is ignored),
    ``"astar"`` the heap policy ordered by ``g + h`` (``estimator``
    defaults to zero, i.e. Dijkstra-equivalent expansion), and
    ``"iterative"`` the wave policy. With ``trace=False`` (the default)
    the CSR fused loops run on the cached flat-array form — this is the
    production path. With ``trace=True`` the generic loop runs
    (the reference every fused loop is held to) and the result carries
    per-iteration :class:`IterationRecord` entries (including the
    selected labels), which is what the cross-backend equivalence tests
    compare; counters and results are identical either way.
    """
    if algorithm not in IN_MEMORY_ALGORITHMS:
        raise UnknownAlgorithmError(algorithm, IN_MEMORY_ALGORITHMS)
    if algorithm == "bidirectional":
        if trace:
            raise ValueError(
                "bidirectional has no traced realisation; its two "
                "frontiers do not map onto the single-frontier kernel "
                "loop — use trace=False"
            )
        return csr.bidirectional(graph, source, destination)

    if algorithm == "astar" and estimator is None:
        from repro.core.estimators import ZeroEstimator

        estimator = ZeroEstimator()

    if not trace:
        if algorithm == "dijkstra":
            return csr.uniform_cost(graph, source, destination)
        if algorithm == "astar":
            return csr.best_first(
                graph, source, destination, estimator, max_iterations
            )
        return csr.wave(graph, source, destination, max_iterations)

    if algorithm == "dijkstra":
        config = SearchConfig(
            algorithm="dijkstra",
            make_policy=lambda backend, stats, dest: HeapFrontierPolicy(
                backend.graph, stats, None, dest
            ),
            trace=True,
        )
    elif algorithm == "astar":
        est = estimator
        limit = (
            max_iterations
            if max_iterations is not None
            else max(1000, len(graph) * len(graph))
        )
        config = SearchConfig(
            algorithm="astar",
            estimator=est,
            estimator_name=est.name,
            make_policy=lambda backend, stats, dest: HeapFrontierPolicy(
                backend.graph, stats, est, dest
            ),
            limit=limit,
            limit_error=lambda bound: RuntimeError(
                f"A* exceeded {bound} iterations; the estimator may be "
                "wildly inconsistent"
            ),
            trace=True,
        )
    else:
        limit = (
            max_iterations
            if max_iterations is not None
            else 4 * len(graph) + 4
        )
        config = SearchConfig(
            algorithm="iterative",
            make_policy=lambda backend, stats, dest: WaveFrontierPolicy(
                backend.graph, stats
            ),
            limit=limit,
            limit_error=lambda bound: RuntimeError(
                f"iterative search exceeded {bound} waves; "
                "graph may have pathological costs"
            ),
            trace=True,
        )
    return run_search(InMemoryBackend(graph), source, destination, config)


__all__ = [
    "Accelerator",
    "CCHAccelerator",
    "CSRGraph",
    "IN_MEMORY_ALGORITHMS",
    "accel",
    "HeapFrontierPolicy",
    "InMemoryBackend",
    "IterationRecord",
    "PathResult",
    "RelationalBackend",
    "RelationalBestFirstPolicy",
    "RelationalRunResult",
    "RelationalWavePolicy",
    "RunResult",
    "SearchConfig",
    "SearchStats",
    "WaveFrontierPolicy",
    "chase_path_pointers",
    "csr",
    "csr_for",
    "reconstruct_path",
    "reference_sssp",
    "run_search",
    "search",
]
