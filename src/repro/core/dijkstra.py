"""Dijkstra's single-pair algorithm — Figure 2 of the paper.

The representative of the *partial transitive closure* class: one
minimum-cost frontier node is selected and expanded per iteration, and
the search terminates as soon as the destination is selected (Lemma 2).
Unlike the Iterative algorithm it "can terminate quickly if the
shortest path from s to d has fewer edges"; unlike A* it has no
lookahead and expands uniformly in all directions, which is why its
iteration count approaches |N| - 1 on diagonal grid queries (Table 5).

An *iteration* is one select-and-remove on the frontierSet whose node
actually gets expanded; the final selection of the destination itself
terminates the loop and is not counted, matching the paper's counts
(899 iterations on a 900-node grid).

This module is a thin configuration of :mod:`repro.kernel`: the heap
frontier policy with no estimator, on the in-memory backend.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.graphs.graph import Graph, NodeId
from repro.kernel.result import PathResult
from repro.kernel import csr, search


def dijkstra_search(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
) -> PathResult:
    """Find the shortest path from ``source`` to ``destination``.

    Implements Figure 2 with duplicate *avoidance* (the paper's
    preferred frontier policy): a node enters the frontier only once;
    label improvements for nodes already in the frontier are decrease-
    key operations, realised with the standard lazy-deletion binary-
    heap idiom (stale heap entries are skipped on pop, which leaves
    the expansion sequence identical to true decrease-key).

    Requires non-negative edge costs (enforced at graph construction).
    """
    return search(graph, source, destination, algorithm="dijkstra")


def dijkstra_sssp(
    graph: Graph, source: NodeId, cutoff: Optional[float] = None
) -> Dict[NodeId, float]:
    """Single-source shortest-path distances (no early termination).

    The partial-transitive-closure primitive the single-pair algorithm
    specialises; used by tests, the landmark estimator and the graph
    analysis helpers. ``cutoff`` optionally bounds the explored radius.
    """
    return csr.sssp(graph, source, cutoff)
