"""The Iterative (breadth-first, label-correcting) algorithm — Figure 1.

This is the paper's representative of the *transitive closure* class:
each iteration of the outer loop expands the **entire** frontierSet in
one wave, relaxes every outgoing edge, and collects the improved nodes
into the next wave. The search only terminates when the frontier is
empty, i.e. after the whole reachable graph has been labelled —
"the iterative algorithm cannot be terminated before exploring the
entire graph", which is why its iteration count is insensitive to path
length (Tables 5-8 show 2k-1 waves on a k x k grid regardless of the
query pair).

An *iteration* here is one wave (one trip of the outer while loop),
matching how the paper counts iterations for this algorithm.

This module is a thin configuration of :mod:`repro.kernel`: the wave
frontier policy on the in-memory backend.
"""

from __future__ import annotations

from typing import Optional

from repro.graphs.graph import Graph, NodeId
from repro.kernel.result import PathResult
from repro.kernel import search


def iterative_search(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    max_iterations: Optional[int] = None,
) -> PathResult:
    """Find the shortest path from ``source`` to ``destination``.

    Implements the pseudo-code of Figure 1: wave-synchronous label
    correcting over the whole graph. Correct for non-negative edge
    costs (Lemma 1); with costs that vary between edges a node may be
    *reopened* (re-enter a later wave after its label improves), which
    the paper calls backtracking and which inflates per-wave cost
    without changing the wave count much.

    ``max_iterations`` bounds the wave count as a safety valve for
    adversarial inputs; the natural bound is |N| waves on non-negative
    costs (each wave settles at least one node's final label).
    """
    return search(
        graph,
        source,
        destination,
        algorithm="iterative",
        max_iterations=max_iterations,
    )
