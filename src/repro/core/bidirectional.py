"""Bidirectional Dijkstra — now a kernel configuration.

The implementation is the CSR fused loop
:func:`repro.kernel.csr.bidirectional`;
``kernel.search(..., algorithm="bidirectional")`` dispatches to it like
every other algorithm, and the accelerator registry exposes it as a
one-stage configuration (``make_accelerator("bidirectional")``).

This module remains as the planner-facing front door (the registry and
``repro.core`` re-export :func:`bidirectional_search` from here).
"""

from __future__ import annotations

from repro.graphs.graph import Graph, NodeId
from repro.kernel.result import PathResult


def bidirectional_search(
    graph: Graph, source: NodeId, destination: NodeId
) -> PathResult:
    """Bidirectional Dijkstra between ``source`` and ``destination``.

    Runs Dijkstra simultaneously from both endpoints (backwards over
    reversed edges from the destination), alternating expansions, and
    terminates when the sum of the two frontiers' minimum keys is at
    least the best meeting-point cost seen so far — which certifies
    optimality for non-negative edge costs. Dispatches through the
    kernel's CSR fused tier.
    """
    from repro import kernel

    return kernel.search(graph, source, destination, algorithm="bidirectional")
