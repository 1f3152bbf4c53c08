"""The one expansion loop behind all five paper algorithms.

Section 3 of the paper presents Iterative, Dijkstra, and A* as one
best-first/label-correcting skeleton — select something from the
frontier, expand it against the adjacency relation, relax the labels,
repeat — differing only in *what* is selected (one best node vs a
whole wave), *how* the frontier is kept (heap, status attribute,
separate relation), and *which* estimator orders it. :func:`run_search`
is that skeleton, once: the frontier policy supplies
select/close/expand/finalize, the backend supplies adjacency rows and
accounting phases, and the :class:`SearchConfig` names the
configuration and bounds it.

The per-iteration sequence is fixed and matches both historical tiers
operation for operation:

1. ``select()`` — nothing left ends the search;
2. early-terminating policies check the destination *before* closing,
   so the final selection is neither counted as an iteration nor
   billed for a close (the paper counts 899 iterations on a 900-node
   grid);
3. enforce the configured limit *before* closing or counting — a
   bounded run performs at most ``limit`` expansions, never
   ``limit + 1`` — then close and count the iteration;
4. ``expand()`` — fetch adjacency through the backend, relax labels —
   returning the iteration-record fields;
5. append the trace record (when tracing) with the backend's
   cumulative cost at that instant.

Init, every iteration, and cleanup each run inside the backend's
matching accounting phase, preserving the phase-attributed costs the
experiments read (init / iterate / cleanup / traffic-sync).

:func:`reference_sssp` is the one-to-all counterpart kept beside it: a
plain dict-of-dict Dijkstra, structurally independent of the CSR
flattening, that the batch OD audits compare skim cells against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.kernel.result import IterationRecord, RunResult, SearchStats


@dataclass
class SearchConfig:
    """Names and bounds one kernel configuration.

    ``make_policy(backend, stats, destination)`` builds the frontier
    policy inside the backend's init phase (relational policies create
    and populate R there, billed as cost steps C1-C3); ``estimator``
    is prepared against the destination before the init phase opens,
    mirroring both historical tiers. ``limit`` of None means
    unbounded; otherwise ``limit_error(limit)`` supplies the exception
    raised when the count is exceeded (each historical loop has its
    own message and type, preserved verbatim by the configurations in
    :mod:`repro.core` and :mod:`repro.engine`).
    """

    algorithm: str
    make_policy: Callable
    variant: str = ""
    estimator: Optional[object] = None
    estimator_name: str = ""
    limit: Optional[int] = None
    limit_error: Optional[Callable[[int], Exception]] = None
    trace: bool = False
    extra: dict = field(default_factory=dict)


def run_search(backend, source, destination, config: SearchConfig) -> RunResult:
    """Drive one single-pair search: the kernel's only control flow."""
    graph = backend.graph
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    backend.begin_run()
    if config.estimator is not None:
        config.estimator.prepare(graph, destination)

    stats = SearchStats()
    with backend.phase("init"):
        policy = config.make_policy(backend, stats, destination)
        policy.open_node(source, 0.0, None)

    result = backend.make_result(config, source, destination, stats)
    limit = config.limit
    early = policy.early_termination
    tracing = config.trace
    found: Optional[dict] = None

    while True:
        with backend.phase("iterate"):
            selected = policy.select()
            if not selected:
                break
            if early and selected["node_id"] == destination:
                found = selected
                break
            if limit is not None and result.iterations >= limit:
                raise config.limit_error(limit)
            if early:
                policy.close(selected)
            result.iterations += 1
            record = policy.expand(selected, backend)
            if tracing:
                result.trace.append(
                    IterationRecord(
                        index=result.iterations,
                        cumulative_cost=backend.cumulative_cost,
                        **record,
                    )
                )

    with backend.phase("cleanup"):
        policy.finalize(result, found, source, destination, backend)

    backend.assign_phase_costs(result)
    return result


def reference_sssp(
    graph: Graph, source: NodeId
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """One-to-all Dijkstra with predecessors over dict adjacency.

    Returns ``(dist, pred)``: only reached nodes appear in ``dist``,
    and ``pred`` maps each reached node to its predecessor on the
    shortest path from ``source`` (``None`` for the source itself).
    Edges are relaxed in ``Graph.neighbors`` order with FIFO tie-breaks,
    the order :func:`repro.kernel.csr.sssp_tree` replays on flat
    arrays, so its distances equal the CSR tier's bit for bit and its
    tree path to any node is the route the single-pair search returns.
    This is the independent reference the demand subsystem's exactness
    audits hold the CSR skim to; a radius-bounded answer is the filter
    ``d <= cutoff`` over ``dist``.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    dist: Dict[NodeId, float] = {source: 0.0}
    pred: Dict[NodeId, Optional[NodeId]] = {source: None}
    heap = [(0.0, 0, source)]
    counter = 1
    settled = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, edge_cost in graph.neighbors(u):
            nd = d + edge_cost
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                pred[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return dist, pred
