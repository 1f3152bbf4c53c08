"""Compact CSR tier: the in-memory kernel's one fused fast path.

The dict-of-dict ``Graph`` is the right construction substrate —
eager validation, cheap mutation — but the wrong traversal substrate:
every relaxation pays a tuple hash for the neighbor lookup and a dict
probe for the label. This module flattens a graph once into the layout
road-network engines use (Wu et al.'s survey; aequilibrae's compiled
path engine): three contiguous ``array`` vectors

* ``indptr``  — ``indptr[i]:indptr[i+1]`` brackets node *i*'s edges,
* ``indices`` — the neighbor's dense index per edge,
* ``weights`` — the edge cost per edge,

plus an interning table mapping arbitrary hashable node ids to dense
``0..n-1`` indices (``index_of`` / ``node_ids``). Edges appear in
exactly the order ``Graph.neighbors`` yields them and nodes in
``Graph.node_ids`` order, so a search over the CSR form relaxes edges
in the same sequence as the generic loop over the dict form — which is
what makes the two *byte-identical* in paths, costs, and every
:class:`~repro.kernel.result.SearchStats` counter (tests/test_kernel.py
holds the proofs).

Builds are cached per :attr:`Graph.fingerprint`: one entry per graph
``uid``, replaced when a mutation bumps the version, shared process-wide
so the service's estimator pool (landmark table builds run
:func:`sssp`) and its query path reuse one flattening. The cache is
bounded LRU; :func:`cache_stats` feeds ``RouteService.snapshot()``.

The search loops below are the kernel loop fused for flat state —
``uniform_cost`` is the heap policy with no lookahead (Dijkstra,
Figure 2), ``best_first`` the heap policy with an estimator (A*,
Figure 3), ``wave`` the wave-synchronous policy (Iterative, Figure 1):
preallocated distance/predecessor lists and status bytearrays indexed
by dense node index, and an index-based lazy-deletion heap (heap
entries carry ints, so tie-breaking never compares node ids). Counters
are accumulated in locals and written to the ``SearchStats`` once at
the end — except ``observe_frontier``, which is called live per
iteration exactly as the generic loop does, so instrumentation that
records the observation sequence sees identical streams from both.
Iteration limits are enforced *before* the bounding expansion: a
bounded run performs at most ``limit`` expansions (waves), never
``limit + 1``.
"""

from __future__ import annotations

import heapq
import math
import threading
from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.kernel.result import RunResult, SearchStats

_INF = math.inf


class CSRGraph:
    """One immutable CSR snapshot of a :class:`Graph` state.

    ``fingerprint`` records the graph state the snapshot was taken
    from; the cache refuses to serve it for any other state.
    """

    __slots__ = (
        "fingerprint",
        "node_count",
        "edge_count",
        "node_ids",
        "index_of",
        "indptr",
        "indices",
        "weights",
        "indptr_list",
        "indices_list",
        "weights_list",
        "_reverse",
    )

    def __init__(self, graph: Graph) -> None:
        self.fingerprint = graph.fingerprint
        node_ids: List[NodeId] = list(graph.node_ids())
        index_of: Dict[NodeId, int] = {
            node_id: i for i, node_id in enumerate(node_ids)
        }
        n = len(node_ids)
        indptr = array("l", [0]) * (n + 1)
        indices = array("l")
        weights = array("d")
        k = 0
        for i, node_id in enumerate(node_ids):
            for v, cost in graph.neighbors(node_id):
                indices.append(index_of[v])
                weights.append(cost)
                k += 1
            indptr[i + 1] = k
        self.node_count = n
        self.edge_count = k
        self.node_ids = node_ids
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # Interpreter-hot-loop views of the same flat vectors. The
        # ``array`` vectors are the canonical compact layout (and what
        # a buffer-protocol consumer would hand to numpy or a compiled
        # kernel), but ``array.__getitem__`` boxes a fresh object on
        # every access; the interned list views return the same stored
        # objects by pointer, which is what the pure-Python loops
        # index. Built once per fingerprint alongside the arrays.
        self.indptr_list = list(indptr)
        self.indices_list = list(indices)
        self.weights_list = list(weights)
        self._reverse = None

    def reverse_lists(self):
        """The transpose as flat lists: ``(rindptr, rindices, rweights)``.

        ``rindptr[v]:rindptr[v+1]`` brackets node *v*'s **incoming**
        edges; ``rindices`` holds the source's dense index and
        ``rweights`` the edge cost. Built lazily by counting sort on
        first use (the bidirectional fused loop is the only consumer)
        and cached on the snapshot — the snapshot is immutable, so the
        transpose can never go stale, and a racing double build is
        idempotent.
        """
        if self._reverse is None:
            n = self.node_count
            indptr = self.indptr_list
            indices = self.indices_list
            weights = self.weights_list
            counts = [0] * (n + 1)
            for v in indices:
                counts[v + 1] += 1
            for i in range(n):
                counts[i + 1] += counts[i]
            fill = counts[:n]
            rindices = [0] * self.edge_count
            rweights = [0.0] * self.edge_count
            for u in range(n):
                for k in range(indptr[u], indptr[u + 1]):
                    v = indices[k]
                    p = fill[v]
                    rindices[p] = u
                    rweights[p] = weights[k]
                    fill[v] = p + 1
            self._reverse = (counts, rindices, rweights)
        return self._reverse

    def __repr__(self) -> str:
        return (
            f"CSRGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"fingerprint={self.fingerprint})"
        )


# ----------------------------------------------------------------------
# fingerprint-keyed build cache
# ----------------------------------------------------------------------
_cache_lock = threading.Lock()
_cache: "OrderedDict[int, CSRGraph]" = OrderedDict()
_cache_capacity = 32
_stats = {
    "hits": 0,
    "misses": 0,
    "builds": 0,
    "invalidations": 0,
    "evictions": 0,
}


def csr_for(graph: Graph) -> CSRGraph:
    """Return the cached CSR form of ``graph``'s current state.

    Keyed by ``graph.uid`` with the fingerprint checked on every hit:
    a mutation (version bump) makes the cached entry unservable and the
    next call rebuilds. A build that races a cost epoch (the fingerprint
    moved, or an epoch is mid-apply) is returned to its caller — whose
    optimistic retry at the service layer will discard the run — but
    never cached.
    """
    fingerprint = graph.fingerprint
    uid = fingerprint[0]
    with _cache_lock:
        entry = _cache.get(uid)
        if entry is not None:
            if entry.fingerprint == fingerprint:
                _cache.move_to_end(uid)
                _stats["hits"] += 1
                return entry
            _stats["invalidations"] += 1
        _stats["misses"] += 1
    built = CSRGraph(graph)
    with _cache_lock:
        _stats["builds"] += 1
        if graph.fingerprint == fingerprint and not graph.cost_update_in_progress:
            _cache[uid] = built
            _cache.move_to_end(uid)
            while len(_cache) > _cache_capacity:
                _cache.popitem(last=False)
                _stats["evictions"] += 1
    return built


def clear_cache() -> None:
    """Drop every cached CSR build (used by cold-start benchmarks)."""
    with _cache_lock:
        _cache.clear()


def configure_cache(capacity: int) -> None:
    """Resize the build cache (evicting LRU entries if shrinking)."""
    global _cache_capacity
    if capacity < 1:
        raise ValueError("CSR cache capacity must be >= 1")
    with _cache_lock:
        _cache_capacity = capacity
        while len(_cache) > _cache_capacity:
            _cache.popitem(last=False)
            _stats["evictions"] += 1


def cache_stats() -> Dict[str, int]:
    """Counter view of the build cache (hits/misses/builds/...)."""
    with _cache_lock:
        snap = dict(_stats)
        snap["entries"] = len(_cache)
    return snap


def reset_stats() -> None:
    """Zero the cache counters (entries are untouched; tests use this)."""
    with _cache_lock:
        for name in _stats:
            _stats[name] = 0


# ----------------------------------------------------------------------
# flat-array fused loops
# ----------------------------------------------------------------------
def uniform_cost(graph: Graph, source: NodeId, destination: NodeId) -> RunResult:
    """Dijkstra's single-pair search on the CSR tier (Figure 2)."""
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    csr = csr_for(graph)
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    s = csr.index_of[source]
    t = csr.index_of[destination]
    n = csr.node_count

    stats = SearchStats()
    observe = stats.observe_frontier
    dist = [_INF] * n
    pred = [-1] * n
    # 0 = unlabelled, 1 = labelled (has a cost), 2 = explored.
    status = bytearray(n)
    dist[s] = 0.0
    status[s] = 1
    counter = 0
    heap = [(0.0, 0, s)]
    pop = heapq.heappop
    push = heapq.heappush
    frontier_size = 1
    frontier_inserts = 1
    iterations = 0
    edges_relaxed = 0
    nodes_updated = 0
    found = False

    while heap:
        g, _, u = pop(heap)
        if status[u] == 2 or g > dist[u]:
            continue  # stale lazy-deletion entry
        frontier_size -= 1
        status[u] = 2
        if u == t:
            found = True
            break
        iterations += 1
        observe(frontier_size)
        start = indptr[u]
        for k in range(start, indptr[u + 1]):
            edges_relaxed += 1
            v = indices[k]
            sv = status[v]
            if sv == 2:
                continue
            candidate = g + weights[k]
            if candidate < dist[v]:
                dist[v] = candidate
                pred[v] = u
                nodes_updated += 1
                counter += 1
                push(heap, (candidate, counter, v))
                if sv == 0:
                    status[v] = 1
                    frontier_size += 1
                    frontier_inserts += 1

    stats.iterations = iterations
    stats.nodes_expanded = iterations
    stats.edges_relaxed = edges_relaxed
    stats.nodes_updated = nodes_updated
    stats.frontier_inserts = frontier_inserts

    result = RunResult(
        source=source,
        destination=destination,
        algorithm="dijkstra",
        stats=stats,
    )
    if found:
        result.path = _walk_predecessors(pred, csr.node_ids, s, t)
        result.cost = dist[t]
        result.found = True
    return result


def best_first(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    estimator,
    max_iterations: Optional[int] = None,
) -> RunResult:
    """A* on the CSR tier (Figure 3): frontier-only duplicate test.

    Estimates are memoised per dense node index — estimators are pure
    per (graph state, node, destination), so the memo changes no result,
    only the number of ``estimate`` calls. The iteration bound is
    enforced *before* the bounding expansion: a run raises with exactly
    ``limit`` expansions performed, never ``limit + 1``.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    estimator.prepare(graph, destination)

    csr = csr_for(graph)
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    node_ids = csr.node_ids
    s = csr.index_of[source]
    t = csr.index_of[destination]
    n = csr.node_count

    stats = SearchStats()
    observe = stats.observe_frontier
    estimate = estimator.estimate
    dist = [_INF] * n
    pred = [-1] * n
    h_memo: List[Optional[float]] = [None] * n
    in_frontier = bytearray(n)
    explored = bytearray(n)
    dist[s] = 0.0
    in_frontier[s] = 1
    h_source = estimate(graph, source, destination)
    h_memo[s] = h_source
    counter = 0
    heap = [(h_source, h_source, 0, s, 0.0)]
    pop = heapq.heappop
    push = heapq.heappush
    frontier_size = 1
    frontier_inserts = 1
    iterations = 0
    edges_relaxed = 0
    nodes_updated = 0
    nodes_reopened = 0
    limit = (
        max_iterations
        if max_iterations is not None
        else max(1000, len(graph) * len(graph))
    )
    found = False

    while heap:
        _f, _h, _, u, g_at_push = pop(heap)
        if not in_frontier[u] or g_at_push > dist[u]:
            continue  # stale lazy-deletion entry
        in_frontier[u] = 0
        frontier_size -= 1
        if u == t:
            found = True
            break
        if iterations >= limit:
            stats.iterations = iterations
            stats.nodes_expanded = iterations
            stats.edges_relaxed = edges_relaxed
            stats.nodes_updated = nodes_updated
            stats.nodes_reopened = nodes_reopened
            stats.frontier_inserts = frontier_inserts
            raise RuntimeError(
                f"A* exceeded {limit} iterations; the estimator may be "
                "wildly inconsistent"
            )
        if explored[u]:
            nodes_reopened += 1
        explored[u] = 1
        iterations += 1
        observe(frontier_size)
        g = dist[u]
        start = indptr[u]
        for k in range(start, indptr[u + 1]):
            edges_relaxed += 1
            v = indices[k]
            candidate = g + weights[k]
            if candidate < dist[v]:
                dist[v] = candidate
                pred[v] = u
                nodes_updated += 1
                h_v = h_memo[v]
                if h_v is None:
                    h_v = estimate(graph, node_ids[v], destination)
                    h_memo[v] = h_v
                counter += 1
                push(heap, (candidate + h_v, h_v, counter, v, candidate))
                # Figure 3: re-insert only if not already in the
                # frontier; explored nodes re-enter (reopening).
                if not in_frontier[v]:
                    in_frontier[v] = 1
                    frontier_size += 1
                    frontier_inserts += 1

    stats.iterations = iterations
    stats.nodes_expanded = iterations
    stats.edges_relaxed = edges_relaxed
    stats.nodes_updated = nodes_updated
    stats.nodes_reopened = nodes_reopened
    stats.frontier_inserts = frontier_inserts

    result = RunResult(
        source=source,
        destination=destination,
        algorithm="astar",
        estimator=estimator.name,
        stats=stats,
    )
    if found:
        result.path = _walk_predecessors(pred, node_ids, s, t)
        result.cost = dist[t]
        result.found = True
    return result


def wave(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    max_iterations: Optional[int] = None,
) -> RunResult:
    """The Iterative algorithm on the CSR tier (Figure 1).

    The wave bound is enforced before a wave begins: a run raises with
    exactly ``limit`` waves performed, never ``limit + 1``.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    csr = csr_for(graph)
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    s = csr.index_of[source]
    t = csr.index_of[destination]
    n = csr.node_count

    stats = SearchStats()
    observe = stats.observe_frontier
    dist = [_INF] * n
    pred = [-1] * n
    ever_expanded = bytearray(n)
    in_next = bytearray(n)
    dist[s] = 0.0
    current = [s]
    limit = max_iterations if max_iterations is not None else 4 * len(graph) + 4
    iterations = 0
    nodes_expanded = 0
    edges_relaxed = 0
    nodes_updated = 0
    nodes_reopened = 0
    frontier_inserts = 0

    while current:
        if iterations >= limit:
            stats.iterations = iterations
            stats.nodes_expanded = nodes_expanded
            stats.edges_relaxed = edges_relaxed
            stats.nodes_updated = nodes_updated
            stats.nodes_reopened = nodes_reopened
            stats.frontier_inserts = frontier_inserts
            raise RuntimeError(
                f"iterative search exceeded {limit} waves; "
                "graph may have pathological costs"
            )
        iterations += 1
        observe(len(current))
        next_wave: List[int] = []
        for u in current:
            nodes_expanded += 1
            if ever_expanded[u]:
                nodes_reopened += 1
            ever_expanded[u] = 1
            # Sequential in-wave propagation: expand from the current
            # label, which an earlier wave member may have improved.
            base = dist[u]
            start = indptr[u]
            for k in range(start, indptr[u + 1]):
                edges_relaxed += 1
                v = indices[k]
                candidate = base + weights[k]
                if candidate < dist[v]:
                    dist[v] = candidate
                    pred[v] = u
                    nodes_updated += 1
                    if not in_next[v]:
                        next_wave.append(v)
                        in_next[v] = 1
                        frontier_inserts += 1
        for v in next_wave:
            in_next[v] = 0
        current = next_wave

    stats.iterations = iterations
    stats.nodes_expanded = nodes_expanded
    stats.edges_relaxed = edges_relaxed
    stats.nodes_updated = nodes_updated
    stats.nodes_reopened = nodes_reopened
    stats.frontier_inserts = frontier_inserts

    result = RunResult(
        source=source,
        destination=destination,
        algorithm="iterative",
        stats=stats,
    )
    if dist[t] != _INF:
        result.path = _walk_predecessors(pred, csr.node_ids, s, t)
        result.cost = dist[t]
        result.found = True
    return result


def sssp(
    graph: Graph, source: NodeId, cutoff: Optional[float] = None
) -> Dict[NodeId, float]:
    """Single-source distances on the CSR tier (no early termination).

    Returns the same ``{node_id: distance}`` mapping as the ``dist`` of
    :func:`repro.kernel.loop.reference_sssp`: only reached nodes
    appear, and with ``cutoff`` only those within it.
    """
    if source not in graph:
        raise NodeNotFoundError(source)

    csr = csr_for(graph)
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    s = csr.index_of[source]
    n = csr.node_count

    dist = [_INF] * n
    settled = bytearray(n)
    dist[s] = 0.0
    heap = [(0.0, 0, s)]
    counter = 1
    pop = heapq.heappop
    push = heapq.heappush

    while heap:
        d, _, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if cutoff is not None and d > cutoff:
            continue
        start = indptr[u]
        for k in range(start, indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                counter += 1
                push(heap, (nd, counter, v))

    node_ids = csr.node_ids
    if cutoff is not None:
        return {
            node_ids[i]: d for i, d in enumerate(dist) if d <= cutoff
        }
    return {node_ids[i]: d for i, d in enumerate(dist) if d != _INF}


def sssp_tree(
    graph: Graph, source: NodeId
) -> "Tuple[CSRGraph, List[float], List[int]]":
    """One-to-all Dijkstra with predecessor retention on the CSR tier.

    Returns ``(csr, dist, pred)`` over dense node indexes: ``dist[i]``
    is the shortest-path cost from ``source`` to ``csr.node_ids[i]``
    (``inf`` when unreachable) and ``pred[i]`` the dense index of the
    predecessor on that path (``-1`` for the source and unreached
    nodes). Relaxations run in exactly the order :func:`sssp` uses, so
    the distances are bit-identical to the cutoff-free :func:`sssp`
    mapping and the tree path to any settled node is the same route
    :func:`uniform_cost` returns for the pair — the property the skim
    subsystem's exactness audit leans on.
    """
    if source not in graph:
        raise NodeNotFoundError(source)

    csr = csr_for(graph)
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    s = csr.index_of[source]
    n = csr.node_count

    dist = [_INF] * n
    pred = [-1] * n
    settled = bytearray(n)
    dist[s] = 0.0
    heap = [(0.0, 0, s)]
    counter = 1
    pop = heapq.heappop
    push = heapq.heappush

    while heap:
        d, _, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        start = indptr[u]
        for k in range(start, indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                counter += 1
                push(heap, (nd, counter, v))

    return csr, dist, pred


def bidirectional(
    graph: Graph, source: NodeId, destination: NodeId
) -> RunResult:
    """Bidirectional Dijkstra on the CSR tier.

    Runs Dijkstra simultaneously from the source over the forward CSR
    arrays and from the destination over the lazily built transpose
    (:meth:`CSRGraph.reverse_lists`), alternating by smaller frontier
    key, and stops when ``fmin + bmin >= best`` certifies no better
    meeting point exists. One ``iterations``/``nodes_expanded`` is
    counted per settle, merged across directions.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    stats = SearchStats()
    result = RunResult(
        source=source,
        destination=destination,
        algorithm="bidirectional",
        stats=stats,
    )
    if source == destination:
        result.path = [source]
        result.cost = 0.0
        result.found = True
        return result

    csr = csr_for(graph)
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    rindptr, rindices, rweights = csr.reverse_lists()
    s = csr.index_of[source]
    t = csr.index_of[destination]
    n = csr.node_count

    fdist = [_INF] * n
    bdist = [_INF] * n
    fpred = [-1] * n
    bpred = [-1] * n
    fsettled = bytearray(n)
    bsettled = bytearray(n)
    fdist[s] = 0.0
    bdist[t] = 0.0
    fheap = [(0.0, 0, s)]
    bheap = [(0.0, 0, t)]
    counter = 1
    pop = heapq.heappop
    push = heapq.heappush

    iterations = 0
    edges_relaxed = 0
    nodes_updated = 0
    frontier_inserts = 2  # both roots enter their frontier

    best = _INF
    meeting = -1

    def min_key(heap, dist, settled):
        while heap:
            d, _, u = heap[0]
            if settled[u] or d > dist[u]:
                pop(heap)
                continue
            return d
        return _INF

    while True:
        fmin = min_key(fheap, fdist, fsettled)
        bmin = min_key(bheap, bdist, bsettled)
        if fmin + bmin >= best or (fmin == _INF and bmin == _INF):
            break
        if fmin <= bmin:
            heap, dist, pred, settled = fheap, fdist, fpred, fsettled
            adj_ptr, adj_idx, adj_w = indptr, indices, weights
        else:
            heap, dist, pred, settled = bheap, bdist, bpred, bsettled
            adj_ptr, adj_idx, adj_w = rindptr, rindices, rweights
        settled_node = -1
        while heap:
            d, _, u = pop(heap)
            if settled[u] or d > dist[u]:
                continue
            settled[u] = 1
            iterations += 1
            for k in range(adj_ptr[u], adj_ptr[u + 1]):
                edges_relaxed += 1
                v = adj_idx[k]
                if settled[v]:
                    continue
                candidate = d + adj_w[k]
                if candidate < dist[v]:
                    if dist[v] == _INF:
                        frontier_inserts += 1
                    dist[v] = candidate
                    pred[v] = u
                    nodes_updated += 1
                    push(heap, (candidate, counter, v))
                    counter += 1
            settled_node = u
            break
        if settled_node == -1:
            break
        # A meeting can occur at the settled node or at any labelled-
        # but-unsettled forward neighbor of it.
        total = fdist[settled_node] + bdist[settled_node]
        if total < best:
            best = total
            meeting = settled_node
        for k in range(indptr[settled_node], indptr[settled_node + 1]):
            v = indices[k]
            total = fdist[v] + bdist[v]
            if total < best:
                best = total
                meeting = v

    stats.iterations = iterations
    stats.nodes_expanded = iterations
    stats.edges_relaxed = edges_relaxed
    stats.nodes_updated = nodes_updated
    stats.frontier_inserts = frontier_inserts

    if meeting == -1 or best == _INF:
        return result

    node_ids = csr.node_ids
    forward_half = _walk_predecessors(fpred, node_ids, s, meeting)
    path = forward_half
    u = meeting
    while u != t:
        u = bpred[u]
        assert u != -1, "meeting point settled without a backward label"
        path.append(node_ids[u])
    result.path = path
    result.cost = best
    result.found = True
    return result


def _walk_predecessors(
    pred: List[int], node_ids: List[NodeId], s: int, t: int
) -> List[NodeId]:
    """Materialise the node-id path from the flat predecessor array."""
    path = [node_ids[t]]
    u = t
    while u != s:
        u = pred[u]
        assert u != -1, "destination settled without a path label"
        path.append(node_ids[u])
    path.reverse()
    return path
