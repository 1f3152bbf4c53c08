"""Compact CSR tier: the in-memory kernel's one fused fast path.

The dict-of-dict ``Graph`` is the right construction substrate —
eager validation, cheap mutation — but the wrong traversal substrate:
every relaxation pays a tuple hash for the neighbor lookup and a dict
probe for the label. This module flattens a graph once into the layout
road-network engines use (Wu et al.'s survey; aequilibrae's compiled
path engine): three flat slot vectors

* ``indptr``  — ``indptr[i]:indptr[i+1]`` brackets node *i*'s edges,
* ``indices`` — the neighbor's dense index per edge,
* ``weights`` — the edge cost per edge,

plus an interning table mapping arbitrary hashable node ids to dense
``0..n-1`` indices (``index_of`` / ``node_ids``). The search loops
below walk a fourth view of the same edges, the one layout they all
share: per-node **adjacency rows**, ``rows[u]`` a tuple of
``(neighbor index, weight)`` pairs in exactly slot order. A loop
relaxes ``for v, w in rows[u]``, one tuple unpack per edge instead of
a ``range()`` step and two list indexings; the transpose has the same
shape (:meth:`CSRGraph.reverse_rows`). Edges appear in exactly the
order ``Graph.neighbors`` yields them and nodes in
``Graph.node_ids`` order, so a search over the CSR form relaxes edges
in the same sequence as the generic loop over the dict form — which is
what makes the two *byte-identical* in paths, costs, and every
:class:`~repro.kernel.result.SearchStats` counter (tests/test_kernel.py
holds the proofs).

Builds are cached per graph: one snapshot per live ``Graph`` object,
checked against :attr:`Graph.fingerprint` on every read and replaced
when the graph's state moves on, shared process-wide so the service's
estimator pool (landmark table builds run :func:`sssp`) and its query
path reuse one flattening. The cache holds its graphs weakly, so a
snapshot lives exactly as long as its graph; :func:`cache_stats` feeds
``RouteService.snapshot()``.

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
``limit + 1``. One-to-all searches (:func:`sssp`, :func:`sssp_tree`)
share one loop.
"""

from __future__ import annotations

import heapq
import math
import threading
import weakref
from itertools import compress
from operator import truediv
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import CostDelta, Graph, NodeId
from repro.kernel.result import RunResult, SearchStats

_INF = math.inf


class CSRGraph:
    """One immutable CSR snapshot of a :class:`Graph` state.

    ``fingerprint`` records the graph state the snapshot was taken
    from; the cache refuses to serve it for any other state. The slot
    vectors ``indptr``, ``indices`` and ``weights`` are plain lists
    (accel.py and the assignment's AON load index them); the search
    loops read ``rows``.

    ``CSRGraph(graph)`` flattens the graph. ``CSRGraph(graph, previous,
    deltas)`` derives the snapshot one cost-only change after
    ``previous`` copy-on-write: the topology (``indptr`` / ``indices``
    / ``node_ids`` / ``index_of``, the edge lengths and the transpose's
    slot table) is shared, ``weights`` is copied and the deltas patched
    into the copy, and only the adjacency rows of the sources (forward)
    and targets (reverse) the deltas touch are rebuilt; every other row
    tuple is the predecessor's own object. So ``previous`` itself never
    changes.
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
        "rows",
        "_reverse",
        "_lengths",
        "_incoming",
        "_scale",
        "__weakref__",
    )

    def __init__(
        self,
        graph: Graph,
        previous: Optional["CSRGraph"] = None,
        deltas: Sequence[CostDelta] = (),
    ) -> None:
        self._reverse = None
        self._scale = None
        if previous is not None:
            self._derive(previous, deltas)
            return
        self.fingerprint = graph.fingerprint
        node_ids: List[NodeId] = list(graph.node_ids())
        index_of: Dict[NodeId, int] = {
            node_id: i for i, node_id in enumerate(node_ids)
        }
        n = len(node_ids)
        indptr = [0] * (n + 1)
        indices: List[int] = []
        weights: List[float] = []
        for i, node_id in enumerate(node_ids):
            for v, cost in graph.neighbors(node_id):
                indices.append(index_of[v])
                weights.append(cost)
            indptr[i + 1] = len(indices)
        self.node_count = n
        self.edge_count = len(indices)
        self.node_ids = node_ids
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # The search loops' layout: node u's (neighbor, weight) pairs,
        # unpacked per edge in one step, holding the slot vectors' objects.
        pairs = list(zip(indices, weights))
        self.rows = [tuple(pairs[a:b]) for a, b in zip(indptr, indptr[1:])]
        # Straight-line edge lengths for euclidean_scale, filled on
        # first use as [slots of positive length (None: every slot),
        # their lengths]. Pure topology: derived snapshots share it.
        self._lengths = []
        # The transpose's topology for reverse_rows, filled on first use
        # as [rindptr, source per slot, forward slot per slot]. Shared
        # likewise.
        self._incoming = []

    def _derive(self, previous: "CSRGraph", deltas: Sequence[CostDelta]) -> None:
        uid, version = previous.fingerprint
        self.fingerprint = (uid, version + 1)
        self.node_count = previous.node_count
        self.edge_count = previous.edge_count
        self.node_ids = previous.node_ids
        self.index_of = index_of = previous.index_of
        self.indptr = indptr = previous.indptr
        self.indices = indices = previous.indices
        self._lengths = previous._lengths
        self._incoming = previous._incoming
        self.weights = weights = list(previous.weights)
        moved = bytearray(self.node_count)  # the deltas' sources
        # In order, so an edge written twice in one batch ends on the
        # batch's last value, as the graph does.
        for delta in deltas:
            u = index_of[delta.source]
            v = index_of[delta.target]
            k = indptr[u]
            while indices[k] != v:
                k += 1
            weights[k] = delta.new_cost
            moved[u] = 1
        rows = list(previous.rows)
        for u in compress(range(self.node_count), moved):
            a, b = indptr[u], indptr[u + 1]
            rows[u] = tuple(zip(indices[a:b], weights[a:b]))
        self.rows = rows
        if previous._reverse is not None:
            reverse = list(previous._reverse)
            self._fill_reverse(reverse, {index_of[delta.target] for delta in deltas})
            self._reverse = reverse

    def euclidean_scale(self, graph: Graph) -> float:
        """The largest factor ``<= 1`` that keeps straight-line distance
        a lower bound on every edge's cost in this snapshot.

        ``min(cost / length)`` over the edges of positive Euclidean
        length, capped at 1.0: at or above 1 the plain Euclidean
        estimator is admissible; below it, the estimator (and any
        straight-line bound) must be multiplied by this factor to stay
        one. ``graph`` (the snapshot's graph) supplies node
        coordinates. Computed once per snapshot, on first use; the
        lengths once per topology.
        """
        if self._scale is None:
            if not self._lengths:
                coordinates = [graph.coordinates(v) for v in self.node_ids]
                indptr = self.indptr
                indices = self.indices
                lengths = []
                for u, (ux, uy) in enumerate(coordinates):
                    for k in range(indptr[u], indptr[u + 1]):
                        vx, vy = coordinates[indices[k]]
                        lengths.append(math.hypot(ux - vx, uy - vy))
                slots = None
                if not all(lengths):
                    slots = [k for k, length in enumerate(lengths) if length]
                    lengths = [lengths[k] for k in slots]
                self._lengths[:] = [slots, lengths]  # one atomic publish
            slots, lengths = self._lengths
            weights = self.weights
            if slots is not None:
                weights = [weights[k] for k in slots]
            ratio = min(map(truediv, weights, lengths), default=1.0)
            self._scale = ratio if ratio < 1.0 else 1.0
        return self._scale

    def reverse_rows(self) -> List[Tuple[Tuple[int, float], ...]]:
        """The transpose as adjacency rows.

        ``reverse_rows()[v]`` holds one ``(u, w)`` pair per edge
        ``u -> v``, by ascending source index: node *v*'s **incoming**
        edges, in the order a counting sort of the forward slots yields
        them. Built on first use (the bidirectional fused loop and the
        in-trees of :func:`sssp_tree` read it) and cached on the
        snapshot — the snapshot is immutable, so the transpose can never
        go stale, and a racing double build is idempotent. A snapshot
        derived from one that has it rebuilds only the rows of the
        deltas' targets.
        """
        if self._reverse is None:
            reverse = [()] * self.node_count
            self._fill_reverse(reverse, range(self.node_count))
            self._reverse = reverse
        return self._reverse

    def _fill_reverse(self, reverse, targets) -> None:
        """Rebuild the transpose rows of ``targets`` in ``reverse``.

        The first call per topology counting-sorts the forward slots by
        target; a reverse slot then reads its weight through the
        forward slot it mirrors.
        """
        if not self._incoming:
            n = self.node_count
            indptr = self.indptr
            indices = self.indices
            counts = [0] * (n + 1)
            for v in indices:
                counts[v + 1] += 1
            for i in range(n):
                counts[i + 1] += counts[i]
            fill = counts[:n]
            sources = [0] * self.edge_count
            slots = [0] * self.edge_count
            for u in range(n):
                for k in range(indptr[u], indptr[u + 1]):
                    v = indices[k]
                    p = fill[v]
                    sources[p] = u
                    slots[p] = k
                    fill[v] = p + 1
            self._incoming[:] = [counts, sources, slots]  # one atomic publish
        rindptr, sources, slots = self._incoming
        weights = self.weights
        for v in targets:
            a, b = rindptr[v], rindptr[v + 1]
            reverse[v] = tuple(zip(sources[a:b], [weights[k] for k in slots[a:b]]))

    def __repr__(self) -> str:
        return (
            f"CSRGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"fingerprint={self.fingerprint})"
        )


# ----------------------------------------------------------------------
# per-graph build cache
# ----------------------------------------------------------------------
_cache_lock = threading.Lock()
# Keyed by the Graph object itself (graphs hash by identity) and held
# weakly: an entry goes when its graph does.
_cache: "weakref.WeakKeyDictionary[Graph, CSRGraph]" = weakref.WeakKeyDictionary()
_stats = {
    "hits": 0,
    "misses": 0,
    "builds": 0,
    "derived": 0,
    "invalidations": 0,
}


def csr_for(graph: Graph) -> CSRGraph:
    """Return the cached CSR form of ``graph``'s current state.

    One entry per graph, with the fingerprint checked on every hit: a
    mutation (version bump) makes the cached entry unservable and the
    next call rebuilds. When the cached entry is exactly the graph's
    last cost-only change behind (:attr:`Graph.last_cost_change`), the
    new snapshot is derived from it by the change's deltas instead of
    re-flattening the graph; a structural edit clears that record and
    forces the full build. Builds and derivations run under the shared
    side of the graph's gate, so no cost epoch is mid-write while the
    graph is read, and every build is cached.
    """
    fingerprint = graph.fingerprint
    with _cache_lock:
        entry = _cache.get(graph)
        if entry is not None:
            if entry.fingerprint == fingerprint:
                _stats["hits"] += 1
                return entry
            _stats["invalidations"] += 1
        _stats["misses"] += 1
    with graph.gate.shared():
        fingerprint = graph.fingerprint
        change = graph.last_cost_change
        derived = (
            entry is not None
            and change is not None
            and change[0] == entry.fingerprint[1]
            and change[0] + 1 == fingerprint[1]
        )
        built = CSRGraph(graph, entry, change[1]) if derived else CSRGraph(graph)
        with _cache_lock:
            _stats["builds"] += 1
            _stats["derived"] += derived
            _cache[graph] = built
    return built


def clear_cache() -> None:
    """Drop every cached CSR build (used by cold-start benchmarks)."""
    with _cache_lock:
        _cache.clear()


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
    """Dijkstra's single-pair search on the CSR tier (Figure 2).

    The paper's *partial transitive closure* representative: each
    iteration selects and expands one minimum-cost frontier node, and
    the search stops as soon as the destination is selected (Lemma 2).
    With no lookahead it expands uniformly in all directions, so its
    iteration count approaches |N| - 1 on diagonal grid queries
    (Table 5). An *iteration* is one select-and-remove whose node is
    expanded; the destination's final selection ends the loop and is
    not counted, matching the paper's counts (899 iterations on a
    900-node grid).

    Duplicates are *avoided*: a node enters the frontier once, and a
    label improvement for a frontier node is a decrease-key, realised
    by lazy deletion (stale heap entries are skipped on pop, which
    leaves the expansion sequence identical to true decrease-key).
    Requires non-negative edge costs.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    csr = csr_for(graph)
    rows = csr.rows
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
        for v, w in rows[u]:
            edges_relaxed += 1
            sv = status[v]
            if sv == 2:
                continue
            candidate = g + w
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

    The paper's *single-pair* representative: each iteration selects
    the frontier node minimising ``C(s,u) + f(u,d)``. With an
    admissible estimator the first selection of the destination is
    optimal (Lemma 3); an inadmissible one (manhattan on the
    Minneapolis map) finds a good path fast with no optimality
    guarantee. The duplicate test is against the **frontier only**
    (``not_in(v, frontierSet)``): an explored node whose label improves
    is re-inserted (*reopened*), which a consistent estimator never
    triggers. Ties on ``g + h`` go to the smaller ``h`` (deepest
    progress towards the goal), then FIFO, which keeps uniform-cost
    grids cheap (the Table 7 uniform-vs-variance contrast). Iterations
    count like :func:`uniform_cost`'s. The default bound of |N|^2
    expansions only guards against pathological reopening cascades.

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
    rows = csr.rows
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
        for v, w in rows[u]:
            edges_relaxed += 1
            candidate = g + w
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

    The paper's *transitive closure* representative: each iteration
    expands the **entire** frontier as one wave, and the search ends
    only when a wave improves nothing, i.e. after the whole reachable
    graph is labelled. One iteration is one wave, as the paper counts
    it, so the count is insensitive to path length (2k - 1 waves on a
    k x k grid whatever the query; Tables 5-8). With costs that vary
    between edges a node can re-enter a later wave after its label
    improves (the paper's *backtracking*), which inflates per-wave cost
    without changing the wave count much. The default bound of
    4|N| + 4 waves is a safety valve; non-negative costs need at most
    |N|.

    The wave bound is enforced before a wave begins: a run raises with
    exactly ``limit`` waves performed, never ``limit + 1``.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)

    csr = csr_for(graph)
    rows = csr.rows
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
            for v, w in rows[u]:
                edges_relaxed += 1
                candidate = base + w
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
    graph: Graph, source: NodeId, reverse: bool = False
) -> Dict[NodeId, float]:
    """Single-source distances on the CSR tier (no early termination).

    The ``{node_id: distance}`` view of :func:`sssp_tree`: the same
    mapping as the ``dist`` of :func:`repro.kernel.loop.reference_sssp`,
    only reached nodes appearing. With ``reverse`` the distances run
    *to* ``source``, as ``reference_sssp`` gives them on
    ``graph.reversed()``.
    """
    csr, dist, _ = _one_to_all(graph, source, reverse)
    node_ids = csr.node_ids
    return {node_ids[i]: d for i, d in enumerate(dist) if d != _INF}


def sssp_tree(
    graph: Graph, source: NodeId, reverse: bool = False
) -> "Tuple[CSRGraph, List[float], List[int]]":
    """One-to-all Dijkstra with predecessor retention on the CSR tier.

    Returns ``(csr, dist, pred)`` over dense node indexes: ``dist[i]``
    is the shortest-path cost from ``source`` to ``csr.node_ids[i]``
    (``inf`` when unreachable) and ``pred[i]`` the dense index of the
    predecessor on that path (``-1`` for the source and unreached
    nodes). The tree path to any settled node is the same route
    :func:`uniform_cost` returns for the pair — the property the skim
    subsystem's exactness audit leans on.

    With ``reverse`` the same loop runs over the snapshot's cached
    transpose (:meth:`CSRGraph.reverse_rows`): the tree is then the
    one *into* ``source`` — ``dist[i]`` is the cost from node ``i`` to
    ``source`` and ``pred[i]`` the next node on that path.
    """
    return _one_to_all(graph, source, reverse)


def _one_to_all(
    graph: Graph, source: NodeId, reverse: bool
) -> "Tuple[CSRGraph, List[float], List[int]]":
    """The one one-to-all loop behind :func:`sssp` and :func:`sssp_tree`.

    Neither public name calls the other, so a wrapper on either one
    (``perfbench/layers.py`` traces both) counts each search once.
    """
    if source not in graph:
        raise NodeNotFoundError(source)

    csr = csr_for(graph)
    rows = csr.reverse_rows() if reverse else csr.rows
    s = csr.index_of[source]
    n = csr.node_count

    dist = [_INF] * n
    pred = [-1] * n
    dist[s] = 0.0
    heap = [(0.0, 0, s)]
    counter = 1
    pop = heapq.heappop
    push = heapq.heappush

    while heap:
        d, _, u = pop(heap)
        # A push needs a strictly smaller label, so only stale entries
        # pop above the node's label.
        if d > dist[u]:
            continue
        for v, w in rows[u]:
            nd = d + w
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

    Runs Dijkstra simultaneously from the source over the forward rows
    and from the destination over the lazily built transpose
    (:meth:`CSRGraph.reverse_rows`), alternating by smaller frontier
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
    rows = csr.rows
    rrows = csr.reverse_rows()
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
            heap, dist, pred, settled, adjacency = fheap, fdist, fpred, fsettled, rows
        else:
            heap, dist, pred, settled, adjacency = bheap, bdist, bpred, bsettled, rrows
        settled_node = -1
        while heap:
            d, _, u = pop(heap)
            if settled[u] or d > dist[u]:
                continue
            settled[u] = 1
            iterations += 1
            for v, w in adjacency[u]:
                edges_relaxed += 1
                if settled[v]:
                    continue
                candidate = d + w
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
        for v, _ in rows[settled_node]:
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
