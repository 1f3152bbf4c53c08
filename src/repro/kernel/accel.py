"""The preprocess → customize → query accelerator pipeline.

ROADMAP item 2 asks for a preprocessing tier whose precomputed state a
TrafficFeed epoch *re-weights* instead of invalidating. Customizable
contraction hierarchies (Strasser & Zeitz, PAPERS.md) give the shape:
split a planner into three stages with sharply different change
frequencies —

* ``preprocess(graph)`` — **topology-only**. Runs once per graph
  structure (node/edge sets), never per cost change. For CCH this
  builds the contraction order and the shortcut overlay. Cached per
  graph ``uid`` with the structure checked on reuse, mirroring
  ``csr_for``.
* ``customize(graph, epoch=None)`` — **metric-dependent but cheap**.
  Re-prices the preprocessed state for the graph's current edge
  costs. Given a :class:`~repro.traffic.feed.TrafficEpoch` that
  chains from the currently priced state, only the affected overlay
  arcs are re-relaxed (incremental customization); otherwise the full
  bottom-up pass runs. Billed as the new ``customize`` phase on
  :class:`~repro.kernel.result.RunResult`.
* ``query(graph, source, destination)`` — the fast part. Answers one
  single-pair request from the customized state, lazily (and
  self-billing) re-customizing first if the graph's fingerprint moved
  since the last customization — an accelerator can therefore never
  serve a stale answer.

:class:`CCHAccelerator` is the one accelerator. The classic planners
have no topology-only state and their only metric state is the cached
CSR flattening, so they run straight through
:func:`repro.kernel.search`; a service enables CCH with
``RouteService(accelerator="cch")`` and builds one instance per served
graph. :class:`Accelerator` keeps the stage wrappers (timing,
staleness, the epoch hook) apart from the overlay itself.

CCH-lite, concretely
--------------------

``preprocess`` computes a nested-dissection-ish elimination order by
recursive coordinate bisection (separator nodes ranked last — the
same planar-cut intuition as ``repro.fleet.partition``), then
contracts nodes in that order over the *undirected* skeleton,
recording every upward arc ``u -> v`` (``rank(u) < rank(v)``; original
edge or shortcut) plus its **lower triangles**: for each ``x`` with
arcs to both endpoints of an arc ``(u, v)`` and ``rank(x) < rank(u)``,
the triple ``(x,u,v)`` is how cost can flow around the shortcut. The
elimination tree (``parent(u)`` = lowest-ranked upward neighbor) comes
out of the same pass.

``customize`` seeds each arc's forward weight (``u -> v``) and backward
weight (``v -> u``) from the directed edge costs (``inf`` where the
direction has no edge) and resolves all lower triangles bottom-up in
arc order: ``fw(u,v) = min(fw(u,v), bw(x,u) + fw(x,v))`` and
symmetrically for ``bw``, remembering the mediating ``x`` for path
unpacking. After the pass every remaining triangle inequality holds,
which is exactly the invariant the query needs. The incremental
variant seeds a worklist with the arcs of the epoch's delta edges and
re-resolves in ascending arc order. A moved arc pushes a mediated arc
along the inverted triangle index only when their triangle was tight
for it (its candidate ``<=`` the stored weight) before or after the
move — a triangle slack on both sides can change neither the arc's
minimum nor its remembered middle. It reaches the identical fixpoint
as the full pass (same min over the same sums), which tests assert
array-for-array.

``query`` walks the two elimination-tree ancestor paths — no heap, no
visited set: relax every upward arc out of each ancestor of the source
(forward weights) and of the destination (backward weights), take the
best common node as the meeting point, and unpack shortcut arcs
through their remembered middles. Exactness argument: every upward
path stays within the ancestor set, the customized weights make each
arc exactly the shortest ``u``–``v`` distance using lower-ranked
intermediates only, and the classic CH theorem (every shortest path
has an up-down rank profile witness) makes min over meeting nodes of
``fdist + bdist`` the true shortest-path cost. The equivalence suite
(tests/test_accel.py) holds every answer to whole-graph Dijkstra
across traffic epochs.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.kernel import csr as _csr
from repro.kernel.result import RunResult, SearchStats

_INF = math.inf


class Accelerator:
    """Base class: shared counters + the three-stage protocol.

    Subclasses implement :meth:`_preprocess`, :meth:`_customize` and
    :meth:`_query`; the public methods wrap them with timing, staleness
    tracking and the epoch-listener hook. One instance serves one
    graph ``uid`` at a time (``RouteService`` keeps one per served
    graph); all three public entry points are serialized by a
    per-instance lock so a customization can never be observed
    half-applied by a concurrent query. Each takes ``graph.gate.shared()``
    before that lock (lock order: gate first).
    """

    #: Name of this configuration.
    name = "accelerator"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._graph_uid: Optional[int] = None
        self._metric_fingerprint: Optional[Tuple[int, int]] = None
        self.preprocesses = 0
        self.full_customizes = 0
        self.incremental_customizes = 0
        self.queries = 0
        self.preprocess_time_s = 0.0
        self.customize_time_s = 0.0
        self.last_customize_s = 0.0

    @property
    def customizes(self) -> int:
        """Total customization passes (full + incremental)."""
        return self.full_customizes + self.incremental_customizes

    # ------------------------------------------------------------------
    # the three stages
    # ------------------------------------------------------------------
    def preprocess(self, graph: Graph) -> float:
        """Build (or reuse) topology-only state; returns seconds spent.

        Re-entrant: when the graph's structure matches the prepared
        state this is a no-op returning 0.0 — cost changes never
        trigger re-preprocessing.
        """
        with graph.gate.shared(), self._lock:
            return self._ensure_preprocessed(graph)

    def customize(self, graph: Graph, epoch=None) -> float:
        """Re-price the preprocessed state; returns seconds spent.

        ``epoch`` (a :class:`~repro.traffic.feed.TrafficEpoch`) enables
        the incremental path when it chains from the currently priced
        fingerprint; without one — or on a broken chain, or after a
        topology change — the full pass runs. Either way the state
        afterwards prices ``graph.fingerprint`` exactly.
        """
        with graph.gate.shared(), self._lock:
            seconds = self._ensure_preprocessed(graph)
            return seconds + self._customize_locked(graph, epoch)

    def query(self, graph: Graph, source: NodeId, destination: NodeId) -> RunResult:
        """Answer one single-pair request from the customized state.

        Lazily preprocesses/customizes first when the graph moved under
        the accelerator; any seconds spent doing so are billed on the
        returned result's ``preprocess_cost`` / ``customize_cost``, so
        epoch-driven re-customization latency is attributed to the
        query that paid it, never hidden.
        """
        if source not in graph:
            raise NodeNotFoundError(source)
        if destination not in graph:
            raise NodeNotFoundError(destination)
        with graph.gate.shared(), self._lock:
            pre_seconds = 0.0
            cus_seconds = 0.0
            # Hot path: a current metric fingerprint proves the whole
            # pipeline current (structural edits bump the version too),
            # so the O(E) topology check only runs when the graph moved.
            if (
                self._graph_uid != graph.uid
                or self._metric_fingerprint != graph.fingerprint
            ):
                pre_seconds = self._ensure_preprocessed(graph)
                if self._metric_fingerprint != graph.fingerprint:
                    cus_seconds = self._customize_locked(graph, None)
            self.queries += 1
            result = self._query(graph, source, destination)
        result.preprocess_cost = pre_seconds
        result.customize_cost = cus_seconds
        return result

    # ------------------------------------------------------------------
    # feed integration
    # ------------------------------------------------------------------
    def customize_epoch(self, epoch) -> None:
        """:class:`TrafficFeed` listener hook — the customize path.

        Subscribing an accelerator to a feed re-prices the overlay on
        every epoch instead of invalidating anything; the feed counts
        these subscribers separately from invalidation listeners.
        """
        self.customize(epoch.graph, epoch=epoch)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_preprocessed(self, graph: Graph) -> float:
        if not self._needs_preprocess(graph):
            return 0.0
        started = time.perf_counter()
        self._preprocess(graph)
        seconds = time.perf_counter() - started
        self._graph_uid = graph.uid
        self._metric_fingerprint = None  # new structure: unpriced
        self.preprocesses += 1
        self.preprocess_time_s += seconds
        return seconds

    def _customize_locked(self, graph: Graph, epoch) -> float:
        started = time.perf_counter()
        incremental = self._customize(graph, epoch)
        seconds = time.perf_counter() - started
        self._metric_fingerprint = graph.fingerprint
        if incremental:
            self.incremental_customizes += 1
        else:
            self.full_customizes += 1
        self.customize_time_s += seconds
        self.last_customize_s = seconds
        return seconds

    def _needs_preprocess(self, graph: Graph) -> bool:
        return self._graph_uid != graph.uid

    def _preprocess(self, graph: Graph) -> None:
        raise NotImplementedError

    def _customize(self, graph: Graph, epoch) -> bool:
        """Re-price; return True when the incremental path was taken."""
        raise NotImplementedError

    def _query(self, graph: Graph, source: NodeId, destination: NodeId) -> RunResult:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, float]:
        """Counter view, shaped like the other layers' snapshots."""
        return {
            "preprocesses": self.preprocesses,
            "customizes": self.customizes,
            "full_customizes": self.full_customizes,
            "incremental_customizes": self.incremental_customizes,
            "queries": self.queries,
            "preprocess_time_s": self.preprocess_time_s,
            "customize_time_s": self.customize_time_s,
            "last_customize_s": self.last_customize_s,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"preprocesses={self.preprocesses}, customizes={self.customizes}, "
            f"queries={self.queries})"
        )


class CCHAccelerator(Accelerator):
    """CCH-lite: contraction-order overlay with cheap re-customization.

    See the module docstring for the construction. All state lives in
    flat parallel lists indexed by dense node index (from the CSR
    interning table) and by *arc id*; arc ids are assigned grouped by
    lower endpoint in ascending rank order, so "ascending arc id" *is*
    the bottom-up customization order and a binary heap of arc ids is
    the incremental worklist.
    """

    name = "cch"

    #: Cells at or below this size stop the bisection recursion.
    _LEAF = 8

    def __init__(self) -> None:
        super().__init__()
        # --- topology state (built by _preprocess) ---
        self._topo_sig = None
        self._n = 0
        self._order: List[int] = []
        self._rank: List[int] = []
        self._parent: List[int] = []
        self._arc_lower: List[int] = []
        self._arc_upper: List[int] = []
        self._arc_of: Dict[Tuple[int, int], int] = {}
        self._node_arc_start: List[int] = []
        self._node_arc_end: List[int] = []
        self._tri_indptr: List[int] = []
        self._tri_mid: List[int] = []
        self._tri_lo: List[int] = []  # arc (x, lower) per triangle
        self._tri_hi: List[int] = []  # arc (x, upper) per triangle
        self._up_tri_indptr: List[int] = []
        self._up_tri_split: List[int] = []
        self._up_tri_arc: List[int] = []
        self._up_tri_other: List[int] = []
        self._base_fw_slot: List[int] = []
        self._base_bw_slot: List[int] = []
        self.original_edges = 0
        # --- metric state (built by _customize) ---
        self._fw: List[float] = []
        self._bw: List[float] = []
        self._mid_fw: List[int] = []
        self._mid_bw: List[int] = []
        self.arcs_recomputed = 0

    # ------------------------------------------------------------------
    # stage 1: topology-only preprocessing
    # ------------------------------------------------------------------
    @staticmethod
    def _topology_signature(csr: _csr.CSRGraph) -> Tuple:
        # References to the snapshot's (immutable) lists. A snapshot
        # derived by a cost-only change shares these very lists, so the
        # tuple comparison is an identity check per item; only a full
        # rebuild pays the C-level elementwise ==.
        return (
            csr.node_count,
            csr.edge_count,
            csr.indptr,
            csr.indices,
            csr.node_ids,
        )

    def _needs_preprocess(self, graph: Graph) -> bool:
        if self._graph_uid != graph.uid or self._topo_sig is None:
            return True
        # Same uid: costs never force a rebuild, but a structural edit
        # (add_node/add_edge) must — the signature is the arbiter.
        csr = _csr.csr_for(graph)
        return self._topology_signature(csr) != self._topo_sig

    def _nd_order(self, graph: Graph, csr: _csr.CSRGraph, und: List[set]) -> List[int]:
        """Nested-dissection-ish elimination order, separators last.

        Recursive median bisection along the wider coordinate axis;
        the separator (boundary nodes of the upper half) is ranked
        above both halves. Degenerate cells (no geometric spread) fall
        back to min-degree ordering — any order stays *correct* (the
        contraction just inserts more shortcuts), so the fallback
        affects speed only.
        """
        xs = [0.0] * csr.node_count
        ys = [0.0] * csr.node_count
        for i, node_id in enumerate(csr.node_ids):
            x, y = graph.coordinates(node_id)
            xs[i] = x
            ys[i] = y

        order: List[int] = []

        def degree_key(i: int) -> Tuple[int, int]:
            return (len(und[i]), i)

        def recurse(cell: List[int]) -> None:
            if len(cell) <= self._LEAF:
                order.extend(sorted(cell, key=degree_key))
                return
            x_lo = min(xs[i] for i in cell)
            x_hi = max(xs[i] for i in cell)
            y_lo = min(ys[i] for i in cell)
            y_hi = max(ys[i] for i in cell)
            if x_hi - x_lo >= y_hi - y_lo:
                coord = xs
            else:
                coord = ys
            cell_sorted = sorted(cell, key=lambda i: (coord[i], i))
            half = len(cell_sorted) // 2
            lower = cell_sorted[:half]
            upper = cell_sorted[half:]
            lower_set = set(lower)
            separator = {
                i for i in upper if any(j in lower_set for j in und[i])
            }
            rest = [i for i in upper if i not in separator]
            if not lower or not rest:
                # No geometric progress (e.g. every coordinate equal):
                # min-degree the whole cell and stop recursing.
                order.extend(sorted(cell, key=degree_key))
                return
            recurse(lower)
            recurse(rest)
            order.extend(sorted(separator, key=degree_key))

        recurse(list(range(csr.node_count)))
        return order

    def _preprocess(self, graph: Graph) -> None:
        csr = _csr.csr_for(graph)
        n = csr.node_count
        indptr = csr.indptr
        indices = csr.indices

        # Undirected skeleton: the overlay is built on edge *presence*;
        # per-direction costs live in the customization weights.
        und: List[set] = [set() for _ in range(n)]
        for u in range(n):
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if v != u:
                    und[u].add(v)
                    und[v].add(u)

        order = self._nd_order(graph, csr, und)
        rank = [0] * n
        for position, i in enumerate(order):
            rank[i] = position

        # Contract in rank order: each node's surviving higher-ranked
        # neighborhood becomes a clique (the chordal supergraph).
        work: List[set] = [
            {v for v in und[i] if rank[v] > rank[i]} for i in range(n)
        ]
        up_neighbors: List[List[int]] = [[] for _ in range(n)]
        for u in order:
            nbrs = sorted(work[u], key=lambda v: rank[v])
            up_neighbors[u] = nbrs
            for a_pos, a in enumerate(nbrs):
                work_a = work[a]
                for b in nbrs[a_pos + 1:]:
                    work_a.add(b)

        # Arc ids grouped by lower endpoint in ascending rank order.
        arc_lower: List[int] = []
        arc_upper: List[int] = []
        arc_of: Dict[Tuple[int, int], int] = {}
        node_arc_start = [0] * n
        node_arc_end = [0] * n
        parent = [-1] * n
        for u in order:
            node_arc_start[u] = len(arc_lower)
            nbrs = up_neighbors[u]
            if nbrs:
                parent[u] = nbrs[0]
            for v in nbrs:
                arc_of[(u, v)] = len(arc_lower)
                arc_lower.append(u)
                arc_upper.append(v)
            node_arc_end[u] = len(arc_lower)
        m = len(arc_lower)

        # Lower triangles per arc. Iterating x in rank order keeps each
        # arc's triangle list sorted by the middle's rank — the full
        # and incremental passes therefore fold candidates in the
        # identical float order.
        tri_lists: List[List[Tuple[int, int, int]]] = [[] for _ in range(m)]
        for x in order:
            nbrs = up_neighbors[x]
            for i_pos, v_i in enumerate(nbrs):
                a_lo = arc_of[(x, v_i)]
                for v_j in nbrs[i_pos + 1:]:
                    t = arc_of[(v_i, v_j)]
                    a_hi = arc_of[(x, v_j)]
                    tri_lists[t].append((x, a_lo, a_hi))

        tri_indptr = [0] * (m + 1)
        tri_mid: List[int] = []
        tri_lo: List[int] = []
        tri_hi: List[int] = []
        for a in range(m):
            for x, a_lo, a_hi in tri_lists[a]:
                tri_mid.append(x)
                tri_lo.append(a_lo)
                tri_hi.append(a_hi)
            tri_indptr[a + 1] = len(tri_mid)
        del tri_lists  # the flat arrays replace it; lower the peak
        # The inverted index for incremental propagation: which arcs t
        # each arc a mediates, and through which other side b. Per arc,
        # the triangles where a is the lower side (x, lo(t)) fill
        # up_tri_indptr[a]:up_tri_split[a], those where it is the upper
        # side (x, hi(t)) the rest up to up_tri_indptr[a + 1]. Filled
        # by counting sort straight from the flat triangle arrays.
        lo_count = [0] * m
        hi_count = [0] * m
        for p in range(len(tri_mid)):
            lo_count[tri_lo[p]] += 1
            hi_count[tri_hi[p]] += 1
        up_tri_indptr = [0] * (m + 1)
        up_tri_split = [0] * m
        for a in range(m):
            up_tri_split[a] = up_tri_indptr[a] + lo_count[a]
            up_tri_indptr[a + 1] = up_tri_split[a] + hi_count[a]
        up_tri_arc = [0] * len(tri_mid) * 2
        up_tri_other = [0] * len(up_tri_arc)
        lo_fill = up_tri_indptr[:m]
        hi_fill = up_tri_split[:]
        for t in range(m):
            for p in range(tri_indptr[t], tri_indptr[t + 1]):
                a_lo = tri_lo[p]
                a_hi = tri_hi[p]
                q = lo_fill[a_lo]
                up_tri_arc[q] = t
                up_tri_other[q] = a_hi
                lo_fill[a_lo] = q + 1
                q = hi_fill[a_hi]
                up_tri_arc[q] = t
                up_tri_other[q] = a_lo
                hi_fill[a_hi] = q + 1

        # Which CSR weight slot seeds each arc direction (-1: no
        # original edge that way). Slots survive cost epochs — dict
        # insertion order is stable under cost rewrites — so the
        # mapping is topology state.
        base_fw_slot = [-1] * m
        base_bw_slot = [-1] * m
        for u in range(n):
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if v == u:
                    continue
                if rank[u] < rank[v]:
                    base_fw_slot[arc_of[(u, v)]] = k
                else:
                    base_bw_slot[arc_of[(v, u)]] = k

        self._topo_sig = self._topology_signature(csr)
        self._n = n
        self._order = order
        self._rank = rank
        self._parent = parent
        self._arc_lower = arc_lower
        self._arc_upper = arc_upper
        self._arc_of = arc_of
        self._node_arc_start = node_arc_start
        self._node_arc_end = node_arc_end
        self._tri_indptr = tri_indptr
        self._tri_mid = tri_mid
        self._tri_lo = tri_lo
        self._tri_hi = tri_hi
        self._up_tri_indptr = up_tri_indptr
        self._up_tri_split = up_tri_split
        self._up_tri_arc = up_tri_arc
        self._up_tri_other = up_tri_other
        self._base_fw_slot = base_fw_slot
        self._base_bw_slot = base_bw_slot
        self.original_edges = csr.edge_count
        self._fw = []
        self._bw = []
        self._mid_fw = []
        self._mid_bw = []
        # Per-query scratch (guarded by the instance lock): flat labels
        # with touched-list resets, so a query allocates nothing O(n).
        self._q_fdist = [_INF] * n
        self._q_bdist = [_INF] * n
        self._q_fpred = [-1] * n
        self._q_bpred = [-1] * n

    @property
    def arc_count(self) -> int:
        """Upward arcs in the overlay (original + shortcut)."""
        return len(self._arc_lower)

    @property
    def shortcut_count(self) -> int:
        """Arcs the contraction added beyond the undirected skeleton."""
        original = sum(
            1 for a in range(self.arc_count)
            if self._base_fw_slot[a] >= 0 or self._base_bw_slot[a] >= 0
        )
        return self.arc_count - original

    # ------------------------------------------------------------------
    # stage 2: metric customization
    # ------------------------------------------------------------------
    def _resolve_arc(
        self, a: int, weights: List[float]
    ) -> Tuple[float, float, int, int]:
        """One arc's triangle-resolved weights from current state."""
        kf = self._base_fw_slot[a]
        kb = self._base_bw_slot[a]
        fw_a = weights[kf] if kf >= 0 else _INF
        bw_a = weights[kb] if kb >= 0 else _INF
        mid_f = -1
        mid_b = -1
        fw = self._fw
        bw = self._bw
        tri_mid = self._tri_mid
        tri_lo = self._tri_lo
        tri_hi = self._tri_hi
        for p in range(self._tri_indptr[a], self._tri_indptr[a + 1]):
            a_lo = tri_lo[p]
            a_hi = tri_hi[p]
            candidate = bw[a_lo] + fw[a_hi]
            if candidate < fw_a:
                fw_a = candidate
                mid_f = tri_mid[p]
            candidate = bw[a_hi] + fw[a_lo]
            if candidate < bw_a:
                bw_a = candidate
                mid_b = tri_mid[p]
        return fw_a, bw_a, mid_f, mid_b

    def _customize(self, graph: Graph, epoch) -> bool:
        csr = _csr.csr_for(graph)
        weights = csr.weights
        m = self.arc_count
        if (
            epoch is not None
            and self._fw
            and self._metric_fingerprint == epoch.previous_fingerprint
            and epoch.fingerprint == graph.fingerprint
            # Density cutoff: the heap worklist beats the linear full
            # pass only while the deltas touch a small slice of the
            # overlay. A dense sweep (a whole-map profile tick) seeds so
            # many arcs that the full bottom-up scan — no heap, no
            # queued-set — is cheaper; both land on the identical
            # fixpoint, so this is purely a latency choice.
            and len(epoch.deltas) * 32 <= csr.edge_count
        ):
            self._customize_incremental(csr, epoch)
            return True

        fw = [_INF] * m
        bw = [_INF] * m
        mid_fw = [-1] * m
        mid_bw = [-1] * m
        self._fw = fw
        self._bw = bw
        self._mid_fw = mid_fw
        self._mid_bw = mid_bw
        base_fw_slot = self._base_fw_slot
        base_bw_slot = self._base_bw_slot
        tri_indptr = self._tri_indptr
        tri_mid = self._tri_mid
        tri_lo = self._tri_lo
        tri_hi = self._tri_hi
        for a in range(m):
            kf = base_fw_slot[a]
            kb = base_bw_slot[a]
            fw_a = weights[kf] if kf >= 0 else _INF
            bw_a = weights[kb] if kb >= 0 else _INF
            mid_f = -1
            mid_b = -1
            for p in range(tri_indptr[a], tri_indptr[a + 1]):
                a_lo = tri_lo[p]
                a_hi = tri_hi[p]
                candidate = bw[a_lo] + fw[a_hi]
                if candidate < fw_a:
                    fw_a = candidate
                    mid_f = tri_mid[p]
                candidate = bw[a_hi] + fw[a_lo]
                if candidate < bw_a:
                    bw_a = candidate
                    mid_b = tri_mid[p]
            fw[a] = fw_a
            bw[a] = bw_a
            mid_fw[a] = mid_f
            mid_bw[a] = mid_b
        self.arcs_recomputed += m
        return False

    def _customize_incremental(self, csr: _csr.CSRGraph, epoch) -> None:
        """Re-resolve only the arcs an epoch's deltas can have moved.

        The worklist is a heap of arc ids — ascending arc id is the
        bottom-up order — seeded with the delta edges' arcs. A popped
        arc ``a`` that moved pushes a mediated arc ``t`` (a larger id,
        still at its old fixpoint) only if their triangle is *tight*:
        the candidate summed from the smaller of ``a``'s old and new
        weights and the triangle's other side ``up_tri_other`` (i.e.
        ``arc_of[(arc_lower[a], other end of t)]``) is ``<=`` ``t``'s
        stored weight in that direction. A triangle slack both before
        and after sets neither ``t``'s minimum nor its remembered
        middle. When both sides of a triangle move, the lower-id side
        tests the true old sum and the higher-id side the true new
        one. Each popped arc folds the full pass's candidates in the
        same order, hence the identical fixpoint, middles included.
        """
        index_of = csr.index_of
        weights = csr.weights
        rank = self._rank
        arc_of = self._arc_of
        fw = self._fw
        bw = self._bw
        mid_fw = self._mid_fw
        mid_bw = self._mid_bw
        up_tri_indptr = self._up_tri_indptr
        up_tri_split = self._up_tri_split
        up_tri_arc = self._up_tri_arc
        up_tri_other = self._up_tri_other

        worklist: List[int] = []
        queued = set()
        for delta in epoch.deltas:
            u = index_of[delta.source]
            v = index_of[delta.target]
            if u == v:
                continue
            a = arc_of[(u, v)] if rank[u] < rank[v] else arc_of[(v, u)]
            if a not in queued:
                queued.add(a)
                heapq.heappush(worklist, a)

        recomputed = 0
        while worklist:
            a = heapq.heappop(worklist)
            fw_a, bw_a, mid_f, mid_b = self._resolve_arc(a, weights)
            recomputed += 1
            old_fw = fw[a]
            old_bw = bw[a]
            fw[a] = fw_a
            bw[a] = bw_a
            mid_fw[a] = mid_f
            mid_bw[a] = mid_b
            moved_f = fw_a != old_fw
            moved_b = bw_a != old_bw
            if not (moved_f or moved_b):
                continue
            low_f = fw_a if fw_a < old_fw else old_fw
            low_b = bw_a if bw_a < old_bw else old_bw
            split = up_tri_split[a]
            # a = (x, lo(t)), b = (x, hi(t)): fw(t) folds bw[a] + fw[b],
            # bw(t) folds bw[b] + fw[a].
            for q in range(up_tri_indptr[a], split):
                t = up_tri_arc[q]
                if t in queued:
                    continue
                b = up_tri_other[q]
                if (moved_b and low_b + fw[b] <= fw[t]) or (
                    moved_f and bw[b] + low_f <= bw[t]
                ):
                    queued.add(t)
                    heapq.heappush(worklist, t)
            # a = (x, hi(t)), b = (x, lo(t)): fw(t) folds bw[b] + fw[a],
            # bw(t) folds bw[a] + fw[b].
            for q in range(split, up_tri_indptr[a + 1]):
                t = up_tri_arc[q]
                if t in queued:
                    continue
                b = up_tri_other[q]
                if (moved_f and bw[b] + low_f <= fw[t]) or (
                    moved_b and low_b + fw[b] <= bw[t]
                ):
                    queued.add(t)
                    heapq.heappush(worklist, t)
        self.arcs_recomputed += recomputed

    # ------------------------------------------------------------------
    # stage 3: elimination-tree query
    # ------------------------------------------------------------------
    def _query(self, graph: Graph, source: NodeId, destination: NodeId) -> RunResult:
        csr = _csr.csr_for(graph)
        stats = SearchStats()
        result = RunResult(
            source=source,
            destination=destination,
            algorithm="dijkstra",
            variant="cch",
            stats=stats,
        )
        s = csr.index_of[source]
        t = csr.index_of[destination]
        if s == t:
            result.path = [source]
            result.cost = 0.0
            result.found = True
            return result

        parent = self._parent
        arc_start = self._node_arc_start
        arc_end = self._node_arc_end
        arc_upper = self._arc_upper
        fw = self._fw
        bw = self._bw

        iterations = 0
        edges_relaxed = 0
        nodes_updated = 0
        frontier_inserts = 2

        fdist = self._q_fdist
        bdist = self._q_bdist
        fpred = self._q_fpred
        bpred = self._q_bpred
        ftouched = [s]
        btouched = [t]
        fdist[s] = 0.0
        bdist[t] = 0.0

        u = s
        while u != -1:
            iterations += 1
            du = fdist[u]
            if du < _INF:
                end = arc_end[u]
                a = arc_start[u]
                edges_relaxed += end - a
                while a < end:
                    w = fw[a]
                    if w < _INF:
                        v = arc_upper[a]
                        candidate = du + w
                        dv = fdist[v]
                        if candidate < dv:
                            if dv == _INF:
                                frontier_inserts += 1
                                ftouched.append(v)
                            fdist[v] = candidate
                            fpred[v] = a
                            nodes_updated += 1
                    a += 1
            u = parent[u]

        u = t
        while u != -1:
            iterations += 1
            du = bdist[u]
            if du < _INF:
                end = arc_end[u]
                a = arc_start[u]
                edges_relaxed += end - a
                while a < end:
                    w = bw[a]
                    if w < _INF:
                        v = arc_upper[a]
                        candidate = du + w
                        dv = bdist[v]
                        if candidate < dv:
                            if dv == _INF:
                                frontier_inserts += 1
                                btouched.append(v)
                            bdist[v] = candidate
                            bpred[v] = a
                            nodes_updated += 1
                    a += 1
            u = parent[u]

        stats.iterations = iterations
        stats.nodes_expanded = iterations
        stats.edges_relaxed = edges_relaxed
        stats.nodes_updated = nodes_updated
        stats.frontier_inserts = frontier_inserts

        best = _INF
        meeting = -1
        for v in ftouched:
            db = bdist[v]
            if db < _INF:
                total = fdist[v] + db
                if total < best:
                    best = total
                    meeting = v
        if meeting == -1 or best == _INF:
            for v in ftouched:
                fdist[v] = _INF
                fpred[v] = -1
            for v in btouched:
                bdist[v] = _INF
                bpred[v] = -1
            return result

        dense_path = self._unpack_path(s, t, meeting, fpred, bpred)
        for v in ftouched:
            fdist[v] = _INF
            fpred[v] = -1
        for v in btouched:
            bdist[v] = _INF
            bpred[v] = -1
        node_ids = csr.node_ids
        path = [node_ids[i] for i in dense_path]
        result.path = path
        # Price the reported cost by walking the unpacked path, so path
        # and cost are exactly consistent (``best`` can differ in the
        # last ulp from the edge-by-edge sum).
        result.cost = graph.path_cost(path)
        result.found = True
        return result

    def _unpack_path(
        self,
        s: int,
        t: int,
        meeting: int,
        fpred: List[int],
        bpred: List[int],
    ) -> List[int]:
        arc_lower = self._arc_lower
        forward_arcs: List[int] = []
        v = meeting
        while v != s:
            a = fpred[v]
            forward_arcs.append(a)
            v = arc_lower[a]
        forward_arcs.reverse()
        path = [s]
        for a in forward_arcs:
            self._unpack_arc(a, True, path)
        v = meeting
        while v != t:
            a = bpred[v]
            self._unpack_arc(a, False, path)
            v = arc_lower[a]
        return path

    def _unpack_arc(self, arc: int, forward: bool, out: List[int]) -> None:
        """Append the original-edge expansion of ``arc`` (sans its first
        node) to ``out``; ``forward`` picks the traversal direction
        (lower→upper uses ``mid_fw``, upper→lower uses ``mid_bw``)."""
        arc_lower = self._arc_lower
        arc_upper = self._arc_upper
        arc_of = self._arc_of
        mid_fw = self._mid_fw
        mid_bw = self._mid_bw
        stack = [(arc, forward)]
        while stack:
            a, fwd = stack.pop()
            mid = mid_fw[a] if fwd else mid_bw[a]
            if mid < 0:
                out.append(arc_upper[a] if fwd else arc_lower[a])
                continue
            lo = arc_lower[a]
            hi = arc_upper[a]
            if fwd:
                # lo -> mid -> hi: descend arc (mid, lo), climb (mid, hi).
                first = (arc_of[(mid, lo)], False)
                second = (arc_of[(mid, hi)], True)
            else:
                # hi -> mid -> lo: descend arc (mid, hi), climb (mid, lo).
                first = (arc_of[(mid, hi)], False)
                second = (arc_of[(mid, lo)], True)
            stack.append(second)
            stack.append(first)

    def snapshot(self) -> Dict[str, float]:
        snap = super().snapshot()
        snap["arcs"] = self.arc_count
        snap["shortcuts"] = self.shortcut_count
        snap["arcs_recomputed"] = self.arcs_recomputed
        return snap
