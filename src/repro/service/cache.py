"""LRU query-result cache with edge-granular traffic invalidation.

The paper's experiments run one isolated query at a time, so nothing in
the original system ever reuses an answer. A deployed ATIS answers the
same commute questions over and over between traffic updates, which is
exactly the regime Wu et al.'s experimental evaluation of road-network
serving identifies as cache-dominated. This module supplies the missing
piece: a bounded LRU keyed on everything that determines the answer —

    (graph fingerprint, source, destination, algorithm, estimator, weight)

The graph fingerprint is ``Graph.fingerprint`` — a ``(uid, version)``
pair whose version component is bumped by every edge-cost refresh — so
a traffic update can never serve a stale route even if the caller
forgets to invalidate explicitly.

Fingerprint keying alone, however, forces the whole-graph nuke this
subsystem replaces: after any update the new fingerprint misses every
old entry, live or not. :meth:`RouteCache.invalidate_edges` fixes that
with an **inverted index from directed edges to cached answers**. A
traffic epoch evicts only the answers actually affected —

* entries whose path crosses a touched edge (any change re-prices them);
* for cost *decreases*, entries whose cached cost exceeds the admissible
  lower bound ``lb(s, u) + new_cost + lb(v, d)`` through the cheaper
  edge ``(u, v)`` (a cheaper edge elsewhere can only steal the optimum
  if a route through it could beat the cached cost);
* entries cached without path provenance (``edges=None``), which are
  evicted conservatively on any change —

and **re-keys every survivor to the new fingerprint**, so untouched
answers keep serving warm hits across updates. Internally an entry is
stored under its key *without* the fingerprint, which it carries as a
field instead: a lookup hits only when the two fingerprints agree, and
re-keying a survivor is one field write — the LRU order and both
inverted indexes never move.

The cache sits entirely *above* the planners and the storage engine:
paper-mode I/O accounting is untouched, and a hit performs zero block
reads or writes.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque
from itertools import compress, repeat
from operator import not_
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.graphs.graph import CostDelta, Graph, NodeId
from repro.kernel import csr as _csr

#: Everything that determines a query's answer.
QueryKey = Tuple[Tuple[int, int], NodeId, NodeId, str, str, float]

#: A directed edge as the invalidation index keys it.
EdgeKey = Tuple[NodeId, NodeId]

#: Where an entry lives: its query key with the fingerprint reduced to
#: the graph uid, ``(uid, source, destination, algorithm, estimator,
#: weight)``.
SlotKey = Tuple[int, NodeId, NodeId, str, str, float]


def _slot(key: QueryKey) -> SlotKey:
    return (key[0][0],) + key[1:]


#: One epoch's decrease bound: the straight-line scale and, per cheaper
#: edge ``(u, v)``, ``(ux, uy, vx, vy, new_cost)``.
_DecreaseBound = Tuple[float, List[Tuple[float, float, float, float, float]]]

#: :attr:`CacheEntry.ends` before anyone looked the coordinates up.
_UNKNOWN = object()


def _endpoints(graph: Graph, slot: SlotKey) -> Optional[Tuple[float, ...]]:
    """``(sx, sy, dx, dy)`` of a slot's source and destination, or None
    when either has no coordinates."""
    try:
        return graph.coordinates(slot[1]) + graph.coordinates(slot[2])
    except Exception:
        return None


def query_key(
    graph: Graph,
    source: NodeId,
    destination: NodeId,
    algorithm: str,
    estimator: str,
    weight: float,
) -> QueryKey:
    """Build the canonical cache key for one query."""
    return (graph.fingerprint, source, destination, algorithm, estimator, weight)


@dataclass(eq=False)
class CacheEntry:
    """One cached answer plus the provenance the invalidator needs.

    ``fingerprint`` is the graph state the answer is exact for; an
    epoch's re-key moves a survivor by rewriting it. ``slot`` is where
    the entry lives. ``ends`` holds the source's and destination's
    coordinates for the decrease bound, looked up once (None: they have
    none). ``holders`` lists the edge index's sets holding the entry,
    one per edge of ``edges`` in its iteration order. Entries compare
    and hash by identity, which is what the inverted indexes hold them
    by.
    """

    result: object
    cost: float
    edges: Optional[FrozenSet[EdgeKey]]
    fingerprint: Tuple[int, int]
    slot: SlotKey
    ends: object = _UNKNOWN
    holders: List[Set["CacheEntry"]] = field(default_factory=list)


@dataclass(frozen=True)
class InvalidationReport:
    """Outcome of one edge-granular invalidation pass."""

    evicted: int
    rekeyed: int

    def __int__(self) -> int:
        return self.evicted


class RouteCache:
    """Thread-safe bounded LRU of computed route results.

    ``capacity <= 0`` disables caching entirely (every lookup misses and
    nothing is stored), mirroring the storage engine's ``capacity=0``
    pass-through buffer-pool semantics.

    A cost *decrease* keeps the entries whose cached cost the cheaper
    edge provably cannot beat. Straight-line distance, scaled by the
    epoch's :meth:`~repro.kernel.csr.CSRGraph.euclidean_scale`, is the
    admissible lower bound, so the rule stays sound when edges are
    priced below their length.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[SlotKey, CacheEntry]" = OrderedDict()
        #: (uid, u, v) -> entries whose path crosses the edge.
        self._edge_index: Dict[Tuple[int, NodeId, NodeId], Set[CacheEntry]] = {}
        #: uid -> every entry cached for that graph.
        self._by_uid: Dict[int, Set[CacheEntry]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.rekeyed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, key: QueryKey) -> Optional[object]:
        """Return the cached result for ``key`` (refreshing recency) or None."""
        slot = _slot(key)
        with self._lock:
            entry = self._entries.get(slot)
            if entry is not None and entry.fingerprint == key[0]:
                self._entries.move_to_end(slot)
                self.hits += 1
                return entry.result
            self.misses += 1
            return None

    def put(
        self,
        key: QueryKey,
        result: object,
        edges: Optional[Iterable[EdgeKey]] = None,
        cost: Optional[float] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        """Store a result, evicting the least recently used on overflow.

        ``edges`` is the directed edge sequence of the cached route —
        the provenance the edge-granular invalidator indexes. Entries
        stored without it remain correct but are evicted conservatively
        on *any* update of their graph. ``cost`` defaults to
        ``result.cost`` (``inf`` for unreachable answers, which makes
        the decrease bound evict them whenever a cheaper edge might
        connect the pair). A put replaces the query's entry at any
        other fingerprint: one query holds one slot. ``graph`` (the
        key's graph) lets the put look the endpoints' coordinates up
        now, outside the lock; otherwise the first epoch with a cost
        decrease does.
        """
        if self.capacity <= 0:
            return
        if cost is None:
            cost = getattr(result, "cost", float("inf"))
        edge_set = frozenset(edges) if edges is not None else None
        entry = CacheEntry(result, cost, edge_set, key[0], _slot(key))
        if graph is not None:
            entry.ends = _endpoints(graph, entry.slot)
        with self._lock:
            replaced = self._entries.get(entry.slot)
            if replaced is not None:
                self._drop([replaced])
            self._entries[entry.slot] = entry
            self._index(entry)
            while len(self._entries) > self.capacity:
                self._drop([next(iter(self._entries.values()))])
                self.evictions += 1

    # ------------------------------------------------------------------
    # index bookkeeping (call with the lock held)
    # ------------------------------------------------------------------
    def _index(self, entry: CacheEntry) -> None:
        uid = entry.slot[0]
        self._by_uid.setdefault(uid, set()).add(entry)
        if entry.edges:
            index = self._edge_index
            for u, v in entry.edges:
                held = index.get((uid, u, v))
                if held is None:
                    held = index[(uid, u, v)] = set()
                held.add(entry)
                entry.holders.append(held)

    def _drop(self, dead: Iterable[CacheEntry]) -> None:
        """Remove ``dead`` entries from the store and both indexes in
        one pass (the lock held)."""
        entries = self._entries
        by_uid = self._by_uid
        index = self._edge_index
        for entry in dead:
            slot = entry.slot
            uid = slot[0]
            del entries[slot]
            owned = by_uid[uid]
            owned.discard(entry)
            if not owned:
                del by_uid[uid]
            if entry.edges:
                # The entry leaves its edges' holder sets in C, without
                # hashing an edge; only the sets it empties are looked
                # up again, to delete them.
                holders = entry.holders
                deque(map(set.discard, holders, repeat(entry)), 0)
                for u, v in compress(entry.edges, map(not_, holders)):
                    del index[(uid, u, v)]

    # ------------------------------------------------------------------
    # invalidation (the dynamic-traffic loop)
    # ------------------------------------------------------------------
    def invalidate_graph(self, graph: Graph) -> int:
        """Drop every entry computed against any version of ``graph``.

        Returns the number of entries evicted. This is the whole-graph
        fallback the edge-granular path replaces; it remains the right
        call for structural changes (edges added or removed).
        """
        with self._lock:
            stale = list(self._by_uid.get(graph.uid, ()))
            self._drop(stale)
            self.invalidations += len(stale)
            return len(stale)

    def invalidate_edges(
        self,
        graph: Graph,
        deltas: Iterable[CostDelta],
        previous_fingerprint: Optional[Tuple[int, int]] = None,
        new_fingerprint: Optional[Tuple[int, int]] = None,
    ) -> InvalidationReport:
        """Apply one traffic epoch's deltas to the cached answers.

        ``previous_fingerprint`` is the graph fingerprint the epoch was
        applied *from* (defaults to ``(uid, version - 1)``, the single
        bump an epoch publishes). Only entries cached at exactly
        that state can be proven unaffected and re-keyed; entries from
        older states are evicted — nothing is known about the updates
        they missed.

        ``new_fingerprint`` is the fingerprint the epoch produced and
        the one survivors are re-keyed to. Callers holding a
        :class:`~repro.traffic.feed.TrafficEpoch` must pass
        ``epoch.fingerprint``: defaulting to the *live*
        ``graph.fingerprint`` is only sound when epochs are processed
        strictly in order with no updates racing ahead — if the graph
        has already moved on to a later version, the default would
        re-key this epoch's survivors straight past the intervening
        epochs' deltas without ever analysing them, leaving provably
        stale answers live at the newest fingerprint.
        """
        deltas = list(deltas)
        uid = graph.uid
        new_fp = new_fingerprint if new_fingerprint is not None else graph.fingerprint
        if previous_fingerprint is None:
            previous_fingerprint = (uid, new_fp[1] - 1)
        decreases = [d for d in deltas if d.decreased]
        # Priced outside the lock: it may build the CSR snapshot.
        bound = self._bound_decreases(graph, decreases, new_fp) if decreases else None
        with self._lock:
            cached = self._by_uid.get(uid)
            if not cached:
                return InvalidationReport(0, 0)
            # Entries whose path crosses a touched edge.
            crossing: Set[CacheEntry] = set()
            for delta in deltas:
                crossing |= self._edge_index.get((uid, delta.source, delta.target), set())
            # Dead: any entry not cached at the epoch's starting state;
            # on any change, entries cached without provenance and those
            # crossing a touched edge; on a cost decrease (which can
            # reroute answers that never touched the edge), those the
            # admissible bound does not clear.
            affected = []
            for entry in cached:
                if (
                    entry.fingerprint != previous_fingerprint
                    or (deltas and (entry.edges is None or entry in crossing))
                ):
                    affected.append(entry)
                elif decreases:
                    if entry.ends is _UNKNOWN:
                        entry.ends = _endpoints(graph, entry.slot)
                    if not self._survives_decreases(entry, bound):
                        affected.append(entry)
            self._drop(affected)
            self.invalidations += len(affected)

            # ``cached`` now holds exactly the survivors (``_drop``
            # discarded the rest); re-keying is a field write each.
            survivors = len(cached)
            if survivors and new_fp != previous_fingerprint:
                for entry in cached:
                    entry.fingerprint = new_fp
                self.rekeyed += survivors
            return InvalidationReport(len(affected), survivors)

    def _bound_decreases(
        self, graph: Graph, decreases: List[CostDelta], new_fp: Tuple[int, int]
    ) -> Optional[_DecreaseBound]:
        """The :data:`_DecreaseBound` of one epoch's cheaper edges.

        ``scale`` makes straight-line distance a lower bound on every
        cost at ``new_fp`` (1.0 unless an edge is priced below its
        length; see :meth:`CSRGraph.euclidean_scale`), or 0.0 (no bound,
        always sound) for an epoch the graph has moved past. Endpoint
        coordinates are looked up once per epoch. ``None`` when a
        delta's endpoints have no coordinates.
        """
        try:
            ends = [
                graph.coordinates(d.source) + graph.coordinates(d.target)
                + (d.new_cost,)
                for d in decreases
            ]
        except Exception:
            return None
        snapshot = _csr.csr_for(graph)
        if snapshot.fingerprint != new_fp:
            return 0.0, ends
        return snapshot.euclidean_scale(graph), ends

    @staticmethod
    def _survives_decreases(
        entry: CacheEntry, bound: Optional[_DecreaseBound]
    ) -> bool:
        """True if no cheaper edge can possibly beat the cached cost."""
        if entry.cost == math.inf and entry.edges is not None:
            # A provenance-bearing "unreachable" answer: reachability is
            # structural, so no cost change can ever overturn it.
            return True
        ends = entry.ends
        if bound is None or ends is None:
            return False
        sx, sy, dx, dy = ends
        scale, cheaper = bound
        cost = entry.cost
        hypot = math.hypot
        for ux, uy, vx, vy, new_cost in cheaper:
            detour = (
                scale * hypot(sx - ux, sy - uy)
                + new_cost
                + scale * hypot(vx - dx, vy - dy)
            )
            if detour < cost:
                return False
        return True

    def clear(self) -> None:
        """Drop everything (counters are kept)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._edge_index.clear()
            self._by_uid.clear()

    # ------------------------------------------------------------------
    # select-link: the inverted index read forwards
    # ------------------------------------------------------------------
    def routes_crossing(
        self, graph: Graph, links: Iterable[EdgeKey]
    ) -> List[Tuple[NodeId, NodeId, FrozenSet[EdgeKey]]]:
        """Cached routes (at the current fingerprint) crossing any link.

        The invalidator uses the edge index to find answers a cost
        change kills; select-link analysis asks the same index the
        forward question — which cached OD answers traverse this link.
        Returns ``(source, destination, edges)`` triples, one per
        distinct OD pair, considering **only** entries keyed at
        ``graph.fingerprint``: the index legitimately holds entries at
        older fingerprints (a write the service never absorbed leaves
        them behind), and those describe routes priced under costs that
        no longer hold. Lookups here do not touch hit/miss counters or
        LRU recency — analysis must not distort serving behaviour.
        """
        fingerprint = graph.fingerprint
        uid = graph.uid
        seen: Set[Tuple[NodeId, NodeId]] = set()
        out: List[Tuple[NodeId, NodeId, FrozenSet[EdgeKey]]] = []
        with self._lock:
            for u, v in links:
                for entry in self._edge_index.get((uid, u, v), ()):
                    if entry.fingerprint != fingerprint:
                        continue
                    pair = (entry.slot[1], entry.slot[2])
                    if pair in seen:
                        continue
                    seen.add(pair)
                    if entry.edges:
                        out.append((pair[0], pair[1], entry.edges))
        return out

    def audit_index(self) -> List[str]:
        """Cross-check entries against both indexes; return violations.

        Select-link correctness rides on the inverted edge index being
        an exact mirror of the live entries, so this audit is wired
        into the regression tests: every entry's provenance edges must
        appear in the edge index (and nowhere else), every index slot
        must point at a live entry that lists the edge, and the uid
        index must partition exactly the live key set. An empty list
        means the mirror is exact.
        """
        problems: List[str] = []
        with self._lock:
            for key, entry in self._entries.items():
                uid = key[0]
                if entry.slot != key or entry.fingerprint[0] != uid:
                    problems.append(
                        f"entry at {key!r} stamped {entry.slot!r} at "
                        f"{entry.fingerprint!r}"
                    )
                if entry not in self._by_uid.get(uid, ()):
                    problems.append(f"entry {key!r} missing from uid index")
                for u, v in entry.edges or ():
                    if entry not in self._edge_index.get((uid, u, v), ()):
                        problems.append(
                            f"entry {key!r} missing from edge index at "
                            f"({u!r}, {v!r})"
                        )
            for (uid, u, v), entries in self._edge_index.items():
                if not entries:
                    problems.append(f"empty edge-index slot ({uid}, {u!r}, {v!r})")
                for entry in entries:
                    key = entry.slot
                    if self._entries.get(key) is not entry:
                        problems.append(
                            f"edge index ({uid}, {u!r}, {v!r}) points at "
                            f"dead key {key!r}"
                        )
                    elif entry.edges is None or (u, v) not in entry.edges:
                        problems.append(
                            f"edge index ({uid}, {u!r}, {v!r}) points at "
                            f"{key!r} whose provenance lacks the edge"
                        )
                    elif key[0] != uid:
                        problems.append(
                            f"edge index ({uid}, {u!r}, {v!r}) holds "
                            f"foreign-uid key {key!r}"
                        )
            for entries in self._by_uid.values():
                for entry in entries:
                    if self._entries.get(entry.slot) is not entry:
                        problems.append(f"uid index holds dead key {entry.slot!r}")
        return problems

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict counter view, shaped like ``IOStatistics.snapshot()``.

        The whole snapshot is taken under the cache lock so concurrent
        traffic (the replay driver's query threads) can never tear the
        counters against each other.
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "rekeyed": self.rekeyed,
                "indexed_edges": len(self._edge_index),
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:
        return (
            f"RouteCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
