"""FrontierSet management strategies — the Section 5.3.1 design axis.

"We examine two implementations of the frontierSet: as an independent
relation, and as an attribute in the nodes relation."

* :class:`SeparateRelationFrontier` (A* **version 1**): the frontier is
  its own relation with a secondary index. Adding a node APPENDs a
  tuple (and adjusts the index); removing one DELETEs it. The node
  relation R is built lazily — nodes are appended as first discovered,
  so there is no up-front initialization cost. The downside is churn:
  INGRES-era heap files do not reuse deleted slots and secondary-index
  overflow chains grow with every append, so per-operation cost climbs
  as the search runs — this is what makes version 1 lose to version 2
  on larger graphs (Figure 10) despite winning on skewed/short queries
  (Figures 11-12).

* :class:`StatusAttributeFrontier` (A* **versions 2-3**, and the
  engine's Dijkstra): the frontier is the set of R-tuples with
  ``status = open``. Relaxing an edge is a single keyed REPLACE through
  R's ISAM index ("version 2 ... further combines the APPEND and DELETE
  in A* version 1 to a REPLACE"); selecting the best node is a scan of
  R. R is fully initialized (and indexed) up front, which costs more
  before the first iteration but keeps per-operation cost flat.

Both charge a selection as the paper's plan does, a full scan of the
frontier's relation, but do the Python work only for the rows a step
can return: the status frontier keeps a heap of its open rows, and
version 1 locates R's tuples through a record-id directory.

Both implement the same protocol:

``open_node(node_id, path_cost, predecessor)``
    label a node and place it on the frontier (used for the source);
``relax(node_id, new_cost, predecessor)``
    conditional improvement — returns True if the label improved;
``select_best()``
    the open tuple minimising ``key_of(node_id, path_cost)`` — the
    first minimum in (page, slot) order — or None when empty;
``close(tuple)``
    move the selected tuple to the explored set;
``size()``
    number of open nodes.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import PlannerError
from repro.graphs.graph import Graph, NodeId
from repro.storage.heapfile import RecordId
from repro.storage.iostats import IOStatistics
from repro.storage.relation import Relation
from repro.storage.schema import (
    ANY,
    FLOAT,
    STATUS_CLOSED,
    STATUS_NULL,
    STATUS_OPEN,
    Field,
    Schema,
)

#: Entries per secondary-index page of the separate frontier relation
#: (drives how fast version 1's overflow chains grow).
INDEX_ENTRIES_PER_PAGE = 64


def frontier_schema() -> Schema:
    """Schema of version 1's independent frontier relation.

    Carries both the selection key (``f_cost``) and the node's current
    label (``path_cost``), so selecting the best node needs no lookup
    in the unindexed lazy R.
    """
    return Schema(
        "F",
        [
            Field("node_id", ANY, 12),
            Field("f_cost", FLOAT, 8),
            Field("path_cost", FLOAT, 8),
        ],
    )


class StatusAttributeFrontier:
    """Frontier as R.status = 'open' (versions 2 and 3).

    ``key_of(node_id, path_cost)`` is the selection key: ``path_cost``
    for Dijkstra, ``path_cost + f(node, d)`` for A*. It is evaluated
    once per label, when a row is opened or relaxed.

    The frontier records its open rows itself, ``{rid: key}`` plus a
    heap of ``(key, rid)`` with lazy deletion, so a selection reads
    only the winning row. R must hold no open row when the frontier is
    built (a fresh R from ``fresh_node_relation``); every later status
    change goes through this object.
    """

    name = "status-attribute"

    def __init__(
        self,
        R: Relation,
        stats: IOStatistics,
        key_of: Callable[[NodeId, float], float],
    ) -> None:
        if R.isam is None:
            raise PlannerError("status-attribute frontier needs R's ISAM index")
        self.R = R
        self.stats = stats
        self.key_of = key_of
        self._open: Dict[RecordId, float] = {}
        self._heap: List[Tuple[float, RecordId]] = []

    def size(self) -> int:
        return len(self._open)

    def open_node(
        self, node_id: NodeId, path_cost: float, predecessor: Optional[NodeId]
    ) -> None:
        """Unconditionally label and open a node (the source)."""
        applied = self._descend_and_update(
            node_id, path_cost, predecessor, conditional=False
        )
        if applied is None:
            raise PlannerError(f"node {node_id!r} missing from R")

    def relax(
        self, node_id: NodeId, new_cost: float, predecessor: Optional[NodeId]
    ) -> bool:
        """Keyed conditional REPLACE: improve the label if cheaper."""
        applied = self._descend_and_update(
            node_id, new_cost, predecessor, conditional=True
        )
        if applied is None:
            raise PlannerError(f"node {node_id!r} missing from R")
        return applied

    def _descend_and_update(
        self,
        node_id: NodeId,
        new_cost: float,
        predecessor: Optional[NodeId],
        conditional: bool,
    ) -> Optional[bool]:
        """One ISAM descent + data read; update in place when improving."""
        rid = self.R.isam.probe(node_id)  # charges I_l reads
        if rid is None:
            return None
        old = self.R.read(rid)  # a fresh dict; charges the data-page access
        if conditional and old["path_cost"] <= new_cost:
            return False
        old["path_cost"] = new_cost
        old["path"] = predecessor
        old["status"] = STATUS_OPEN
        self.R.heap.update(rid, old)  # charges t_update
        key = self.key_of(old["node_id"], new_cost)
        self._open[rid] = key
        # A key that is not < inf (inf, NaN) is never selected, so it
        # stays off the heap.
        if key < math.inf:
            heapq.heappush(self._heap, (key, rid))
        return True

    def select_best(self) -> Optional[dict]:
        """Charge a scan of R, then take the open row minimising the key.

        The scan is the paper's step 5 and is charged page by page
        whatever it finds. The winner is the heap's least live
        ``(key, rid)``: rids order as (page, slot), so it is the first
        minimum in scan order, the row a strict ``<`` over the scan
        keeps. Only the winner becomes a dict.
        """
        for _page in self.R.heap.scan_pages():
            pass
        heap, open_keys = self._heap, self._open
        while heap:
            key, rid = heap[0]
            if open_keys.get(rid) == key:
                break
            heapq.heappop(heap)  # closed, or relaxed since it was pushed
        else:
            return None
        page_no, slot = rid
        best = self.R.schema.as_dict(self.R.heap.pages[page_no].slots[slot])
        best["_rid"] = rid
        return best

    def close(self, node_tuple: dict) -> None:
        """Flip the selected tuple's status to 'closed' in place."""
        rid = node_tuple.get("_rid")
        if rid is None:
            raise PlannerError("close() requires a tuple from select_best()")
        row = {k: v for k, v in node_tuple.items() if k != "_rid"}
        row["status"] = STATUS_CLOSED
        self.R.heap.update(rid, row)  # located by the selection scan
        self._open.pop(rid, None)


class SeparateRelationFrontier:
    """Frontier as an independent relation F (version 1).

    The node relation R is *lazy*: tuples are appended on first
    discovery and located thereafter through an in-memory record-id
    directory, each keyed access charged one block read (the hashed
    lookup INGRES performs). F carries a secondary index whose
    maintenance cost grows with the cumulative number of appends —
    1990s heaps do not reclaim deleted slots, and overflow chains are
    never rebalanced mid-query.
    """

    name = "separate-relation"

    def __init__(
        self,
        create_relation: Callable[..., Relation],
        R: Relation,
        graph: Graph,
        stats: IOStatistics,
        key_of: Callable[[NodeId, float], float],
    ) -> None:
        self.R = R
        self.graph = graph
        self.stats = stats
        self.key_of = key_of
        self.F = create_relation(frontier_schema(), name=f"F{id(self) % 10000}")
        self._f_rids: Dict[str, tuple] = {}
        self._r_rids: Dict[str, tuple] = {}
        self._total_appends = 0

    def size(self) -> int:
        return len(self._f_rids)

    # ------------------------------------------------------------------
    def _index_overflow_pages(self) -> int:
        return self._total_appends // INDEX_ENTRIES_PER_PAGE

    def _charge_index_adjustment(self) -> None:
        """Walk the index overflow chain, then write the adjusted page."""
        self.stats.charge_read(1 + self._index_overflow_pages())
        self.stats.charge_write(1)

    def _node_tuple(
        self, node_id: NodeId, path_cost: float, predecessor: Optional[NodeId]
    ) -> dict:
        node = self.graph.node(node_id)
        return {
            "node_id": node_id,
            "x": node.x,
            "y": node.y,
            "status": STATUS_OPEN,
            "path": predecessor,
            "path_cost": path_cost,
        }

    def _write_node(self, node_id: NodeId, values: dict) -> None:
        marker = repr(node_id)
        if marker in self._r_rids:
            self.R.update(self._r_rids[marker], values)
        else:
            self._r_rids[marker] = self.R.insert(values)

    def _read_node(self, node_id: NodeId) -> Optional[dict]:
        """Locate a node's label in the *unindexed* lazy R.

        Version 1's R has no ISAM index (it grows as the search runs),
        so INGRES locates a tuple by scanning the heap — we charge the
        full current block count per lookup, which is what makes
        version 1's per-iteration cost climb with graph size (the
        Figure 10 crossover). The in-memory directory only avoids the
        Python-level O(n) walk; the I/O charge is the scan's.
        """
        rid = self._r_rids.get(repr(node_id))
        if rid is None:
            # A miss still scans the whole heap before concluding.
            self.stats.charge_read(max(1, self.R.heap.blocks_needed()))
            return None
        blocks = max(1, self.R.heap.blocks_needed())
        self.stats.charge_read(blocks - 1)  # R.read charges the last one
        return dict(self.R.read(rid))

    # ------------------------------------------------------------------
    def open_node(
        self, node_id: NodeId, path_cost: float, predecessor: Optional[NodeId]
    ) -> None:
        values = self._node_tuple(node_id, path_cost, predecessor)
        self._write_node(node_id, values)
        self._append_to_frontier(node_id, values)

    def relax(
        self, node_id: NodeId, new_cost: float, predecessor: Optional[NodeId]
    ) -> bool:
        old = self._read_node(node_id)
        if old is not None and old["path_cost"] <= new_cost:
            return False
        values = self._node_tuple(node_id, new_cost, predecessor)
        self._write_node(node_id, values)
        marker = repr(node_id)
        if marker in self._f_rids:
            # Improving an open node: DELETE the stale frontier entry.
            # The index entry is invalidated lazily (no adjustment
            # charge) — the tombstone stays on the data page.
            self.F.delete(self._f_rids.pop(marker))
        self._append_to_frontier(node_id, values)
        return True

    def _append_to_frontier(self, node_id: NodeId, values: dict) -> None:
        rid = self.F.insert(
            {
                "node_id": node_id,
                "f_cost": self.key_of(node_id, values["path_cost"]),
                "path_cost": values["path_cost"],
            }
        )
        self._total_appends += 1
        self._charge_index_adjustment()
        self._f_rids[repr(node_id)] = rid

    def select_best(self) -> Optional[dict]:
        """Scan F (allocated blocks, tombstones included) for the min,
        then read the winner's full label back from R.

        F only carries the selection key and path cost, so the tuple
        handed to the caller — predecessor pointer included — must come
        from R. Fabricating the missing fields here (an earlier revision
        returned ``path=None``) silently drops the predecessor recorded
        by ``relax``, corrupting path reconstruction for any consumer of
        the protocol. The R lookup is charged at version 1's unindexed
        rate, one heap scan (see :meth:`_read_node`).
        """
        f_cost = self.F.schema.position("f_cost")
        best_entry = None
        best_key = math.inf
        for _rid, entry in self.F.heap.scan_rows():
            if entry[f_cost] < best_key:
                best_key = entry[f_cost]
                best_entry = entry
        if best_entry is None:
            return None
        node_id = best_entry[self.F.schema.position("node_id")]
        label = self._read_node(node_id)
        if label is None:
            raise PlannerError(f"frontier node {node_id!r} missing from R")
        # Membership in F *is* the open status in version 1; R's status
        # column is never rewritten on close, so assert it here.
        label["status"] = STATUS_OPEN
        return label

    def close(self, node_tuple: dict) -> None:
        """DELETE from F; membership in F *is* the open status in v1,
        so no write to R is needed."""
        node_id = node_tuple["node_id"]
        marker = repr(node_id)
        rid = self._f_rids.pop(marker, None)
        if rid is None:
            raise PlannerError(f"node {node_id!r} not in the frontier")
        self.F.delete(rid)  # index entry invalidated lazily
