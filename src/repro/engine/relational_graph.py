"""Relational representation of a graph — Section 4's S and R relations.

"Directed graphs are represented as pairs of relations: edge (S) and
node (R). The edge relation S is a read-only relation ... Its fields
include: Begin-node, End-node, and Edge-cost. ... The relation S has a
primary index (random hash) on the field S.Begin-node. ... The relation
R has a primary index (ISAM) on node-id."

:class:`RelationalGraph` loads a :class:`~repro.graphs.graph.Graph`
into a simulated database once (S is read-only thereafter) and can
mint fresh node relations R per algorithm run, since R "stores the
internal data-structures of various routing algorithms".
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.graphs.graph import Graph, NodeId
from repro.storage.database import Database
from repro.storage.iostats import IOStatistics
from repro.storage.relation import Relation
from repro.storage.schema import (
    STATUS_NULL,
    Schema,
    edge_schema,
    node_schema,
)

#: Sentinel for "no predecessor yet" in R.path.
NO_PATH = None

#: Sentinel for "unlabelled" path cost.
UNLABELLED = float("inf")


class RelationalGraph:
    """A graph resident in the simulated DBMS."""

    def __init__(
        self,
        graph: Graph,
        database: Optional[Database] = None,
        stats: Optional[IOStatistics] = None,
    ) -> None:
        self.graph = graph
        if database is not None:
            self.db = database
        else:
            self.db = Database(name=f"db-{graph.name}", stats=stats)
        self.stats = self.db.stats
        R, S = node_schema(), edge_schema()
        #: Bf_r: blocking factor of R, the adjacency joins' outer.
        self.node_blocking_factor = R.blocking_factor(self.db.block_size)
        #: Bf_rs: blocking factor of R x S join results (Table 1).
        self.result_blocking_factor = R.join_with(S, "RS").blocking_factor(
            self.db.block_size
        )
        self._node_counter = 0
        self._initial_rows: Tuple[tuple, ...] = ()
        #: The adjacency joins' plans, by F's inputs (see execute_join).
        self._join_plans: Dict[tuple, object] = {}
        self.S = self._load_edge_relation()
        # Traffic propagation: S was loaded at one fingerprint; epochs
        # dirty adjacency lists by begin-node and sync() re-fetches them
        # before the next run rather than serving stale costs.
        self._dirty_lock = threading.Lock()
        self._dirty_begins: Set[NodeId] = set()
        self._synced_fingerprint = graph.fingerprint
        self._covered_fingerprint = graph.fingerprint
        self.syncs = 0
        self.tuples_refreshed = 0
        self.full_reloads = 0

    # ------------------------------------------------------------------
    def _load_edge_relation(self) -> Relation:
        """Bulk-load S and build its primary hash index on Begin-node."""
        S = self.db.create_relation(edge_schema(), name="S")
        S.bulk_load(
            {"begin": edge.source, "end": edge.target, "cost": edge.cost}
            for edge in self.graph.edges()
        )
        S.create_hash_index("begin")
        return S

    # ------------------------------------------------------------------
    @property
    def edge_blocks(self) -> int:
        """B_s: blocks of the edge relation."""
        return self.S.block_count

    @property
    def average_adjacency(self) -> float:
        """|A|: average out-degree, the model's neighbor-count parameter."""
        return self.graph.average_degree()

    # ------------------------------------------------------------------
    def fresh_node_relation(
        self, populate: bool = True, with_index: bool = True
    ) -> Relation:
        """Create a new R for one algorithm run.

        ``populate=True`` performs the paper's initialization steps:
        C2 (initialize R with all nodes: read S's blocks, bulk-write R)
        and C3 (sort + build the ISAM index on node-id). The lazy
        variant (``populate=False``) is what A* version 1 uses — it
        "expands nodes and appends them to the resultant relation as it
        goes along".
        """
        self._node_counter += 1
        name = f"R{self._node_counter}"
        with self.stats.phase("init"):
            R = self.db.create_relation(node_schema(), name=name)  # C1
            if populate:
                # C2: the node set is derived by scanning the edge
                # relation, so its blocks are read once.
                self.stats.charge_read(self.S.block_count)
                R.heap.load_rows(self._initial_node_rows(R.schema))
                if with_index:
                    R.create_isam_index("node_id")  # C3
        return R

    def _initial_node_rows(self, schema: Schema) -> Tuple[tuple, ...]:
        """R's rows before a run, one per node in graph order: unlabelled,
        status null. Nodes are never removed or changed, only added, so
        the rows are validated once per node count."""
        if len(self._initial_rows) != len(self.graph):
            self._initial_rows = tuple(
                schema.validate(
                    {
                        "node_id": node.node_id,
                        "x": node.x,
                        "y": node.y,
                        "status": STATUS_NULL,
                        "path": NO_PATH,
                        "path_cost": UNLABELLED,
                    }
                )
                for node in self.graph.nodes()
            )
        return self._initial_rows

    def drop_node_relation(self, relation: Relation) -> None:
        """Discard a run's R (charges the fixed deletion cost D_t)."""
        self.db.drop_relation(relation.name)

    # ------------------------------------------------------------------
    # traffic propagation (keeping S honest across cost epochs)
    # ------------------------------------------------------------------
    def handle_epoch(self, epoch) -> int:
        """Record which adjacency lists a traffic epoch dirtied.

        Bookkeeping only — no I/O is charged here. The touched
        begin-nodes go into a dirty set and :meth:`sync` re-fetches
        those adjacency blocks before the next run. Epochs are chained
        by fingerprint: a gap (an update this graph saw but we were not
        told about) poisons the chain, and ``sync`` falls back to a
        full reload rather than trust a partial dirty set.
        """
        if epoch.graph is not self.graph and epoch.graph.uid != self.graph.uid:
            return 0
        with self._dirty_lock:
            if epoch.previous_fingerprint == self._covered_fingerprint:
                for delta in epoch.deltas:
                    self._dirty_begins.add(delta.source)
                self._covered_fingerprint = epoch.fingerprint
        return len(epoch.deltas)

    def sync(self) -> int:
        """Re-fetch adjacency blocks dirtied since the last run.

        For each dirty begin-node the hash index is probed (block reads
        charged per chain page), the matching S tuples are read, and any
        whose cost moved are rewritten in place (one ``t_update`` each)
        — the paper's fetch/REPLACE rates, attributed to the
        ``traffic-sync`` phase. When the dirty set cannot account for
        every change since the last sync (updates bypassed the feed),
        S is dropped and bulk-reloaded instead. Returns the number of
        tuples refreshed; 0 when S is already current.

        Fault-atomic: the dirty set is read without being cleared, so
        an injected fault mid-refresh leaves it intact and a retry sees
        the same work list. The per-tuple refresh is idempotent (a
        tuple already at the new cost is skipped), so partially-applied
        work is simply completed on retry. State is only advanced after
        the refresh fully succeeds.
        """
        current = self.graph.fingerprint
        if current == self._synced_fingerprint:
            return 0
        with self._dirty_lock:
            dirty = sorted(self._dirty_begins, key=repr)
            covered = self._covered_fingerprint
        refreshed = 0
        # The refresh below may raise (injected fault): nothing has
        # been cleared yet, so the retry re-reads an intact dirty set.
        with self.stats.phase("traffic-sync"):
            if covered == current and self.S.hash_index is not None:
                for begin in dirty:
                    for rid in self.S.hash_index.probe(begin):
                        row = dict(self.S.heap.read(rid))
                        new_cost = self.graph.edge_cost(row["begin"], row["end"])
                        if new_cost != row["cost"]:
                            row["cost"] = new_cost
                            self.S.heap.update(rid, row)
                            refreshed += 1
            else:
                if self.db.has_relation(self.S.name):
                    self.db.drop_relation(self.S.name)
                self.S = self._load_edge_relation()
                refreshed = self.S.tuple_count
                self.full_reloads += 1
        with self._dirty_lock:
            self._dirty_begins.difference_update(dirty)
            if self._covered_fingerprint == covered:
                # No epoch arrived during the refresh; the chain now
                # covers exactly what we just absorbed.
                self._covered_fingerprint = current
            # else: an epoch extended the chain mid-refresh — keep its
            # coverage claim; its begin-nodes are still in the dirty
            # set and the next sync picks them up.
        self.syncs += 1
        self._synced_fingerprint = current
        self.tuples_refreshed += refreshed
        return refreshed

    @property
    def stale(self) -> bool:
        """True when the graph has costs S has not yet absorbed."""
        return self.graph.fingerprint != self._synced_fingerprint

    def verify(self) -> bool:
        """Integrity audit of the mirror (no I/O charge: a sweep).

        Runs the index ``verify()`` sweeps on S and — when the mirror
        is not stale — checks every S tuple against the graph: same
        edge set, same costs. The crash matrix runs this after
        recovery to prove the rebuilt mirror serves no corrupt
        adjacency. Raises :class:`~repro.exceptions.IndexError_` (index
        damage) or :class:`~repro.exceptions.StorageError` (content
        drift) on the first violation.
        """
        from repro.exceptions import StorageError

        if self.S.hash_index is not None:
            self.S.hash_index.verify()
        if self.S.isam is not None:
            self.S.isam.verify()
        if not self.stale:
            edges = {
                (edge.source, edge.target): edge.cost
                for edge in self.graph.edges()
            }
            seen = set()
            position = self.S.schema.position
            begin, end, cost = position("begin"), position("end"), position("cost")
            for page in self.S.heap.pages:
                for _slot, row in page.rows():
                    key = (row[begin], row[end])
                    if key not in edges:
                        raise StorageError(
                            f"S tuple {key} is not an edge of "
                            f"{self.graph.name!r}"
                        )
                    if row[cost] != edges[key]:
                        raise StorageError(
                            f"S tuple {key} carries cost {row[cost]!r}, "
                            f"graph says {edges[key]!r}"
                        )
                    seen.add(key)
            missing = len(edges) - len(seen)
            if missing:
                raise StorageError(
                    f"S is missing {missing} of {len(edges)} graph edges"
                )
        return True

    # ------------------------------------------------------------------
    def adjacency_join(
        self,
        current_tuples: List[dict],
        stats: Optional[IOStatistics] = None,
        forced_strategy=None,
    ):
        """Join current node(s) with S to fetch their adjacency lists.

        This is step 6 of Table 2 / step 7 of Table 3: the optimizer
        chooses among the four join strategies with the live block
        counts, and the result tuples carry both the current node's
        label fields and the edge fields.
        """
        from repro.query.optimizer import execute_join

        stats = stats or self.stats
        expected = int(round(len(current_tuples) * max(1.0, self.average_adjacency)))
        return execute_join(
            outer=current_tuples,
            outer_key="node_id",
            outer_blocking_factor=self.node_blocking_factor,
            inner=self.S,
            inner_key="begin",
            expected_result_tuples=expected,
            result_blocking_factor=self.result_blocking_factor,
            stats=stats,
            forced_strategy=forced_strategy,
            plans=self._join_plans,
        )

    def __repr__(self) -> str:
        return (
            f"RelationalGraph({self.graph.name!r}, |S|={self.S.tuple_count}, "
            f"B_s={self.edge_blocks})"
        )
