"""Graph backends: where the kernel loop's tuples come from.

A backend answers one question — "give me the adjacency rows for these
frontier labels" — and owns the accounting for doing so:

* :class:`InMemoryBackend` reads ``Graph`` adjacency lists directly.
  Zero I/O, no phases, no ledger: memory is free in the paper's cost
  model, so ``execution_cost`` stays 0 and only the
  :class:`~repro.kernel.result.SearchStats` counters move.
* :class:`RelationalBackend` routes the same question through
  ``RelationalGraph.adjacency_join`` — the optimizer picks a plan and
  every page touched is billed at Table 3/4A rates on the shared
  ``iostats`` ledger, phase-attributed (init / iterate / cleanup /
  traffic-sync) exactly as the historical engine programs did.

This module also holds the relational frontier-policy adapters
(:class:`RelationalBestFirstPolicy`, :class:`RelationalWavePolicy`)
that drive :mod:`repro.engine.frontier`'s relations through the kernel
protocol described in :mod:`repro.kernel.frontiers`. They reproduce
the historical ``engine.rel_bestfirst`` / ``engine.rel_iterative``
loops operation for operation — the engine cross-check tests hold the
per-iteration I/O counts to the seed's numbers.

Imports from :mod:`repro.engine` are deferred to call time: the engine
package itself configures the kernel, so a module-level import here
would be circular.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.exceptions import PlannerError
from repro.kernel.result import RunResult, RelationalRunResult, SearchStats
from repro.storage.heapfile import RecordId
from repro.storage.schema import STATUS_CLOSED, STATUS_CURRENT


class _NullPhase:
    """Reusable no-op context manager: the in-memory tier has no ledger."""

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_PHASE = _NullPhase()


class InMemoryBackend:
    """Adjacency served straight from :class:`~repro.graphs.graph.Graph`.

    ``neighbors`` materialises the same row shape the relational join
    produces (``end`` / ``cost``), which is what lets the equivalence
    tests compare the two tiers label for label.
    """

    name = "memory"

    def __init__(self, graph) -> None:
        self.graph = graph

    def begin_run(self) -> None:
        pass

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def neighbors(self, outer: List[dict]) -> Tuple[List[dict], str]:
        rows = []
        for entry in outer:
            for v, edge_cost in self.graph.neighbors(entry["node_id"]):
                rows.append({"end": v, "cost": edge_cost})
        return rows, "in-memory"

    @property
    def cumulative_cost(self) -> float:
        return 0.0

    def make_result(
        self, config, source, destination, stats: SearchStats
    ) -> RunResult:
        return RunResult(
            source=source,
            destination=destination,
            algorithm=config.algorithm,
            estimator=config.estimator_name,
            stats=stats,
            variant=config.variant,
        )

    def assign_phase_costs(self, result: RunResult) -> None:
        pass


class RelationalBackend:
    """Adjacency served by the simulated INGRES over the S relation.

    ``begin_run`` resets the ledger and absorbs pending traffic epochs
    (the re-fetch I/O is part of this run's bill, surfaced as
    ``sync_cost``); ``neighbors`` is one optimizer-chosen join per
    call, billed through the shared :class:`IOStatistics`.
    """

    name = "relational"

    def __init__(self, rgraph) -> None:
        self.rgraph = rgraph
        self.graph = rgraph.graph
        self.stats = rgraph.stats
        # The fault injector (if any) rides on the database; faults at
        # retry-safe points — the epoch sync and the read-only adjacency
        # joins — are absorbed here with bounded backoff. Faults inside
        # the frontier policies' mutation steps are NOT retried: a
        # half-applied wave REPLACE is not idempotent, so those escape
        # to the service layer's degradation ladder instead.
        self.injector = getattr(rgraph.db, "injector", None)
        self._retries_start: dict = {}

    def begin_run(self) -> None:
        self.stats.reset()
        if self.injector is not None:
            self._retries_start = dict(self.injector.retries_by_phase)
            # Absorb any traffic epochs first: the run must price this
            # epoch's costs, and the re-fetch I/O is part of this run's
            # bill. sync() is fault-atomic (dirty set cleared only on
            # success), so retrying it is safe.
            self.injector.protect("traffic-sync", self.rgraph.sync)
        else:
            self.rgraph.sync()

    def phase(self, name: str):
        return self.stats.phase(name)

    def neighbors(self, outer: List[dict]) -> Tuple[List[dict], str]:
        if self.injector is not None:
            # The optimizer's joins are read-only (no temporaries), so
            # a faulted join can simply be re-run.
            joined, plan = self.injector.protect(
                "iterate", lambda: self.rgraph.adjacency_join(outer)
            )
        else:
            joined, plan = self.rgraph.adjacency_join(outer)
        return joined, plan.strategy_name

    @property
    def cumulative_cost(self) -> float:
        return self.stats.cost

    def make_result(
        self, config, source, destination, stats: SearchStats
    ) -> RelationalRunResult:
        return RelationalRunResult(
            algorithm=config.algorithm,
            variant=config.variant,
            source=source,
            destination=destination,
            io=self.stats,
            stats=stats,
        )

    def assign_phase_costs(self, result: RelationalRunResult) -> None:
        result.init_cost = self.stats.phase_cost("init")
        result.iteration_cost = self.stats.phase_cost("iterate")
        result.cleanup_cost = self.stats.phase_cost("cleanup")
        result.sync_cost = self.stats.phase_cost("traffic-sync")
        if self.injector is not None:
            # Per-phase retry deltas since begin_run: what THIS run
            # absorbed, not the injector's lifetime totals.
            current = self.injector.retries_by_phase
            delta = {
                phase: count - self._retries_start.get(phase, 0)
                for phase, count in current.items()
                if count - self._retries_start.get(phase, 0) > 0
            }
            if delta:
                result.retries_by_phase = delta


# ----------------------------------------------------------------------
# relational frontier-policy adapters
# ----------------------------------------------------------------------
class RelationalBestFirstPolicy:
    """Best-first over relations: Table 3's per-iteration steps 5-8.

    Wraps one of :mod:`repro.engine.frontier`'s two frontier
    realisations (status attribute or separate relation); the frontier
    object carries all the billed reads/writes, this adapter only
    sequences them in the kernel's vocabulary.
    """

    early_termination = True

    def __init__(self, rgraph, R, frontier) -> None:
        self.rgraph = rgraph
        self.R = R
        self.frontier = frontier

    def open_node(self, node_id, path_cost, predecessor) -> None:
        self.frontier.open_node(node_id, path_cost, predecessor)  # C4

    def select(self) -> Optional[dict]:
        return self.frontier.select_best()  # C5

    def close(self, selected: dict) -> None:
        self.frontier.close(selected)  # C6

    def expand(self, selected: dict, backend) -> dict:
        outer = [{k: v for k, v in selected.items() if k != "_rid"}]
        rows, strategy = backend.neighbors(outer)  # C7
        updates = 0
        for row in rows:  # C8
            neighbor = row["end"]
            new_cost = selected["path_cost"] + row["cost"]
            if self.frontier.relax(neighbor, new_cost, selected["node_id"]):
                updates += 1
        return {
            "expanded_nodes": 1,
            "join_result_tuples": len(rows),
            "join_strategy": strategy,
            "updates_applied": updates,
            "frontier_size_after": self.frontier.size(),
            "labels": ((selected["node_id"], selected["path_cost"]),),
        }

    def finalize(self, result, found, source, destination, backend) -> None:
        from repro.engine.frontier import SeparateRelationFrontier

        if found is not None:
            result.found = True
            result.cost = found["path_cost"]
            result.path = chase_path_pointers(
                self._read_label, source, destination, len(backend.graph)
            )
        self.rgraph.drop_node_relation(self.R)
        if isinstance(self.frontier, SeparateRelationFrontier):
            self.rgraph.db.drop_relation(self.frontier.F.name)

    def _read_label(self, node_id) -> Optional[dict]:
        from repro.engine.frontier import StatusAttributeFrontier

        if isinstance(self.frontier, StatusAttributeFrontier):
            return self.frontier.R.fetch_by_key(node_id)
        return self.frontier._read_node(node_id)


class RelationalWavePolicy:
    """The Iterative algorithm over relations: Table 2's steps 5-8.

    One selection is one wave — a scan of R for current nodes; one
    expansion is one set-oriented join plus one batch REPLACE pass plus
    the termination-test count scan, exactly the historical
    ``engine.rel_iterative`` sequence. Improvements apply at wave end
    as a batch (from the wave-start labels a single scan produced),
    where the in-memory wave propagates sequentially within a wave —
    a genuine tier difference the kernel preserves rather than papers
    over; on uniform-cost grids the two coincide.

    Every pass over R is charged in full, but the policy records the
    current rows itself — the source's, then the rows each REPLACE pass
    improved — so a step reads only the rows it returns or writes. R
    must hold no current row when the policy is built (a fresh R from
    ``fresh_node_relation``); every later status change goes through
    this object.
    """

    early_termination = False

    def __init__(self, rgraph, R) -> None:
        self.rgraph = rgraph
        self.R = R
        node_id = R.schema.position("node_id")
        # Where each node's label lives: bookkeeping read off R's pages,
        # not a charged access.
        self._rid_of = {
            row[node_id]: (page.page_no, slot)
            for page in R.heap.pages
            for slot, row in page.rows()
        }
        #: The current rows' record ids, in (page, slot) order.
        self._current: List[RecordId] = []

    def open_node(self, node_id, path_cost, predecessor) -> None:
        # C4: mark the start node current via a keyed replace.
        rid = self.R.isam.probe(node_id)
        if rid is None:
            raise PlannerError(f"source {node_id!r} missing from R")
        row = dict(self.R.read(rid))
        row.update(status=STATUS_CURRENT, path_cost=path_cost, path=predecessor)
        self.R.heap.update(rid, row)
        self._current = [rid]

    def select(self) -> Optional[List[dict]]:
        # Step 5: fetch all current nodes (a charged scan of R).
        for _page in self.R.heap.scan_pages():
            pass
        pages = self.R.heap.pages
        as_dict = self.R.schema.as_dict
        current = [
            as_dict(pages[page_no].slots[slot]) for page_no, slot in self._current
        ]
        return current or None

    def close(self, selected) -> None:  # pragma: no cover - never called
        raise AssertionError("wave frontiers are not closed per selection")

    def expand(self, selected: List[dict], backend) -> dict:
        # Step 6: one join fetches every current node's adjacency list.
        rows, strategy = backend.neighbors(selected)

        # Reduce the join result to the best improvement per neighbor
        # (CPU work on the materialised join output).
        best_improvement = {}
        for path_tuple in rows:
            neighbor = path_tuple["end"]
            new_cost = path_tuple["path_cost"] + path_tuple["cost"]
            prior = best_improvement.get(neighbor)
            if prior is None or new_cost < prior[0]:
                best_improvement[neighbor] = (
                    new_cost,
                    path_tuple["node_id"],
                )

        # Step 7: one set-oriented REPLACE pass applies the label
        # improvements and flips statuses (current -> closed,
        # improved -> current for the next wave). This is the
        # paper's batch update charged at 2 * B_r * t_update. Only the
        # current rows and the improvement targets can change.
        schema = self.R.schema
        as_dict = schema.as_dict
        node_id = schema.position("node_id")
        path_cost = schema.position("path_cost")
        status = schema.position("status")
        rid_of = self._rid_of
        candidates = set(self._current)
        candidates.update(
            rid_of[neighbor] for neighbor in best_improvement if neighbor in rid_of
        )
        improved = []

        def flip(row):
            improvement = best_improvement.get(row[node_id])
            if improvement is not None and row[path_cost] > improvement[0]:
                values = as_dict(row)
                values["path_cost"], values["path"] = improvement
                values["status"] = STATUS_CURRENT
                improved.append(row[node_id])
                return values
            if row[status] == STATUS_CURRENT:
                values = as_dict(row)
                values["status"] = STATUS_CLOSED
                return values
            return None

        self.R.heap.batch_update(flip, candidates)
        # The pass visits rows in (page, slot) order, so this is too.
        self._current = [rid_of[node] for node in improved]
        updates = len(improved)

        # Step 8: scan R to count current nodes (termination test). The
        # pass is charged in full; the rows current after step 7 are
        # exactly the ones flip improved, so the count is ``updates``.
        for _page in self.R.heap.scan_pages():
            pass

        return {
            "expanded_nodes": len(selected),
            "join_result_tuples": len(rows),
            "join_strategy": strategy,
            "updates_applied": updates,
            "frontier_size_after": updates,
            "labels": tuple(
                (entry["node_id"], entry["path_cost"]) for entry in selected
            ),
        }

    def finalize(self, result, found, source, destination, backend) -> None:
        label = self.R.fetch_by_key(destination)
        if label is not None and label["path_cost"] != float("inf"):
            result.found = True
            result.cost = label["path_cost"]
            result.path = chase_path_pointers(
                self.R.fetch_by_key, source, destination, len(backend.graph)
            )
        self.rgraph.drop_node_relation(self.R)


def chase_path_pointers(
    read_label, source, destination, node_count: int
) -> list:
    """Reconstruct the path by keyed fetches along R.path (step 10).

    ``read_label`` maps a node id to its R tuple (or None); each fetch
    is billed by the underlying relation at its access-path rate.
    """
    path = [destination]
    current = destination
    hops = 0
    while current != source:
        label = read_label(current)
        if label is None or label["path"] is None:
            raise PlannerError(
                f"path pointer chain broken at {current!r}"
            )
        current = label["path"]
        path.append(current)
        hops += 1
        if hops > node_count + 1:
            raise PlannerError("path pointer chain exceeds node count")
    path.reverse()
    return path
