"""One exactness oracle for every harness: the exact-or-flagged contract.

Every answer a harness serves gets one :class:`Verdict` from an
:class:`Oracle`:

* ``exact`` — found-agreement with whole-graph Dijkstra at the current
  epoch, cost within :data:`TOLERANCE` of the optimum, and a path that
  walks real edges from source to destination to its reported cost;
* ``flagged`` — the answer says it is second-class (shed or degraded)
  and is counted, not priced;
* ``stale`` — not exact now, but exact at the previous epoch;
* ``inexact`` — exact at neither;
* ``dropped`` — no answer at all.

The reference is :func:`repro.kernel.loop.reference_sssp` over the
oracle's own copy of the graph, never the planner, cache or
accelerator under test: an auditor that re-runs the code it audits
shares that code's mistakes (an A* whose estimator stopped being a
lower bound agrees with itself). Trees are memoized per (epoch,
source), so one tree prices every destination a harness asks about.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.graphs.graph import Graph, NodeId
from repro.kernel.loop import reference_sssp

#: Relative and absolute cost tolerance. Stitched and cached answers
#: add the same edge costs as the reference in a different order, so
#: only float associativity noise is tolerated, never a model change.
TOLERANCE = 1e-9

Tree = Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]


class Verdict(NamedTuple):
    """The oracle's classification of one answer, with the reason."""

    kind: str
    detail: str = ""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


class Oracle:
    """Whole-graph reference trees at the current and previous epoch.

    ``graph`` is the live graph the harness mutates; call
    :meth:`observe_epoch` after every epoch applied to it so the
    oracle's copy follows.
    """

    def __init__(self, graph: Graph) -> None:
        self._live = graph
        self._epoch = 0
        self._snapshots: Dict[int, Graph] = {0: graph.copy()}
        self._trees: Dict[Tuple[int, NodeId], Tree] = {}

    @property
    def graph(self) -> Graph:
        """The oracle's copy of the graph at the current epoch."""
        return self._snapshots[self._epoch]

    def observe_epoch(self) -> None:
        """Copy the live graph as the new current epoch.

        The old current epoch becomes the previous one; anything older
        is dropped, trees included.
        """
        previous = self._epoch
        self._epoch += 1
        self._snapshots = {
            previous: self._snapshots[previous],
            self._epoch: self._live.copy(),
        }
        self._trees = {
            key: tree for key, tree in self._trees.items() if key[0] == previous
        }

    def tree(self, source: NodeId, previous: bool = False) -> Tree:
        """``(dist, pred)`` of :func:`reference_sssp` out of ``source``."""
        key = (self._epoch - previous, source)
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = reference_sssp(self._snapshots[key[0]], source)
        return tree

    def path(self, source: NodeId, destination: NodeId) -> Optional[List[NodeId]]:
        """The current reference tree's path, or None when unreachable."""
        _, pred = self.tree(source)
        if destination not in pred:
            return None
        path = [destination]
        while path[-1] != source:
            path.append(pred[path[-1]])
        path.reverse()
        return path

    def check(self, source: NodeId, destination: NodeId, answer) -> Verdict:
        """Classify ``answer`` (any result with ``found``/``cost``/``path``,
        or None for no answer) to the query ``source -> destination``."""
        if answer is None:
            return Verdict("dropped", f"{(source, destination)}: no answer")
        if getattr(answer, "shed", False) or getattr(answer, "degraded", False):
            return Verdict("flagged")
        complaint = self._complaint(False, source, destination, answer)
        if complaint is None:
            return Verdict("exact")
        if self._epoch and self._complaint(True, source, destination, answer) is None:
            return Verdict("stale", f"STALE {complaint}")
        return Verdict("inexact", complaint)

    def _complaint(
        self, previous: bool, source: NodeId, destination: NodeId, answer
    ) -> Optional[str]:
        """None when ``answer`` is exact at the chosen epoch, else why not."""
        key = (source, destination)
        dist, _ = self.tree(source, previous)
        found = bool(answer.found)
        if found != (destination in dist):
            return (
                f"{key}: found={found} but the reference says "
                f"found={destination in dist}"
            )
        if not found:
            return None
        optimal = dist[destination]
        if not _close(answer.cost, optimal):
            return f"{key}: cost {answer.cost!r} != optimal {optimal!r}"
        path = list(answer.path or ())
        if not path or path[0] != source or path[-1] != destination:
            return f"{key}: path endpoints wrong ({path[:2]}...{path[-2:]})"
        graph = self._snapshots[self._epoch - previous]
        walked = 0.0
        for here, there in zip(path, path[1:]):
            if not graph.has_edge(here, there):
                return f"{key}: path uses missing edge ({here!r} -> {there!r})"
            walked += graph.edge_cost(here, there)
        if not _close(walked, answer.cost):
            return f"{key}: path walks {walked!r} but cost says {answer.cost!r}"
        return None
