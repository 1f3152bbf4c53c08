"""One exact-or-flagged audit shared by every workload.

The oracle is a plain Dijkstra over the benchmark's own copy of the
edge costs, independent of the program's kernels and caches. Epochs
are applied at quiesced points, so every answer's epoch is known from
its stream position and the oracle replays exactly that state.

Every attempted operation lands in one class: ``exact``, or one of the
failures ``inexact`` (wrong cost or an invalid path), ``stale`` (exact
for the previous epoch only), ``dropped`` (no answer), ``shed``
(refused with a flag) and ``errored`` (raised). The audit runs after
the timed region.
"""

from __future__ import annotations

import copy
import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

REL_TOL = 1e-9
ABS_TOL = 1e-9
FAILURES = ("inexact", "stale", "dropped", "shed", "errored")


@dataclass
class Answer:
    """What the program returned for one request, in neutral form."""

    found: bool = False
    cost: float = math.inf
    path: List[object] = field(default_factory=list)
    shed: bool = False
    error: Optional[str] = None


@dataclass
class AuditReport:
    attempted: int = 0
    counts: Counter = field(default_factory=Counter)
    samples: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.counts[kind] for kind in FAILURES)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail(self, kind: str, detail: str) -> None:
        self.counts[kind] += 1
        if len(self.samples) < 8:
            self.samples.append(f"{kind}: {detail}")

    def merge(self, other: "AuditReport") -> None:
        self.attempted += other.attempted
        self.counts.update(other.counts)
        self.samples.extend(other.samples[: 8 - len(self.samples)])


class Oracle:
    """Whole-graph Dijkstra over a private, mutable copy of the costs.

    Nodes and edges are numbered once; ``weights`` is the only state an
    epoch changes, so :meth:`copy` is one list copy.
    """

    def __init__(self, costs: Mapping[Tuple[object, object], float]) -> None:
        self.index: Dict[object, int] = {}
        for edge in costs:
            for node in edge:
                self.index.setdefault(node, len(self.index))
        self.nodes = list(self.index)
        self.edge_id: Dict[Tuple[object, object], int] = {}
        self.weights: List[float] = []
        self.out: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
        for (u, v), cost in costs.items():
            self.edge_id[(u, v)] = len(self.weights)
            self.out[self.index[u]].append((self.index[v], len(self.weights)))
            self.weights.append(cost)

    def copy(self) -> "Oracle":
        twin = copy.copy(self)
        twin.weights = list(self.weights)
        return twin

    def apply(self, updates: Iterable[Tuple[object, object, float]]) -> None:
        for u, v, cost in updates:
            self.weights[self.edge_id[(u, v)]] = cost

    def _search(self, source, targets: Optional[Iterable[object]]):
        out, weights = self.out, self.weights
        dist = [math.inf] * len(self.nodes)
        pred = [-1] * len(self.nodes)
        done = bytearray(len(self.nodes))
        start = self.index[source]
        dist[start] = 0.0
        heap = [(0.0, start)]
        pending = None if targets is None else {self.index[t] for t in targets}
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            if pending is not None:
                pending.discard(u)
                if not pending:
                    break
            for v, edge in out[u]:
                nd = d + weights[edge]
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
        return dist, pred, done

    def distances(self, source, targets: Optional[Iterable[object]] = None) -> Dict[object, float]:
        """Settled distances from ``source``; stops once ``targets`` settle."""
        dist, _pred, done = self._search(source, targets)
        return {self.nodes[i]: dist[i] for i in range(len(dist)) if done[i]}

    def route(self, source, destination) -> List[object]:
        """One shortest path from ``source`` to ``destination``."""
        _dist, pred, _done = self._search(source, [destination])
        path = [self.index[destination]]
        while path[-1] != self.index[source]:
            path.append(pred[path[-1]])
        return [self.nodes[i] for i in reversed(path)]

    def complaint(self, source, destination, answer: Answer,
                  dist: Mapping[object, float]) -> Optional[str]:
        """None when ``answer`` is exact against ``dist`` (from ``source``)."""
        reference = dist.get(destination, math.inf)
        found = reference < math.inf
        where = f"{source!r}->{destination!r}"
        if answer.found != found:
            return f"{where}: found={answer.found}, oracle says {found}"
        if not found:
            return None
        if not math.isclose(answer.cost, reference, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{where}: cost {answer.cost!r} != optimal {reference!r}"
        path = answer.path
        if not path or path[0] != source or path[-1] != destination:
            return f"{where}: path endpoints wrong"
        walked = 0.0
        for edge in zip(path, path[1:]):
            if edge not in self.edge_id:
                return f"{where}: path uses missing edge {edge!r}"
            walked += self.weights[self.edge_id[edge]]
        if not math.isclose(walked, answer.cost, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{where}: path walks {walked!r}, cost says {answer.cost!r}"
        return None


def classify(report: AuditReport, answer: Optional[Answer], where: str) -> bool:
    """Count a missing, shed or errored answer; True if it needs pricing."""
    report.attempted += 1
    if answer is None:
        report.fail("dropped", where)
    elif answer.error is not None:
        report.fail("errored", f"{where}: {answer.error}")
    elif answer.shed:
        report.fail("shed", where)
    else:
        return True
    return False


def audit_stream(free_flow_costs, requests, epochs: Dict[int, list],
                 log: List[int], answers: Mapping[int, Answer],
                 epoch_of: Mapping[int, int], positions: Iterable[int],
                 hops: Optional[Dict[int, int]] = None) -> AuditReport:
    """Price every stream position on the state it was served at.

    ``epochs`` maps a stream position to its updates, ``log`` lists the
    positions whose epochs were applied, in order, and ``epoch_of``
    says how many of them preceded each request. ``hops`` (optional)
    receives the edge count of each exact answer, for path-length
    strata.
    """
    report = AuditReport()
    oracle = Oracle(free_flow_costs)
    previous: Optional[Oracle] = None
    by_epoch: Dict[int, List[int]] = defaultdict(list)
    for position in positions:
        by_epoch[epoch_of.get(position, 0)].append(position)
    for index in range(len(log) + 1):
        if index:
            previous = oracle.copy()
            oracle.apply(epochs[log[index - 1]])
        by_source: Dict[object, List[int]] = defaultdict(list)
        for position in by_epoch.get(index, ()):
            where = f"request {position}"
            if classify(report, answers.get(position), where):
                by_source[requests[position].source].append(position)
        for source, group in by_source.items():
            targets = {requests[p].destination for p in group}
            dist = oracle.distances(source, targets)
            for position in group:
                destination = requests[position].destination
                answer = answers[position]
                complaint = oracle.complaint(source, destination, answer, dist)
                if complaint is None:
                    report.counts["exact"] += 1
                    if hops is not None:
                        hops[position] = len(answer.path) - 1
                    continue
                stale = previous is not None and previous.complaint(
                    source, destination, answer,
                    previous.distances(source, {destination}),
                ) is None
                report.fail("stale" if stale else "inexact",
                            f"request {position} (epoch {index}): {complaint}")
    return report
