"""Estimator functions f(u, d) for best-first search (Section 5.3.2).

An estimator guesses the cost of the cheapest remaining path from a
node ``u`` to the destination ``d``. The paper studies two concrete
estimators:

* **euclidean** — straight-line distance; "always underestimates the
  cost of the shortest path" when edge costs are at least the distance
  between their endpoints;
* **manhattan** — L1 distance; "a perfect estimate of the length of the
  shortest path between nodes in grid graphs with a uniform cost
  model", but *not* admissible on the Minneapolis data set, where A*
  version 3 therefore loses its optimality guarantee.

We add a zero estimator (turning A* into Dijkstra, useful for tests and
for the paper's remark that "best-first search without estimator
functions is not very different from Dijkstra's algorithm"), a scaling
wrapper (to study the optimality/speed trade-off named as future work),
and a landmark (ALT) estimator as a modern extension.
"""

from __future__ import annotations

import inspect
import math
from typing import Dict, Iterable, List, Optional, Protocol, Tuple

from repro.graphs.graph import Graph, NodeId


class Estimator(Protocol):
    """Protocol every estimator implements.

    An estimator may also offer a dense form, ``bind(csr, graph,
    destination)``: it returns ``h(i)``, a function of a dense node
    index into the CSR snapshot ``csr`` of ``graph``'s current state,
    whose value is exactly ``estimate(graph, csr.node_ids[i],
    destination)``. The fused A* loop reads every estimate through it
    (:func:`repro.kernel.csr.potential`) and wraps ``estimate`` for an
    estimator without one.
    """

    name: str

    def prepare(self, graph: Graph, destination: NodeId) -> None:
        """One-time setup per query (e.g. cache destination coords)."""
        ...

    def estimate(self, graph: Graph, node: NodeId, destination: NodeId) -> float:
        """Estimated remaining cost from ``node`` to ``destination``."""
        ...


def check_scale(value: float, what: str) -> float:
    """``value`` if it is a finite number ``>= 0``; else ValueError.

    NaN passes a ``value < 0`` test, and a NaN or infinite scale turns
    the estimate at the destination (distance 0) into NaN, so both are
    rejected with the negatives.
    """
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and non-negative, got {value!r}")
    return value


class ZeroEstimator:
    """f(u, d) = 0 — reduces A* to Dijkstra's algorithm."""

    name = "zero"

    def prepare(self, graph: Graph, destination: NodeId) -> None:
        return None

    def estimate(self, graph: Graph, node: NodeId, destination: NodeId) -> float:
        return 0.0

    def bind(self, csr, graph: Graph, destination: NodeId):
        return lambda i: 0.0

    def __repr__(self) -> str:
        return "ZeroEstimator()"


class EuclideanEstimator:
    """Straight-line distance between node coordinates, scaled.

    ``cost_per_unit`` converts geometric distance into edge-cost units:
    for distance-cost road maps it is 1.0; when edge costs are travel
    times it should be 1 / v_max (the fastest possible speed) to stay
    admissible.
    """

    name = "euclidean"

    def __init__(self, cost_per_unit: float = 1.0) -> None:
        self.cost_per_unit = check_scale(cost_per_unit, "cost_per_unit")
        self._dest_xy: Optional[tuple] = None
        self._prepared_key: Optional[Tuple[int, NodeId]] = None

    def prepare(self, graph: Graph, destination: NodeId) -> None:
        self._dest_xy = graph.coordinates(destination)
        self._prepared_key = (graph.uid, destination)

    def estimate(self, graph: Graph, node: NodeId, destination: NodeId) -> float:
        # Re-prepare whenever the cached coordinates belong to a
        # different destination (or graph) than the one being queried —
        # a reused instance must never estimate against a stale target.
        if self._prepared_key != (graph.uid, destination):
            self.prepare(graph, destination)
        x, y = graph.coordinates(node)
        dx, dy = self._dest_xy
        return self.cost_per_unit * math.hypot(x - dx, y - dy)

    def bind(self, csr, graph: Graph, destination: NodeId):
        xs, ys = csr.coordinates(graph)
        dx, dy = graph.coordinates(destination)
        cost_per_unit = self.cost_per_unit
        hypot = math.hypot
        return lambda i: cost_per_unit * hypot(xs[i] - dx, ys[i] - dy)

    def __repr__(self) -> str:
        return f"EuclideanEstimator(cost_per_unit={self.cost_per_unit})"


class ManhattanEstimator:
    """L1 (city-block) distance between node coordinates, scaled.

    Perfect on uniform-cost grids; *may overestimate* on general road
    maps (the paper's Minneapolis caveat), in which case A* can return
    sub-optimal paths. Such an answer is not flagged: no estimator
    declares whether it is a lower bound, and the planners return and
    cache the sub-optimal path as they would an exact one (ROADMAP
    item 2 tracks this).
    """

    name = "manhattan"

    def __init__(self, cost_per_unit: float = 1.0) -> None:
        self.cost_per_unit = check_scale(cost_per_unit, "cost_per_unit")
        self._dest_xy: Optional[tuple] = None
        self._prepared_key: Optional[Tuple[int, NodeId]] = None

    def prepare(self, graph: Graph, destination: NodeId) -> None:
        self._dest_xy = graph.coordinates(destination)
        self._prepared_key = (graph.uid, destination)

    def estimate(self, graph: Graph, node: NodeId, destination: NodeId) -> float:
        if self._prepared_key != (graph.uid, destination):
            self.prepare(graph, destination)
        x, y = graph.coordinates(node)
        dx, dy = self._dest_xy
        return self.cost_per_unit * (abs(x - dx) + abs(y - dy))

    def bind(self, csr, graph: Graph, destination: NodeId):
        xs, ys = csr.coordinates(graph)
        dx, dy = graph.coordinates(destination)
        cost_per_unit = self.cost_per_unit
        return lambda i: cost_per_unit * (abs(xs[i] - dx) + abs(ys[i] - dy))

    def __repr__(self) -> str:
        return f"ManhattanEstimator(cost_per_unit={self.cost_per_unit})"


class ScaledEstimator:
    """Multiply another estimator by a weight (weighted A*).

    A weight > 1 trades optimality for speed — the exact trade-off the
    paper flags for future work ("the tradeoff between optimality and
    speed may allow for sub-optimal algorithms to speed the
    processing"). Weight 1 leaves the inner estimator unchanged; weight
    0 yields Dijkstra.
    """

    def __init__(self, inner: Estimator, weight: float) -> None:
        self.inner = inner
        self.weight = check_scale(weight, "weight")
        self.name = f"{inner.name}*{weight:g}"

    def prepare(self, graph: Graph, destination: NodeId) -> None:
        self.inner.prepare(graph, destination)

    def estimate(self, graph: Graph, node: NodeId, destination: NodeId) -> float:
        return self.weight * self.inner.estimate(graph, node, destination)

    def bind(self, csr, graph: Graph, destination: NodeId):
        from repro.kernel.csr import potential

        inner = potential(self.inner, csr, graph, destination)
        weight = self.weight
        return lambda i: weight * inner(i)

    def __repr__(self) -> str:
        return f"ScaledEstimator({self.inner!r}, weight={self.weight})"


class LandmarkEstimator:
    """ALT (A*, Landmarks, Triangle inequality) estimator — an extension.

    Pre-computes exact shortest-path distances from a handful of
    landmark nodes to every node, then lower-bounds the remaining cost
    via the triangle inequality::

        dist(u, d) >= max_L |dist(L, d) - dist(L, u)|

    This is always admissible and consistent regardless of geometry, so
    it restores A*'s optimality guarantee on road maps where manhattan
    distance overestimates. Preprocessing runs one Dijkstra per
    landmark over the graph's CSR form and one over its transpose.

    ``landmarks`` is either an explicit iterable of node ids, or the
    string spec ``"farthest:k"`` requesting **farthest-point seeding**:
    at preprocess time ``k`` landmarks are chosen greedily, each new
    landmark being the node maximizing the minimum shortest-path
    distance to the landmarks already chosen (the classic 2-approximate
    k-center sweep). Selection is deterministic (ties break toward the
    smallest node id) and cheap: every selection SSSP runs through the
    shared CSR kernel and is kept as that landmark's forward distance
    table, so seeding costs one extra seed SSSP on top of the same
    one-forward-one-reverse SSSP per landmark an explicit list pays.
    """

    name = "landmark"

    def __init__(self, landmarks: "Iterable[NodeId] | str") -> None:
        self._farthest_count: Optional[int] = None
        if isinstance(landmarks, str):
            prefix, _, count_text = landmarks.partition(":")
            if prefix != "farthest" or not count_text:
                raise ValueError(
                    f"unknown landmark spec {landmarks!r}; expected "
                    "'farthest:k' (k >= 1) or an explicit iterable of "
                    "node ids"
                )
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(
                    f"bad landmark count in spec {landmarks!r}; "
                    "'farthest:k' needs an integer k >= 1"
                ) from None
            if count < 1:
                raise ValueError(
                    f"landmark spec {landmarks!r} requests {count} "
                    "landmarks; at least one is required"
                )
            self._farthest_count = count
            self.landmarks: List[NodeId] = []
        else:
            self.landmarks = list(landmarks)
            if not self.landmarks:
                raise ValueError("at least one landmark is required")
        self._from_landmark: Dict[NodeId, Dict[NodeId, float]] = {}
        self._to_landmark: Dict[NodeId, Dict[NodeId, float]] = {}
        # Keyed on Graph.fingerprint, NOT id(graph): id() values are
        # recycled after garbage collection, so a new graph allocated at
        # a reused address would silently read the old landmark tables.
        # The fingerprint also changes on edge-cost updates, which
        # invalidate the tables (they store exact distances).
        self._prepared_for: Optional[Tuple[int, int]] = None
        self._dest_bounds: List[tuple] = []
        self._dest_key: Optional[Tuple[Tuple[int, int], NodeId]] = None

    @staticmethod
    def _sssp(
        graph: Graph, source: NodeId, reverse: bool = False
    ) -> Dict[NodeId, float]:
        """Single-source distances through the shared kernel loop.

        Landmark-table builds use the same relaxation implementation as
        every planner (``repro.kernel.csr.sssp``) rather than a
        private inline Dijkstra; ``reverse`` runs it over the graph's
        CSR transpose, giving distances *to* ``source``.
        """
        from repro.kernel import csr

        return csr.sssp(graph, source, reverse)

    def _select_farthest(self, graph: Graph) -> None:
        """Greedy farthest-point sweep; fills landmarks + forward tables.

        The first landmark is the node farthest from a deterministic
        start (the smallest node id); each subsequent pick maximizes
        ``min`` distance to the chosen set, preferring unreachable
        nodes (covering another component counts as infinitely far).
        The SSSP run *for* each selection step doubles as that
        landmark's forward table, so seeding adds only the single
        seed-node SSSP beyond what :meth:`preprocess` pays for an
        explicit list.
        """
        nodes = sorted(node.node_id for node in graph.nodes())
        if not nodes:
            raise ValueError("cannot seed landmarks on an empty graph")
        count = min(self._farthest_count, len(nodes))
        seed_dist = self._sssp(graph, nodes[0])
        first, first_d = nodes[0], -1.0
        for node in nodes:
            d = seed_dist.get(node, -1.0)
            if d > first_d:
                first, first_d = node, d
        chosen = [first]
        tables = {
            first: seed_dist if first == nodes[0] else self._sssp(graph, first)
        }
        mindist = dict(tables[first])
        while len(chosen) < count:
            best, best_d = None, -1.0
            for node in nodes:
                if node in tables:
                    continue
                d = mindist.get(node, math.inf)
                if d > best_d:
                    best, best_d = node, d
            if best is None or best_d <= 0.0:
                break
            chosen.append(best)
            tables[best] = self._sssp(graph, best)
            for node, d in tables[best].items():
                if d < mindist.get(node, math.inf):
                    mindist[node] = d
        self.landmarks = chosen
        self._from_landmark = {mark: tables[mark] for mark in chosen}

    def preprocess(self, graph: Graph) -> None:
        """Run the per-landmark Dijkstras; call once per graph state.

        The to-landmark tables run over the snapshot's transpose, so one
        graph state costs one CSR build, not a second for a reversed
        copy of the graph.
        """
        if self._farthest_count is not None:
            # Re-select on every preprocess: distances (hence "farthest")
            # change with edge costs, and the selection SSSPs *are* the
            # forward tables, so re-seeding costs nothing extra.
            self._select_farthest(graph)
        else:
            self._from_landmark = {
                landmark: self._sssp(graph, landmark)
                for landmark in self.landmarks
            }
        self._to_landmark = {
            landmark: self._sssp(graph, landmark, reverse=True)
            for landmark in self.landmarks
        }
        self._prepared_for = graph.fingerprint

    def prepare(self, graph: Graph, destination: NodeId) -> None:
        if self._prepared_for != graph.fingerprint:
            self.preprocess(graph)
        self._dest_bounds = []
        for landmark in self.landmarks:
            d_ld = self._from_landmark[landmark].get(destination, math.inf)
            d_dl = self._to_landmark[landmark].get(destination, math.inf)
            self._dest_bounds.append((landmark, d_ld, d_dl))
        self._dest_key = (self._prepared_for, destination)

    def estimate(self, graph: Graph, node: NodeId, destination: NodeId) -> float:
        if self._dest_key != (graph.fingerprint, destination):
            self.prepare(graph, destination)
        best = 0.0
        for landmark, dist_l_dest, dist_dest_l in self._dest_bounds:
            dist_l_node = self._from_landmark[landmark].get(node, math.inf)
            dist_node_l = self._to_landmark[landmark].get(node, math.inf)
            # dist(node, dest) >= dist(L, dest) - dist(L, node)
            if math.isfinite(dist_l_dest) and math.isfinite(dist_l_node):
                best = max(best, dist_l_dest - dist_l_node)
            # dist(node, dest) >= dist(node, L) - dist(dest, L)
            if math.isfinite(dist_node_l) and math.isfinite(dist_dest_l):
                best = max(best, dist_node_l - dist_dest_l)
        return max(0.0, best)

    def __repr__(self) -> str:
        return f"LandmarkEstimator(landmarks={self.landmarks!r})"


_ESTIMATOR_FACTORIES = {
    "zero": ZeroEstimator,
    "euclidean": EuclideanEstimator,
    "manhattan": ManhattanEstimator,
    "landmark": LandmarkEstimator,
}


def make_estimator(name: str, weight: float = 1.0, **kwargs) -> Estimator:
    """Factory for the named estimators used throughout the experiments.

    Every estimator the codebase implements is constructible by name:
    ``zero`` / ``euclidean`` / ``manhattan`` (no required arguments) and
    ``landmark`` (requires ``landmarks=[...]``). A ``weight`` other than
    1.0 wraps the result in :class:`ScaledEstimator` (weighted A*), so
    CLI flags and experiment specs can name any estimator variant.

    Unknown estimator names and unknown keyword arguments both raise
    :class:`ValueError` listing what is accepted.
    """
    try:
        factory = _ESTIMATOR_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_ESTIMATOR_FACTORIES))
        raise ValueError(f"unknown estimator {name!r}; known: {known}") from None
    accepted = [
        parameter
        for parameter in inspect.signature(factory).parameters
        if parameter != "self"
    ]
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown keyword(s) {', '.join(map(repr, unknown))} for "
            f"estimator {name!r}; accepted: "
            f"{', '.join(map(repr, accepted)) or '(none)'} and 'weight'"
        )
    check_scale(weight, "weight")
    estimator: Estimator = factory(**kwargs)
    if weight != 1.0:
        estimator = ScaledEstimator(estimator, weight)
    return estimator
