"""Iterative traffic assignment: load an OD demand matrix to equilibrium.

This closes the planning ↔ congestion loop the roadmap calls for. One
iteration of the classic convex-combination scheme:

1. **Re-price.** Each link's congested travel time is the BPR curve
   ``t = t0 * (1 + alpha * (v / c) ** beta)`` evaluated at the current
   link volumes. The new costs go through
   :meth:`TrafficFeed.apply <repro.traffic.feed.TrafficFeed.apply>` as
   one epoch — so route caches invalidate, accelerators re-customize,
   and subscribed services see the congestion exactly the way they see
   sensor updates.
2. **All-or-nothing load.** A path-retaining
   :func:`~repro.demand.skim.skim` prices every OD pair at the new
   epoch; walking each pair's tree path with its demand yields the AON
   volumes ``y`` and, as a by-product, the shortest-path cost bound
   ``sum(q * mu)``.
3. **Converge or step.** The relative gap
   ``(sum(v * t) - sum(q * mu)) / sum(q * mu)`` is the standard
   excess-cost measure (zero exactly at user equilibrium, by
   construction of the AON bound). Below tolerance: stop. Otherwise
   move ``v`` toward ``y`` — MSA uses the predetermined ``1/k`` step,
   Frank-Wolfe picks the step by bisection on the line-search
   derivative ``g(lam) = sum((y - v) * t(v + lam * (y - v)))``.

Volumes stay a convex combination of AON loadings throughout, which is
what makes node-level flow conservation an invariant at *every*
iteration (each AON loading conserves demand pair-by-pair; convex
combinations preserve the balance) — the property suite holds the
proof. The ``auditor`` hook hands every iteration's skim to an
independent checker before it is loaded; the bench harness uses it to
re-derive each iteration's prices with the whole-graph reference SSSP
and refuses to report unless every iteration audited exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.kernel.csr import CSRGraph
from repro.traffic.feed import TrafficFeed

from repro.demand.skim import SkimMatrix, skim

Edge = Tuple[NodeId, NodeId]
ODPair = Tuple[NodeId, NodeId]

#: Step-size schemes :func:`assign` accepts.
ASSIGNMENT_METHODS = ("fw", "msa")


@dataclass(frozen=True)
class BPRParams:
    """Bureau of Public Roads volume-delay curve parameters."""

    alpha: float = 0.15
    beta: float = 4.0

    def travel_time(self, free_flow: float, volume: float, capacity: float) -> float:
        """Congested time of one link at ``volume`` against ``capacity``."""
        return free_flow * (1.0 + self.alpha * (volume / capacity) ** self.beta)


@dataclass
class AssignmentIteration:
    """One iteration's record: gap, step, and the epoch it priced."""

    number: int
    fingerprint: Tuple[int, int]
    relative_gap: float
    step: float
    current_cost: float  #: sum(v * t) under this iteration's prices
    aon_cost: float  #: sum(q * mu) — the shortest-path lower bound
    volumes: Optional[Dict[Edge, float]] = None  #: kept when record_volumes


@dataclass
class AssignmentResult:
    """Equilibrium assignment outcome: volumes, prices, trajectory."""

    graph_name: str
    method: str
    converged: bool
    relative_gap: float
    tolerance: float
    volumes: Dict[Edge, float]
    costs: Dict[Edge, float]  #: final congested link times
    free_flow: Dict[Edge, float]
    capacity: Dict[Edge, float]
    demand_total: float
    iterations: List[AssignmentIteration] = field(default_factory=list)
    epochs_applied: int = 0
    sssp_runs: int = 0

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    def conservation_residual(self, demand: Mapping[ODPair, float]) -> float:
        """Max node imbalance between link flows and the demand matrix.

        For every node ``n`` the assigned net outflow
        ``sum(out-volumes) - sum(in-volumes)`` must equal the demand
        net supply ``sum(q[n, d]) - sum(q[o, n])``. Returns the
        largest absolute violation — zero (to float addition) for any
        convex combination of all-or-nothing loadings.
        """
        net: Dict[NodeId, float] = {}
        for (u, v), volume in self.volumes.items():
            net[u] = net.get(u, 0.0) + volume
            net[v] = net.get(v, 0.0) - volume
        for (o, d), q in demand.items():
            if o == d:
                continue
            net[o] = net.get(o, 0.0) - q
            net[d] = net.get(d, 0.0) + q
        return max((abs(x) for x in net.values()), default=0.0)

    def summary(self) -> Dict[str, float]:
        return {
            "iterations": float(self.iteration_count),
            "converged": float(self.converged),
            "relative_gap": self.relative_gap,
            "demand_total": self.demand_total,
            "epochs_applied": float(self.epochs_applied),
            "sssp_runs": float(self.sssp_runs),
        }


def _validate_demand(
    graph: Graph, demand: Mapping[ODPair, float]
) -> Dict[ODPair, float]:
    cleaned: Dict[ODPair, float] = {}
    for (origin, destination), volume in demand.items():
        if origin not in graph:
            raise NodeNotFoundError(origin)
        if destination not in graph:
            raise NodeNotFoundError(destination)
        if not isinstance(volume, (int, float)) or not math.isfinite(volume):
            raise ValueError(
                f"demand for {(origin, destination)!r} must be a finite "
                f"number, got {volume!r}"
            )
        if volume < 0:
            raise ValueError(
                f"demand for {(origin, destination)!r} is negative: {volume!r}"
            )
        if volume == 0 or origin == destination:
            continue  # loads nothing; keep the matrix but skip the work
        cleaned[(origin, destination)] = float(volume)
    return cleaned


def _positive(value: object) -> bool:
    """True for a number above zero. NaN fails ``value > 0`` (it would
    pass a ``value <= 0`` check), and a ``bool`` is not a capacity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value > 0
    )


def _capacities(
    capacity: Union[float, Mapping[Edge, float]], edges: List[Edge]
) -> List[float]:
    """Per-edge capacities in ``edges`` order, validated before any epoch."""
    if not isinstance(capacity, Mapping):
        if not _positive(capacity):
            raise ValueError(f"capacity must be a positive number, got {capacity!r}")
        return [float(capacity)] * len(edges)
    caps = []
    for edge in edges:
        cap = capacity.get(edge)
        if not _positive(cap):
            raise ValueError(
                f"capacity mapping must cover every edge with a "
                f"positive value; bad entry for {edge!r}: {cap!r}"
            )
        caps.append(float(cap))
    return caps


def _aon_load(
    matrix: SkimMatrix,
    demand: Mapping[ODPair, float],
    edge_count: int,
    slot_edges: Callable[[CSRGraph], List[int]],
) -> Tuple[List[float], float]:
    """Walk each pair's dense tree path; return (AON volumes, sum(q * mu)).

    The volumes are a flat list indexed like ``edges``; ``slot_edges``
    maps a snapshot's CSR slots to those indexes. Pairs are loaded in
    ``demand`` order, so each edge's volume is the same sequence of
    ``+=`` whatever order the walk visits a path's edges in.
    """
    volumes = [0.0] * edge_count
    bound = 0.0
    predecessors = matrix.predecessors
    for (origin, destination), q in demand.items():
        mu = matrix.cost(origin, destination)
        if mu == math.inf:
            raise ValueError(
                f"demand pair {(origin, destination)!r} is unreachable at "
                f"fingerprint {matrix.fingerprint}; cannot assign "
                f"{q!r} units"
            )
        bound += q * mu
        snapshot, pred = predecessors[origin]
        edge_of = slot_edges(snapshot)
        indptr = snapshot.indptr_list
        indices = snapshot.indices_list
        s = snapshot.index_of[origin]
        v = snapshot.index_of[destination]
        while v != s:
            u = pred[v]
            k = indptr[u]
            while indices[k] != v:
                k += 1
            volumes[edge_of[k]] += q
            v = u
    return volumes, bound


def assign(
    graph: Graph,
    demand: Mapping[ODPair, float],
    feed: Optional[TrafficFeed] = None,
    method: str = "fw",
    capacity: Optional[Union[float, Mapping[Edge, float]]] = None,
    bpr: BPRParams = BPRParams(),
    max_iterations: int = 100,
    tolerance: float = 1e-4,
    auditor: Optional[Callable[[int, Graph, SkimMatrix, Dict[Edge, float]], None]] = None,
    record_volumes: bool = False,
) -> AssignmentResult:
    """Assign an OD ``demand`` matrix to user equilibrium on ``graph``.

    ``feed`` is the traffic feed congestion prices flow through and
    must be built over ``graph``; when omitted a private feed is built
    over the graph (its free-flow baseline is the graph's current
    costs). ``capacity`` is a per-link mapping or one scalar for every
    link, each a positive number; when omitted it defaults to half the
    largest free-flow all-or-nothing link volume — enough to congest
    the corridors the unpriced shortest paths pile onto. A bad feed or
    capacity raises ``ValueError`` before the first epoch.
    ``method`` picks the step size: ``"fw"`` (Frank-Wolfe, bisection
    line search — the default) or ``"msa"`` (successive averages,
    ``1/k``). ``auditor``, when given, is called as
    ``auditor(iteration, graph, matrix, aon_volumes)`` after every
    all-or-nothing load and may raise to abort the run.

    The graph is left priced at the final congested epoch — exactly
    the state a subscribed :class:`RouteService` is now serving.
    """
    if method not in ASSIGNMENT_METHODS:
        raise ValueError(
            f"unknown assignment method {method!r}; expected one of "
            f"{', '.join(ASSIGNMENT_METHODS)}"
        )
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    loaded = _validate_demand(graph, demand)
    if feed is None:
        feed = TrafficFeed(graph)
    elif feed.graph is not graph:
        raise ValueError(
            f"feed re-prices graph {feed.graph.name!r}, not the graph "
            f"being assigned ({graph.name!r}); pass a feed built over it"
        )

    # Per-edge state lives in flat lists indexed like ``edges``.
    edges: List[Edge] = [(e.source, e.target) for e in graph.edges()]
    free_flow: List[float] = [feed.base_cost(u, v) for u, v in edges]
    caps = None if capacity is None else _capacities(capacity, edges)
    origins = sorted({o for o, _ in loaded})
    destinations = sorted({d for _, d in loaded})
    alpha, beta = bpr.alpha, bpr.beta
    position = {edge: i for i, edge in enumerate(edges)}
    topology: Optional[List[int]] = None
    slot_to_edge: List[int] = []

    def slot_edges(snapshot: CSRGraph) -> List[int]:
        """The ``edges`` index of every CSR slot, built once per topology."""
        nonlocal topology, slot_to_edge
        if snapshot.indices_list is not topology:
            node_ids = snapshot.node_ids
            topology = snapshot.indices_list
            slot_to_edge = [
                position[node_ids[u], node_ids[v]]
                for u, row in enumerate(snapshot.rows)
                for v, _ in row
            ]
        return slot_to_edge

    def reprice(volumes: List[float]) -> List[float]:
        """Apply the BPR times at ``volumes`` as one epoch; return them.

        The formula is :meth:`BPRParams.travel_time`'s, inlined in the
        same operation order, so every time is the same float.
        """
        times = [
            t0 * (1.0 + alpha * (x / c) ** beta)
            for t0, x, c in zip(free_flow, volumes, caps)
        ]
        feed.apply([(u, v, t) for (u, v), t in zip(edges, times)])
        return times

    def load_at_current_prices(iteration: int) -> Tuple[SkimMatrix, List[float], float]:
        matrix = skim(graph, origins, destinations, retain_paths=True)
        aon, bound = _aon_load(matrix, loaded, len(edges), slot_edges)
        if auditor is not None:
            auditor(iteration, graph, matrix, dict(zip(edges, aon)))
        return matrix, aon, bound

    def snapshot(volumes: List[float]) -> Optional[Dict[Edge, float]]:
        return dict(zip(edges, volumes)) if record_volumes else None

    sssp_runs = 0
    epochs_before = feed.epoch_count
    iterations: List[AssignmentIteration] = []

    # Iteration 1: price at free flow, load all-or-nothing.
    feed.apply([(u, v, t0) for (u, v), t0 in zip(edges, free_flow)])
    matrix, volumes, bound = load_at_current_prices(1)
    sssp_runs += matrix.sssp_runs
    demand_total = sum(loaded.values())

    if caps is None:
        # Congest what the free-flow shortest paths actually use: half
        # the busiest AON link volume, uniformly.
        busiest = max(volumes, default=0.0)
        caps = [max(busiest * 0.5, 1.0)] * len(edges)

    iterations.append(
        AssignmentIteration(
            number=1,
            fingerprint=matrix.fingerprint,
            relative_gap=math.inf,
            step=1.0,
            current_cost=bound,
            aon_cost=bound,
            volumes=snapshot(volumes),
        )
    )

    converged = not loaded  # empty demand is trivially at equilibrium
    gap = 0.0 if converged else math.inf

    def line_search(volumes: List[float], direction: List[float]) -> float:
        """Bisect g(lam) = sum(d * t(v + lam * d)) for its root in (0, 1].

        ``g`` walks only the edges with a nonzero direction, in
        ``edges`` order: the steps it finds depend on the order of its
        ``+=``, down to the last bit.
        """
        moving = [
            (d, t0, x, c)
            for d, t0, x, c in zip(direction, free_flow, volumes, caps)
            if d != 0.0
        ]

        def g(lam: float) -> float:
            total = 0.0
            for d, t0, x, c in moving:
                total += d * (t0 * (1.0 + alpha * ((x + lam * d) / c) ** beta))
            return total

        lo, hi = 0.0, 1.0
        if g(1.0) <= 0.0:
            return 1.0  # still descending at the far end: take the full step
        for _ in range(48):
            mid = (lo + hi) / 2.0
            if g(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        return max(lo, 1e-12)

    iteration = 1
    while loaded and iteration < max_iterations:
        iteration += 1
        times = reprice(volumes)
        matrix, aon, bound = load_at_current_prices(iteration)
        sssp_runs += matrix.sssp_runs
        current_cost = sum(x * t for x, t in zip(volumes, times))
        gap = (current_cost - bound) / bound if bound > 0 else 0.0
        if gap <= tolerance:
            converged = True
            iterations.append(
                AssignmentIteration(
                    number=iteration,
                    fingerprint=matrix.fingerprint,
                    relative_gap=gap,
                    step=0.0,
                    current_cost=current_cost,
                    aon_cost=bound,
                    volumes=snapshot(volumes),
                )
            )
            break
        direction = [y - x for y, x in zip(aon, volumes)]
        step = 1.0 / iteration if method == "msa" else line_search(volumes, direction)
        volumes = [x + step * d for x, d in zip(volumes, direction)]
        iterations.append(
            AssignmentIteration(
                number=iteration,
                fingerprint=matrix.fingerprint,
                relative_gap=gap,
                step=step,
                current_cost=current_cost,
                aon_cost=bound,
                volumes=snapshot(volumes),
            )
        )

    # Leave the graph priced at the volumes we are reporting.
    times = reprice(volumes)
    return AssignmentResult(
        graph_name=graph.name,
        method=method,
        converged=converged,
        relative_gap=gap,
        tolerance=tolerance,
        volumes=dict(zip(edges, volumes)),
        costs=dict(zip(edges, times)),
        free_flow=dict(zip(edges, free_flow)),
        capacity=dict(zip(edges, caps)),
        demand_total=demand_total,
        iterations=iterations,
        epochs_applied=feed.epoch_count - epochs_before,
        sssp_runs=sssp_runs,
    )
