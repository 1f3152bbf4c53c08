"""Seeded inputs for every workload.

All randomness of the benchmark lives here: one ``--seed`` names the
OD stream, the epoch schedule, the demand matrices and the incident
edges. The map itself is the paper's (``MAP_SEED``) for every seed:
maps of other seeds change the work of one run by more than the
benchmark's bounds. The program under test only ever receives the
generated values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graphs.roadmap import make_minneapolis_map

#: The Minneapolis map every workload runs on (the paper's seed).
MAP_SEED = 1993
#: Zipf exponent of OD popularity (a few hot origins and destinations).
ZIPF_ALPHA = 1.1
#: Share of serving requests that ask for ``algorithm="dijkstra"``.
DIJKSTRA_SHARE = 0.25
#: An incident epoch lands before every ``EPOCH_EVERY``-th request.
EPOCH_EVERY = 150
#: Edges re-priced per serving epoch.
EPOCH_EDGES = 16
#: Epoch costs are ``free_flow * uniform(*EPOCH_RANGE)``. The floor is
#: free flow: map costs equal Euclidean length, so a cost below free
#: flow would make the service's default A*/euclidean inadmissible.
EPOCH_RANGE = (1.0, 2.0)
#: Untimed warm-up prefix of the serving stream.
WARMUP_REQUESTS = 1200
#: Demand zones of each assignment matrix.
ASSIGN_ZONES = 12
#: Link capacity as a share of the busiest free-flow all-or-nothing
#: link volume. ``assign()`` defaults to 0.5, which on this map needs
#: from 28 to over 200 iterations to reach gap 1e-4 depending on the
#: matrix; 0.7 keeps every matrix congested but bounded.
CAPACITY_SHARE = 0.7
#: Origins of the standalone skim (destinations are all nodes).
SKIM_ORIGINS = 32
#: Commute routes that warm the assignment's subscribed service.
ASSIGN_WARM_ROUTES = 400
#: Extra off-route edges slowed by the relational incident epoch.
RELATIONAL_EXTRA_EDGES = 12

Edge = Tuple[object, object]
Update = Tuple[object, object, float]


def road_map():
    """A fresh copy of the Minneapolis map every workload runs on."""
    return make_minneapolis_map(MAP_SEED)


def edge_costs(graph) -> Dict[Edge, float]:
    """The current cost of every edge of ``graph``."""
    return {(edge.source, edge.target): edge.cost for edge in graph.edges()}


@dataclass(frozen=True)
class Request:
    source: object
    destination: object
    #: ``None`` asks for the service default (A*/euclidean).
    algorithm: Optional[str] = None


@dataclass
class ServingInputs:
    """One OD stream plus the epochs applied at fixed stream positions."""

    requests: List[Request]
    #: Stream position -> absolute cost updates applied before it.
    epochs: Dict[int, List[Update]] = field(default_factory=dict)


def _zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(count)]


def _epoch(rng: random.Random, base: Dict[Edge, float], edges: List[Edge],
           count: int) -> List[Update]:
    return [
        (u, v, base[(u, v)] * rng.uniform(*EPOCH_RANGE))
        for u, v in rng.sample(edges, count)
    ]


def serving_stream(seed: int, graph, length: int) -> ServingInputs:
    """The commute/fleet stream: Zipf OD pairs and periodic epochs.

    Self-pairs are redrawn: a route to where the traveller stands is
    trivial and would dilute the path-length mix.
    """
    rng = random.Random(seed * 7919 + 1)
    nodes = sorted(graph.node_ids())
    rng.shuffle(nodes)
    weights = _zipf_weights(len(nodes))
    requests: List[Request] = []
    while len(requests) < length:
        source, destination = rng.choices(nodes, weights=weights, k=2)
        if source == destination:
            continue
        algorithm = "dijkstra" if rng.random() < DIJKSTRA_SHARE else None
        requests.append(Request(source, destination, algorithm))
    base = edge_costs(graph)
    edges = sorted(base)
    epochs = {
        at: _epoch(rng, base, edges, EPOCH_EDGES)
        for at in range(EPOCH_EVERY, length, EPOCH_EVERY)
    }
    return ServingInputs(requests, epochs)


def demand_matrix(seed: int, index: int, graph) -> Dict[Edge, float]:
    """The ``index``-th dense ``ASSIGN_ZONES``-zone trip matrix of a seed."""
    rng = random.Random((seed * 7919 + 2) * 1009 + index)
    zones = rng.sample(sorted(graph.node_ids()), ASSIGN_ZONES)
    return {
        (origin, destination): float(rng.randint(20, 120))
        for origin in zones
        for destination in zones
        if origin != destination
    }


def capacity(demand: Dict[Edge, float], oracle) -> float:
    """``CAPACITY_SHARE`` of the busiest free-flow all-or-nothing volume."""
    volumes: Dict[Edge, float] = {}
    for (origin, destination), trips in demand.items():
        path = oracle.route(origin, destination)
        for edge in zip(path, path[1:]):
            volumes[edge] = volumes.get(edge, 0.0) + trips
    return CAPACITY_SHARE * max(volumes.values())


def skim_origins(seed: int, graph) -> List[object]:
    rng = random.Random(seed * 7919 + 3)
    return rng.sample(sorted(graph.node_ids()), SKIM_ORIGINS)


def incident(seed: int, graph, routes: List[List[object]]) -> List[Update]:
    """Slow one seeded edge of every route plus a few elsewhere.

    Touching each route guarantees the cached answers are evicted, so
    the post-incident pass runs cold and re-syncs the dirtied blocks.
    """
    rng = random.Random(seed * 7919 + 4)
    base = edge_costs(graph)
    chosen: List[Edge] = []
    for path in routes:
        edge = rng.choice(list(zip(path, path[1:])))
        if edge not in chosen:
            chosen.append(edge)
    others = [edge for edge in sorted(base) if edge not in chosen]
    chosen += rng.sample(others, RELATIONAL_EXTRA_EDGES)
    return [(u, v, base[(u, v)] * rng.uniform(1.2, 2.0)) for u, v in chosen]
