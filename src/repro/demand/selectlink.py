"""Select-link analysis: which OD pairs traverse a given link, and
how much volume they put on it.

A skim answers "how much does each pair cost"; select-link answers the
planner's follow-up — "who is on this road". Given a set of directed
links and a demand matrix, the analysis inverts the route set: for
each link, the OD pairs whose shortest path crosses it and the demand
volume they contribute. The service layer answers the same question
from two sources through this one code path:

* **fresh path trees** — a :class:`~repro.demand.skim.SkimMatrix`
  computed with ``retain_paths=True`` streams ``(o, d, edges)`` routes;
* **cached routes** — :meth:`RouteCache.routes_crossing` reads the
  cache's inverted edge→route index (filtered to the current
  fingerprint) and yields the same shape.

Both feed :func:`link_flows`, so the select-link result is exactly the
dual of whichever route set priced the pairs. The exactness harness
audits it the brute-force way: re-deriving per-pair membership from
independent reference SSSP trees and comparing pair sets and volume
sums cell-for-cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.graphs.graph import NodeId

Edge = Tuple[NodeId, NodeId]
ODPair = Tuple[NodeId, NodeId]


@dataclass
class LinkFlow:
    """One link's share of the OD route set.

    ``pairs`` maps each OD pair whose route crosses the link to the
    demand volume it contributes (1.0 per pair when no demand matrix
    is supplied — a pure membership census).
    """

    link: Edge
    pairs: Dict[ODPair, float] = field(default_factory=dict)

    @property
    def volume(self) -> float:
        """Total demand crossing the link."""
        return sum(self.pairs.values())

    @property
    def pair_count(self) -> int:
        return len(self.pairs)


@dataclass
class SelectLinkResult:
    """Select-link flows for a link set at one graph fingerprint."""

    fingerprint: Tuple[int, int]
    source: str  # "skim" or "cache" — which route set answered
    flows: Dict[Edge, LinkFlow]
    #: Routes examined to build the flows.
    routes_seen: int = 0

    def flow(self, link: Edge) -> LinkFlow:
        try:
            return self.flows[link]
        except KeyError:
            raise KeyError(f"link {link!r} was not part of this analysis") from None

    @property
    def links(self) -> Tuple[Edge, ...]:
        return tuple(self.flows)

    @property
    def total_volume(self) -> float:
        return sum(f.volume for f in self.flows.values())

    def summary(self) -> Dict[str, float]:
        return {
            "links": float(len(self.flows)),
            "routes_seen": float(self.routes_seen),
            "total_volume": self.total_volume,
        }


def link_flows(
    routes: Iterable[Tuple[NodeId, NodeId, Tuple[Edge, ...]]],
    links: Iterable[Edge],
    demand: Optional[Mapping[ODPair, float]] = None,
) -> Dict[Edge, LinkFlow]:
    """Invert a route stream onto a link set.

    ``routes`` yields ``(origin, destination, edges)`` triples — the
    shape both :meth:`SkimMatrix.routes` and the cache's
    ``routes_crossing`` produce. ``demand`` maps OD pairs to volumes;
    pairs absent from it contribute 1.0 (membership census). Every
    requested link gets a :class:`LinkFlow`, empty when nothing
    crosses it — links are never silently dropped.
    """
    wanted = {tuple(link): LinkFlow(link=tuple(link)) for link in links}
    for origin, destination, edges in routes:
        weight = 1.0 if demand is None else demand.get((origin, destination), 1.0)
        for edge in edges:
            flow = wanted.get(edge)
            if flow is not None:
                flow.pairs[(origin, destination)] = weight
    return wanted


def select_link(
    matrix,
    links: Iterable[Edge],
    demand: Optional[Mapping[ODPair, float]] = None,
) -> SelectLinkResult:
    """Select-link analysis over a path-retaining skim matrix.

    ``matrix`` must have been skimmed with ``retain_paths=True``. The
    result is priced at the matrix's fingerprint: the pair sets and
    volumes describe shortest paths under exactly that cost state.
    """
    link_list: List[Edge] = [tuple(link) for link in links]
    routes_seen = 0

    def counted():
        nonlocal routes_seen
        for triple in matrix.routes():
            routes_seen += 1
            yield triple

    flows = link_flows(counted(), link_list, demand)
    return SelectLinkResult(
        fingerprint=matrix.fingerprint,
        source="skim",
        flows=flows,
        routes_seen=routes_seen,
    )
