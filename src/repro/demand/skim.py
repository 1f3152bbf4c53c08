"""OD skim matrices: batched one-to-all SSSP over the CSR tier.

The paper's experiments answer one OD query at a time; planning
workloads (aequilibrae's skimming examples, Chen & Gotsman's batch
fastest-path computations) ask the *many-to-many* question: the full
cost matrix between an origin set and a destination set. Answering it
with |O| x |D| point queries repeats almost all of the search work —
one Dijkstra from origin *o* already settles every destination. This
module amortises accordingly: :func:`skim` runs **one** one-to-all
SSSP per *distinct* origin over the fingerprint-cached CSR build and
slices the requested destination columns out of each completed tree.

Two guarantees shape the API:

* **Single-epoch pricing.** The whole matrix is computed under the
  same optimistic retry the route service uses: the graph fingerprint
  is read before the first SSSP and re-checked (with the
  epoch-in-progress flag) after the last. A skim that overlapped a
  :class:`~repro.traffic.feed.TrafficFeed` epoch is discarded and
  recomputed, so every cell of a returned :class:`SkimMatrix` is
  priced at the one fingerprint the matrix carries — never a mix.
* **Nothing silently dropped.** Unreachable pairs are reported as
  ``inf`` cells, not omitted; asking for an unknown origin or
  destination raises at the call.

With ``retain_paths=True`` the per-origin shortest-path trees are kept
(predecessor maps over node ids), which is what select-link analysis
and all-or-nothing assignment loading walk. The tree path for any pair
is the exact route the single-pair search returns for it — both relax
edges in the same order — so skim answers are auditable cell-by-cell,
with ``==``, against the independent
:func:`~repro.kernel.loop.reference_sssp` (tests/test_demand.py and the
``repro.bench.demand`` benchmark hold the proofs).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.kernel import csr as _csr

_INF = math.inf


@dataclass
class SkimMatrix:
    """A dense OD cost matrix priced at one graph fingerprint.

    ``costs[i][j]`` is the shortest-path cost from ``origins[i]`` to
    ``destinations[j]`` (``inf`` when unreachable). ``trees`` is
    ``None`` unless the skim retained paths; when present it maps each
    distinct origin to a predecessor map (``node -> predecessor``,
    origin mapped to ``None``) over every node the origin reaches.
    """

    graph_name: str
    fingerprint: Tuple[int, int]
    origins: Tuple[NodeId, ...]
    destinations: Tuple[NodeId, ...]
    costs: List[List[float]]
    trees: Optional[Dict[NodeId, Dict[NodeId, Optional[NodeId]]]] = None
    #: Distinct one-to-all searches executed (duplicate origins share).
    sssp_runs: int = 0
    #: Times the optimistic retry discarded an epoch-straddling pass.
    retries: int = 0
    _oindex: Dict[NodeId, int] = field(default_factory=dict, repr=False)
    _dindex: Dict[NodeId, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._oindex:
            self._oindex = {o: i for i, o in enumerate(self.origins)}
        if not self._dindex:
            self._dindex = {d: j for j, d in enumerate(self.destinations)}

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.origins), len(self.destinations))

    def cost(self, origin: NodeId, destination: NodeId) -> float:
        """The skimmed cost of one OD pair (``inf`` if unreachable)."""
        try:
            i = self._oindex[origin]
        except KeyError:
            raise NodeNotFoundError(origin) from None
        try:
            j = self._dindex[destination]
        except KeyError:
            raise NodeNotFoundError(destination) from None
        return self.costs[i][j]

    def row(self, origin: NodeId) -> Dict[NodeId, float]:
        """One origin's costs as ``{destination: cost}`` (inf included)."""
        i = self._oindex.get(origin)
        if i is None:
            raise NodeNotFoundError(origin)
        return dict(zip(self.destinations, self.costs[i]))

    def path(self, origin: NodeId, destination: NodeId) -> Optional[List[NodeId]]:
        """The retained tree path for one pair, or ``None`` if unreachable.

        Requires ``retain_paths=True`` at skim time; the walk is the
        same route the single-pair search returns for the pair.
        """
        if self.trees is None:
            raise ValueError(
                "this skim retained no path trees; re-run with "
                "retain_paths=True"
            )
        if self.cost(origin, destination) == _INF:
            return None
        if origin == destination:
            return [origin]
        tree = self.trees[origin]
        path = [destination]
        node = destination
        while node != origin:
            node = tree[node]
            path.append(node)
        path.reverse()
        return path

    def routes(self) -> Iterable[Tuple[NodeId, NodeId, Tuple]]:
        """Yield ``(origin, destination, edges)`` for every reachable pair.

        ``edges`` is the tuple of directed edges of the retained tree
        path — the route stream select-link inversion consumes. Pairs
        with ``origin == destination`` traverse no edges and are
        skipped; unreachable pairs are skipped (their cells stay
        ``inf`` in the matrix, nothing is lost).
        """
        if self.trees is None:
            raise ValueError(
                "this skim retained no path trees; re-run with "
                "retain_paths=True"
            )
        for i, origin in enumerate(self.origins):
            row = self.costs[i]
            for j, destination in enumerate(self.destinations):
                if origin == destination or row[j] == _INF:
                    continue
                path = self.path(origin, destination)
                yield origin, destination, tuple(zip(path, path[1:]))

    def unreachable_pairs(self) -> List[Tuple[NodeId, NodeId]]:
        """Every ``inf`` cell as an explicit OD-pair list."""
        out = []
        for i, origin in enumerate(self.origins):
            for j, destination in enumerate(self.destinations):
                if self.costs[i][j] == _INF:
                    out.append((origin, destination))
        return out

    def __repr__(self) -> str:
        rows, cols = self.shape
        return (
            f"SkimMatrix({self.graph_name!r}, {rows}x{cols}, "
            f"fingerprint={self.fingerprint})"
        )


def _skim_rows(
    graph: Graph,
    distinct_origins: Sequence[NodeId],
    destinations: Sequence[NodeId],
    retain_paths: bool,
) -> Tuple[Dict[NodeId, List[float]], Optional[Dict]]:
    rows: Dict[NodeId, List[float]] = {}
    trees: Optional[Dict] = {} if retain_paths else None
    for origin in distinct_origins:
        csr, dist, pred = _csr.sssp_tree(graph, origin)
        index_of = csr.index_of
        rows[origin] = [dist[index_of[d]] for d in destinations]
        if retain_paths:
            node_ids = csr.node_ids
            tree: Dict[NodeId, Optional[NodeId]] = {origin: None}
            for i, p in enumerate(pred):
                if p != -1:
                    tree[node_ids[i]] = node_ids[p]
            trees[origin] = tree
    return rows, trees


def skim(
    graph: Graph,
    origins: Iterable[NodeId],
    destinations: Optional[Iterable[NodeId]] = None,
    retain_paths: bool = False,
) -> SkimMatrix:
    """Compute the dense OD cost matrix ``origins`` x ``destinations``.

    ``destinations`` defaults to every node of the graph (the classic
    "skim against all zones" shape). The SSSPs share the
    fingerprint-keyed CSR build cache with the single-pair serving
    path. Duplicate origins (or destinations) are computed once and share
    their row (column); ``sssp_runs`` on the returned matrix counts
    the distinct searches actually executed.

    The returned matrix is guaranteed single-epoch: every cell is
    priced at ``matrix.fingerprint``. A pass that overlapped a traffic
    epoch is discarded and recomputed (counted in ``retries``).
    """
    origin_list: List[NodeId] = list(origins)
    for origin in origin_list:
        if origin not in graph:
            raise NodeNotFoundError(origin)
    if destinations is None:
        destination_list: List[NodeId] = list(graph.node_ids())
    else:
        destination_list = list(destinations)
        for destination in destination_list:
            if destination not in graph:
                raise NodeNotFoundError(destination)
    # Order-preserving dedup: each distinct origin runs one SSSP.
    distinct = list(dict.fromkeys(origin_list))

    retries = 0
    while True:
        # Wait out an in-progress epoch so the fingerprint we stamp on
        # the matrix describes a settled cost state.
        while graph.cost_update_in_progress:
            time.sleep(0)
        fingerprint = graph.fingerprint
        rows, trees = _skim_rows(graph, distinct, destination_list, retain_paths)
        if not graph.cost_update_in_progress and graph.fingerprint == fingerprint:
            break
        retries += 1

    return SkimMatrix(
        graph_name=graph.name,
        fingerprint=fingerprint,
        origins=tuple(origin_list),
        destinations=tuple(destination_list),
        costs=[list(rows[origin]) for origin in origin_list],
        trees=trees,
        sssp_runs=len(distinct),
        retries=retries,
    )
