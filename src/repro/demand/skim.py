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
  shared side of the graph's :class:`~repro.graphs.gate.EpochGate`,
  as every route-service query is: a
  :class:`~repro.traffic.feed.TrafficFeed` epoch waits for the skim,
  so every cell of a returned :class:`SkimMatrix` is priced at the
  one fingerprint the matrix carries — never a mix.
* **Nothing silently dropped.** Unreachable pairs are reported as
  ``inf`` cells, not omitted; asking for an unknown origin or
  destination raises at the call.

With ``retain_paths=True`` the per-origin shortest-path trees are kept
dense — each origin's predecessor list over the dense node indexes of
the CSR snapshot its search ran on — which is what select-link analysis
and all-or-nothing assignment loading walk. The ``{node: predecessor}``
dict form (:attr:`SkimMatrix.trees`) is materialized only when read,
once per matrix. The tree path for any pair
is the exact route the single-pair search returns for it — both relax
edges in the same order — so skim answers are auditable cell-by-cell,
with ``==``, against the independent
:func:`~repro.kernel.loop.reference_sssp` (tests/test_demand.py and the
``repro.bench.demand`` benchmark hold the proofs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph, NodeId
from repro.kernel import csr as _csr
from repro.kernel.csr import CSRGraph

_INF = math.inf


@dataclass
class SkimMatrix:
    """A dense OD cost matrix priced at one graph fingerprint.

    ``costs[i][j]`` is the shortest-path cost from ``origins[i]`` to
    ``destinations[j]`` (``inf`` when unreachable). ``predecessors`` is
    ``None`` unless the skim retained paths; when present it maps each
    distinct origin to ``(snapshot, pred)``: the CSR snapshot its search
    ran on and the dense predecessor list over that snapshot's node
    indexes (``-1`` at the origin and at unreached nodes), as
    :func:`~repro.kernel.csr.sssp_tree` returns them.
    """

    graph_name: str
    fingerprint: Tuple[int, int]
    origins: Tuple[NodeId, ...]
    destinations: Tuple[NodeId, ...]
    costs: List[List[float]]
    #: Distinct one-to-all searches executed (duplicate origins share).
    sssp_runs: int = 0
    predecessors: Optional[Dict[NodeId, Tuple[CSRGraph, List[int]]]] = field(
        default=None, repr=False
    )
    _trees: Optional[Dict[NodeId, Dict[NodeId, Optional[NodeId]]]] = field(
        default=None, repr=False
    )
    _oindex: Dict[NodeId, int] = field(default_factory=dict, repr=False)
    _dindex: Dict[NodeId, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._oindex:
            self._oindex = {o: i for i, o in enumerate(self.origins)}
        if not self._dindex:
            self._dindex = {d: j for j, d in enumerate(self.destinations)}

    @property
    def trees(self) -> Optional[Dict[NodeId, Dict[NodeId, Optional[NodeId]]]]:
        """The retained trees as dicts, or ``None`` without retained paths.

        Maps each distinct origin to a predecessor map (``node ->
        predecessor``, origin mapped to ``None``) over every node the
        origin reaches. Materialized from :attr:`predecessors` on the
        first read and cached: a second read returns the same object.
        """
        if self.predecessors is None:
            return None
        if self._trees is None:
            trees = {}
            for origin, (snapshot, pred) in self.predecessors.items():
                node_ids = snapshot.node_ids
                tree: Dict[NodeId, Optional[NodeId]] = {origin: None}
                for i, p in enumerate(pred):
                    if p != -1:
                        tree[node_ids[i]] = node_ids[p]
                trees[origin] = tree
            self._trees = trees
        return self._trees

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
        if self.predecessors is None:
            raise ValueError(
                "this skim retained no path trees; re-run with "
                "retain_paths=True"
            )
        if self.cost(origin, destination) == _INF:
            return None
        snapshot, pred = self.predecessors[origin]
        node_ids = snapshot.node_ids
        s = snapshot.index_of[origin]
        v = snapshot.index_of[destination]
        path = [destination]
        while v != s:
            v = pred[v]
            path.append(node_ids[v])
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
        if self.predecessors is None:
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
    predecessors: Optional[Dict] = {} if retain_paths else None
    index_of = columns = None
    for origin in distinct_origins:
        csr, dist, pred = _csr.sssp_tree(graph, origin)
        if csr.index_of is not index_of:
            index_of = csr.index_of
            columns = [index_of[d] for d in destinations]
        rows[origin] = [dist[j] for j in columns]
        if retain_paths:
            predecessors[origin] = (csr, pred)
    return rows, predecessors


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
    the distinct searches actually executed. With ``retain_paths`` each
    search's dense predecessor list is kept as it came out of the
    search, with its snapshot (:attr:`SkimMatrix.predecessors`); no
    per-node dict is built unless :attr:`SkimMatrix.trees` is read.

    The returned matrix is single-epoch: every cell is priced at
    ``matrix.fingerprint``, because the pass holds the shared side of
    the graph's gate and an epoch arriving meanwhile waits for it.
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

    with graph.gate.shared():
        fingerprint = graph.fingerprint
        rows, predecessors = _skim_rows(graph, distinct, destination_list, retain_paths)

    return SkimMatrix(
        graph_name=graph.name,
        fingerprint=fingerprint,
        origins=tuple(origin_list),
        destinations=tuple(destination_list),
        costs=[list(rows[origin]) for origin in origin_list],
        sssp_runs=len(distinct),
        predecessors=predecessors,
    )
