"""A*'s answers and counters on the paper's map, pinned.

Every digest below was recorded from ``kernel.search(..., "astar")``
while the fused loop still read each estimate through
``estimator.estimate``. A change to how the loop obtains its
potentials must not move a single float or counter: each case pins the
sha256 of the ``repr`` of every search's path, cost and all
:class:`~repro.kernel.result.SearchStats` counters, over 300 seeded
pairs on ``make_minneapolis_map(1993)``.

Each estimator runs at free flow and again after three seeded epochs
that raise 5% of the edges' costs each, so the epoch case searches a
derived CSR snapshot (rows patched, topology shared).
"""

import hashlib
import random

import pytest

from repro.core.estimators import make_estimator
from repro.graphs.roadmap import make_minneapolis_map
from repro.kernel import search

PAIRS = 300
EPOCHS = 3
EPOCH_SHARE = 0.05

ESTIMATORS = {
    "euclidean": lambda: make_estimator("euclidean"),
    "manhattan": lambda: make_estimator("manhattan"),
    "euclidean*1.5": lambda: make_estimator("euclidean", weight=1.5),
}

DIGESTS = {
    ("euclidean", "free-flow"):
        "1339d5cc5f3a79c4cdd92b8d59d42ffe9ef475c7814de6ed00367bbdf0db1802",
    ("manhattan", "free-flow"):
        "919a8ae2ca8b7f6082e5f8dca211017207d3508b4b3d4bfb09ba7506986fea94",
    ("euclidean*1.5", "free-flow"):
        "f3825d3577f22efcd15f122500310db10295fcf3cbf644f0e800fc5a049158b0",
    ("euclidean", "epochs"):
        "ddab348c5bdb480e5fe06145973ff2e1ce12d727074ee04c7078a227116ddeba",
    ("manhattan", "epochs"):
        "992402e78769a48f9e37c8b90e0a55457d35dfcf1d0276e24e3247fc14f28da3",
    ("euclidean*1.5", "epochs"):
        "5606b67ce7169c469581909ce48c49d52220bb6708a82579dfa12321e74d556e",
}


def _graph(state):
    graph = make_minneapolis_map(1993).graph
    if state == "epochs":
        rng = random.Random(7)
        edges = sorted((e.source, e.target, e.cost) for e in graph.edges())
        for _ in range(EPOCHS):
            picked = rng.sample(edges, int(EPOCH_SHARE * len(edges)))
            graph.apply_cost_updates(
                (u, v, cost * rng.uniform(1.0, 3.0)) for u, v, cost in picked
            )
    return graph


def _pairs(graph):
    rng = random.Random(1993)
    nodes = sorted(graph.node_ids())
    return [tuple(rng.sample(nodes, 2)) for _ in range(PAIRS)]


def _digest(graph, make):
    digest = hashlib.sha256()
    for source, destination in _pairs(graph):
        result = search(graph, source, destination, "astar", make())
        s = result.stats
        digest.update(repr((
            result.path, result.cost, s.iterations, s.nodes_expanded,
            s.edges_relaxed, s.nodes_updated, s.nodes_reopened,
            s.max_frontier_size, s.frontier_inserts,
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("state", ["free-flow", "epochs"])
def test_astar_answers_and_counters_are_pinned(state):
    graph = _graph(state)
    for name, make in ESTIMATORS.items():
        assert _digest(graph, make) == DIGESTS[name, state], (name, state)
