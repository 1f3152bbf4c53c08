"""A seeded FleetRouter stream, every answer's cost pinned.

The stream runs on the paper's Minneapolis map cut 2x2: 600 queries
over Zipf-weighted origins and destinations, so the same trees are
read again and again, with a 16-edge epoch before every 100th query.
Half of each epoch's edges get slower and half faster, so held trees
are repaired after both kinds of change, and stitched answers read
overlays rebuilt from repaired boundary trees.

The digest below was recorded before shard trees carried a child index
and before the overlay search ran on dense ids. Such a change must not
move a single cost bit: a repaired ``dist`` is a fresh search's bit for
bit, and the overlay search returns the least float total of any chain
whatever order it pops ties in. Paths may differ where shortest paths
tie, so they are checked against the parent graph instead of pinned.
"""

import hashlib
import random

import pytest

from repro.fleet import FleetRouter, partition_graph
from repro.graphs.roadmap import make_minneapolis_map
from repro.kernel import csr
from repro.traffic.feed import TrafficFeed

pytestmark = pytest.mark.fleet

QUERIES = 600
EPOCH_EVERY = 100
EPOCH_EDGES = 16
HOT_NODES = 60
#: Epoch cost factors over free flow: even picks faster, odd slower.
SCALES = ((0.5, 1.0), (1.0, 2.0))

#: sha256 of the answers' ``cost.hex()`` lines, in stream order.
COST_DIGEST = "a9ff8dd4c618c8aaf5950437744a48c9093775643ee638866862fada41fce17d"
#: Answers found, and how many of them consulted the overlay.
FOUND = 600
STITCHED = 437


def run_stream():
    graph = make_minneapolis_map(1993).graph
    router = FleetRouter(partition_graph(graph, 2, 2))
    feed = TrafficFeed(graph)
    feed.subscribe(router)
    rng = random.Random(32)
    nodes = sorted(graph.node_ids())
    rng.shuffle(nodes)
    hot = nodes[:HOT_NODES]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(HOT_NODES)]
    base = {(e.source, e.target): e.cost for e in graph.edges()}
    edges = sorted(base)
    answers = []
    try:
        for position in range(QUERIES):
            if position and position % EPOCH_EVERY == 0:
                picked = rng.sample(edges, EPOCH_EDGES)
                feed.apply(
                    [
                        (u, v, base[(u, v)] * rng.uniform(*SCALES[k % 2]))
                        for k, (u, v) in enumerate(picked)
                    ]
                )
            source, destination = rng.choices(hot, weights=weights, k=2)
            result = router.plan(source, destination)
            assert not result.shed, result.shed_reason
            answers.append(result)
            if position % 25 == 0:
                reference = csr.uniform_cost(graph, source, destination)
                assert result.cost == pytest.approx(reference.cost, abs=1e-9)
            assert_walks_parent_edges(graph, result)
        assert feed.epoch_count == (QUERIES - 1) // EPOCH_EVERY
    finally:
        router.shutdown()
    return answers


def assert_walks_parent_edges(graph, result):
    if not result.found:
        assert result.path == []
        return
    path = result.path
    assert path[0] == result.source and path[-1] == result.destination
    walked = 0.0
    for u, v in zip(path, path[1:]):
        assert graph.has_edge(u, v), (u, v)
        walked += graph.edge_cost(u, v)
    assert walked == pytest.approx(result.cost, abs=1e-9)


def test_fleet_costs_are_pinned():
    answers = run_stream()
    digest = hashlib.sha256(
        "\n".join(result.cost.hex() for result in answers).encode()
    ).hexdigest()
    assert digest == COST_DIGEST
    assert sum(result.found for result in answers) == FOUND
    assert sum(result.stitched for result in answers) == STITCHED
