"""The relational engine's per-query I/O ledger, pinned.

Every figure below was recorded from the engine before the storage
tier's scans went positional. A change to how the engine reads tuples
in Python must not move a single charge: the simulated cost is the
paper's measurement (Tables 2-4), the wall time is not. Each case pins
block reads, block writes, tuple updates, iterations, the weighted
execution cost, the answer's cost and its path (length and CRC32 of
its repr).

The road-map pairs run on a pass-through pool (capacity 0, the paper's
setting). The buffered cases pin the pool's hits, misses and evictions
too: at capacity 4 the LRU evicts constantly, so any change in the
order of page accesses shows up there first. A* version 1 (the
separate-relation frontier) has no other exact guard in the benchmark
harnesses. A* versions 2 and 3 (the status-attribute frontier) and the
iterative waves are pinned at capacity 4 as well, recorded before the
status frontier kept its own open-row heap and the wave's updater went
positional.

Each case also pins its ``phase_costs`` (init, iterate, cleanup) as
``float.hex``: the units attributed to a phase are a float sum, so the
hex pins the order in which every charge was added, not only the
totals. A traffic-sync case pins a run that re-fetches the adjacency
blocks an epoch dirtied through S's hash index.
"""

import zlib

import pytest

from repro import TrafficFeed
from repro.engine import RelationalGraph, run_astar, run_dijkstra, run_iterative
from repro.graphs.roadmap import make_minneapolis_map, road_queries
from repro.storage.database import Database

RUNNERS = {
    "dijkstra": run_dijkstra,
    "iterative": run_iterative,
    "astar-v1": lambda rg, s, d: run_astar(rg, s, d, version="v1"),
    "astar-v2": lambda rg, s, d: run_astar(rg, s, d, version="v2"),
    "astar-v3": lambda rg, s, d: run_astar(rg, s, d, version="v3"),
}

# (pair, runner) -> (block_reads, block_writes, tuple_updates, iterations,
#                    execution_cost, cost, path length, path CRC32)
PASS_THROUGH = {
    ("A to B", "dijkstra"): (28241, 1216, 2326, 1088, 1247.945, 8.660450851336588, 65, 1861478280),
    ("A to B", "iterative"): (3139, 202, 420, 65, 156.665, 8.660450851336588, 65, 1861478280),
    ("A to B", "astar-v1"): (31886, 4376, 1391, 943, 1455.045, 8.660450851336588, 65, 1861478280),
    ("A to B", "astar-v2"): (24749, 1071, 2195, 943, 1107.34, 8.660450851336588, 65, 1861478280),
    ("A to B", "astar-v3"): (7666, 411, 742, 283, 352.93, 8.764249288347207, 65, 1374497257),
    ("C to D", "dijkstra"): (28241, 1216, 2345, 1088, 1249.56, 8.73154616078741, 65, 2304298870),
    ("C to D", "iterative"): (3020, 207, 466, 65, 156.66, 8.73154616078741, 65, 2304298870),
    ("C to D", "astar-v1"): (28081, 4059, 1239, 873, 1293.1, 8.73154616078741, 65, 2304298870),
    ("C to D", "astar-v2"): (22863, 1001, 2029, 873, 1023.72, 8.73154616078741, 65, 2304298870),
    ("C to D", "astar-v3"): (3246, 239, 341, 111, 155.545, 8.985675136137898, 65, 1499023098),
    ("G to D", "dijkstra"): (1607, 188, 171, 60, 81.18, 0.9271956459582245, 8, 981636800),
    ("G to D", "iterative"): (2603, 201, 410, 58, 137.005, 0.9271956459582245, 8, 981636800),
    ("G to D", "astar-v1"): (182, 89, 17, 13, 14.265, 0.9271956459582245, 8, 981636800),
    ("G to D", "astar-v2"): (436, 141, 72, 13, 29.43, 0.9271956459582245, 8, 981636800),
    ("G to D", "astar-v3"): (282, 135, 59, 7, 22.635, 0.9271956459582245, 8, 981636800),
    ("E to F", "dijkstra"): (7583, 419, 688, 291, 345.835, 1.926486686313802, 14, 2499534877),
    ("E to F", "iterative"): (1925, 195, 392, 43, 111.445, 1.926486686313802, 14, 2499534877),
    ("E to F", "astar-v1"): (871, 369, 96, 66, 59.095, 1.926486686313802, 14, 2499534877),
    ("E to F", "astar-v2"): (1784, 194, 205, 66, 90.565, 1.926486686313802, 14, 2499534877),
    ("E to F", "astar-v3"): (1640, 188, 194, 60, 84.29, 1.926486686313802, 14, 2499534877),
}

# (capacity, pair, runner) -> (ledger as above, (hits, misses, evictions))
BUFFERED = {
    (64, "A to B", "dijkstra"): (
        (16135, 1221, 2326, 1088, 824.485, 8.660450851336588, 65, 1861478280),
        (12106, 31, 0),
    ),
    (4, "E to F", "dijkstra"): (
        (5926, 739, 688, 291, 303.84, 1.926486686313802, 14, 2499534877),
        (1657, 1618, 1614),
    ),
    (4, "E to F", "iterative"): (
        (1787, 383, 392, 43, 116.015, 1.926486686313802, 14, 2499534877),
        (138, 1604, 1600),
    ),
    (4, "E to F", "astar-v1"): (
        (435, 375, 96, 66, 44.135, 1.926486686313802, 14, 2499534877),
        (436, 56, 52),
    ),
    (4, "E to F", "astar-v2"): (
        (1425, 279, 205, 66, 82.25, 1.926486686313802, 14, 2499534877),
        (359, 415, 411),
    ),
    (4, "E to F", "astar-v3"): (
        (1320, 268, 194, 60, 77.09, 1.926486686313802, 14, 2499534877),
        (320, 390, 386),
    ),
    (4, "C to D", "iterative"): (
        (2679, 432, 466, 65, 155.975, 8.73154616078741, 65, 2304298870),
        (341, 2153, 2149),
    ),
}


# PASS_THROUGH / BUFFERED key -> phase_costs as float.hex, in the order
# (init, iterate, cleanup).
PASS_THROUGH_PHASES = {
    ('A to B', 'astar-v1'): ("0x1.2f5c28f5c28f6p+0", "0x1.68f9999999d18p+10", "0x1.3eb851eb851f7p+3"),
    ('A to B', 'astar-v2'): ("0x1.619999999999ap+3", "0x1.0f25c28f5c09ap+10", "0x1.766666666667ap+3"),
    ('A to B', 'astar-v3'): ("0x1.619999999999ap+3", "0x1.4a2e147ae162bp+8", "0x1.766666666667ap+3"),
    ('A to B', 'dijkstra'): ("0x1.619999999999ap+3", "0x1.324c7ae147d68p+10", "0x1.766666666667ap+3"),
    ('A to B', 'iterative'): ("0x1.619999999999ap+3", "0x1.0b7ae147ae05cp+7", "0x1.7c00000000014p+3"),
    ('C to D', 'astar-v1'): ("0x1.2f5c28f5c28f6p+0", "0x1.407d1eb852060p+10", "0x1.3eb851eb851f7p+3"),
    ('C to D', 'astar-v2'): ("0x1.619999999999ap+3", "0x1.f47c28f5c21a9p+9", "0x1.766666666667ap+3"),
    ('C to D', 'astar-v3'): ("0x1.619999999999ap+3", "0x1.09970a3d70919p+7", "0x1.766666666667ap+3"),
    ('C to D', 'dijkstra'): ("0x1.619999999999ap+3", "0x1.32b3d70a3d99ap+10", "0x1.766666666667ap+3"),
    ('C to D', 'iterative'): ("0x1.619999999999ap+3", "0x1.0b7851eb85108p+7", "0x1.7c00000000014p+3"),
    ('E to F', 'astar-v1'): ("0x1.2f5c28f5c28f6p+0", "0x1.c3a3d70a3d662p+5", "0x1.747ae147ae148p+0"),
    ('E to F', 'astar-v2'): ("0x1.619999999999ap+3", "0x1.32f5c28f5c19ep+6", "0x1.6333333333332p+1"),
    ('E to F', 'astar-v3'): ("0x1.619999999999ap+3", "0x1.19dc28f5c282dp+6", "0x1.6333333333332p+1"),
    ('E to F', 'dijkstra'): ("0x1.619999999999ap+3", "0x1.4c028f5c29128p+8", "0x1.6333333333332p+1"),
    ('E to F', 'iterative'): ("0x1.619999999999ap+3", "0x1.85c7ae147ad16p+6", "0x1.799999999999ap+1"),
    ('G to D', 'astar-v1'): ("0x1.2f5c28f5c28f6p+0", "0x1.7ab851eb85200p+3", "0x1.3eb851eb851ecp+0"),
    ('G to D', 'astar-v2'): ("0x1.619999999999ap+3", "0x1.0a7ae147ae159p+4", "0x1.b99999999999ap+0"),
    ('G to D', 'astar-v3'): ("0x1.619999999999ap+3", "0x1.3b851eb851ec6p+3", "0x1.b99999999999ap+0"),
    ('G to D', 'dijkstra'): ("0x1.619999999999ap+3", "0x1.119eb851eb78fp+6", "0x1.b99999999999ap+0"),
    ('G to D', 'iterative'): ("0x1.619999999999ap+3", "0x1.f03851eb85052p+6", "0x1.e666666666665p+0"),
}

BUFFERED_PHASES = {
    (4, 'C to D', 'iterative'): ("0x1.687ae147ae149p+3", "0x1.0ddeb851eb777p+7", "0x1.38cccccccccdcp+3"),
    (4, 'E to F', 'astar-v1'): ("0x1.2f5c28f5c28f6p+0", "0x1.4ecccccccccb4p+5", "0x1.199999999999ap+0"),
    (4, 'E to F', 'astar-v2'): ("0x1.687ae147ae149p+3", "0x1.1275c28f5c1dfp+6", "0x1.2f5c28f5c28f3p+1"),
    (4, 'E to F', 'astar-v3'): ("0x1.687ae147ae149p+3", "0x1.fba3d70a3d5e9p+5", "0x1.2f5c28f5c28f3p+1"),
    (4, 'E to F', 'dijkstra'): ("0x1.687ae147ae149p+3", "0x1.22347ae147b43p+8", "0x1.2f5c28f5c28f3p+1"),
    (4, 'E to F', 'iterative'): ("0x1.687ae147ae149p+3", "0x1.9928f5c28f4b6p+6", "0x1.3ae147ae147aap+1"),
    (64, 'A to B', 'dijkstra'): ("0x1.607ae147ae148p+3", "0x1.91e147ae14546p+9", "0x1.36b851eb851fcp+3"),
}

#: Dijkstra E to F after one epoch scales every 97th edge (in sorted
#: order) by 1.5: the ledger as above, then the phases in charge order.
SYNCED_LEDGER = (7705, 418, 725, 290, 353.2, 1.926486686313802, 14, 2499534877)
SYNCED_PHASES = {
    "traffic-sync": "0x1.0bae147ae1484p+3",
    "init": "0x1.619999999999ap+3",
    "iterate": "0x1.4b028f5c2911bp+8",
    "cleanup": "0x1.6333333333332p+1",
}


@pytest.fixture(scope="module")
def road():
    road_map = make_minneapolis_map(1993)
    return road_map.graph, road_queries(road_map)


@pytest.fixture(scope="module")
def rgraph(road):
    return RelationalGraph(road[0])


def _ledger(result):
    io = result.io
    return (
        io.block_reads,
        io.block_writes,
        io.tuple_updates,
        result.iterations,
        result.execution_cost,
        result.cost,
        len(result.path),
        zlib.crc32(repr(result.path).encode()),
    )


def _phases(result):
    return {phase: units.hex() for phase, units in result.io.phase_costs.items()}


def _assert_ledger(actual, expected):
    assert actual[:4] == expected[:4]
    assert actual[4] == pytest.approx(expected[4], abs=1e-9)
    assert actual[5] == pytest.approx(expected[5], rel=1e-12)
    assert actual[6:] == expected[6:]


@pytest.mark.parametrize("pair, runner", sorted(PASS_THROUGH))
def test_pass_through_ledger(road, rgraph, pair, runner):
    source, destination = road[1][pair]
    result = RUNNERS[runner](rgraph, source, destination)
    assert result.found
    _assert_ledger(_ledger(result), PASS_THROUGH[(pair, runner)])
    expected = PASS_THROUGH_PHASES[(pair, runner)]
    assert _phases(result) == dict(zip(("init", "iterate", "cleanup"), expected))


@pytest.mark.parametrize("capacity, pair, runner", sorted(BUFFERED))
def test_buffered_ledger(road, capacity, pair, runner):
    db = Database(name=f"pool{capacity}", buffer_capacity=capacity)
    rgraph = RelationalGraph(road[0], database=db)
    source, destination = road[1][pair]
    result = RUNNERS[runner](rgraph, source, destination)
    ledger, pool = BUFFERED[(capacity, pair, runner)]
    _assert_ledger(_ledger(result), ledger)
    assert (db.buffer_pool.hits, db.buffer_pool.misses, db.buffer_pool.evictions) == pool
    expected = BUFFERED_PHASES[(capacity, pair, runner)]
    assert _phases(result) == dict(zip(("init", "iterate", "cleanup"), expected))


def test_synced_ledger_and_phases():
    road_map = make_minneapolis_map(1993)
    graph = road_map.graph
    rgraph = RelationalGraph(graph)
    feed = TrafficFeed(graph)
    feed.subscribe(rgraph)
    edges = sorted((edge.source, edge.target, edge.cost) for edge in graph.edges())
    feed.apply([(u, v, cost * 1.5) for u, v, cost in edges[::97]])
    source, destination = road_queries(road_map)["E to F"]
    result = run_dijkstra(rgraph, source, destination)
    assert rgraph.tuples_refreshed == 35 and rgraph.full_reloads == 0
    _assert_ledger(_ledger(result), SYNCED_LEDGER)
    assert list(_phases(result).items()) == list(SYNCED_PHASES.items())
