"""Frank-Wolfe and MSA trajectories, pinned.

Every figure below was recorded from ``assign()`` before its inner loop
moved to flat per-edge lists and a line search over the moving edges
only. Such a change must not move a single float: each case pins the
iteration count, the epochs applied, and the sha256 of the steps'
``repr``s, of the sorted final volumes and of the sorted final costs.
Steps, volumes and costs are built from ``+=`` and the BPR formula
alone, so they repeat bit for bit on every Python version.

The relative gaps are compared with ``rel_tol=1e-9`` instead: the
current cost ``sum(v * t)`` is a builtin ``sum()``, which compensates
its rounding from Python 3.12 on, so its last bits differ between
versions.

The cases are two seeded 12-zone matrices on the paper's Minneapolis
map, capacity 0.7 of the busiest free-flow all-or-nothing link, and
the pinned 30x30 configuration of ``atis-repro bench demand``. MSA
runs at most ``MSA_ITERATIONS`` iterations; it does not reach gap
1e-4 on every case, and its unconverged trajectory is pinned too.
"""

import hashlib
import math
import random

import pytest

from repro.bench.demand import (
    DemandBenchConfig,
    pinned_demand,
    pinned_grid,
    pinned_zones,
)
from repro.demand import assign, skim
from repro.graphs.roadmap import make_minneapolis_map

pytestmark = pytest.mark.demand

ZONES = 12
CAPACITY_SHARE = 0.7
MSA_ITERATIONS = 25


def minneapolis_case(seed):
    """A seeded dense trip matrix on the paper's map and its capacity."""
    graph = make_minneapolis_map(1993).graph
    rng = random.Random(seed)
    zones = rng.sample(sorted(graph.node_ids()), ZONES)
    demand = {
        (origin, destination): float(rng.randint(20, 120))
        for origin in zones
        for destination in zones
        if origin != destination
    }
    matrix = skim(graph, zones, zones, retain_paths=True)
    loads = {}
    for (origin, destination), trips in demand.items():
        path = matrix.path(origin, destination)
        for edge in zip(path, path[1:]):
            loads[edge] = loads.get(edge, 0.0) + trips
    return graph, demand, CAPACITY_SHARE * max(loads.values()), 400, 1e-4


def bench_case():
    """The pinned ``bench demand`` assignment (default capacity)."""
    config = DemandBenchConfig()
    graph = pinned_grid(config)
    origins, destinations = pinned_zones(config, graph)
    demand = pinned_demand(config, origins, destinations)
    return graph, demand, None, config.max_iterations, config.tolerance


CASES = {
    "minneapolis-1": lambda: minneapolis_case(1),
    "minneapolis-3": lambda: minneapolis_case(3),
    "bench-30x30": bench_case,
}


def solve(case, method):
    graph, demand, capacity, max_iterations, tolerance = CASES[case]()
    if method == "msa":
        max_iterations = MSA_ITERATIONS
    return assign(
        graph, demand, method=method, capacity=capacity,
        max_iterations=max_iterations, tolerance=tolerance,
    )


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_steps(result):
    return _sha256("\n".join(repr(record.step) for record in result.iterations))


def digest_volumes(result):
    return _sha256(repr(sorted(result.volumes.items())))


def digest_costs(result):
    return _sha256(repr(sorted(result.costs.items())))


# (case, method) -> (iterations, epochs applied, converged, final gap,
#                    second iteration's gap, sha256 of steps,
#                    sha256 of sorted volumes, sha256 of sorted costs)
PINNED = {
    ("minneapolis-1", "fw"): (
        17, 16, True, 9.467507790538617e-05, 0.009055245450245155,
        "76ec628d46593792e8ec9c289c6bfd5367472be8974c791e06f2d5bd7e806845",
        "91b8e914857988581e11aca48ad65a9bf8e07e2e345b015287a1fda327ae8fe8",
        "1cfba8aa3bcc44bb5aa47b5ac2b5ea9b17915e6c15b178d340d3492bed55396b",
    ),
    ("minneapolis-1", "msa"): (
        25, 24, True, 9.553180274113125e-05, 0.009055245450245155,
        "e628e52caef4f4caa3faef4c0e66b0cf1d3d4891834b25eb4490cfe3957e3ad9",
        "911cb07bba96e92d3b305f270115f36c87023cd228c1d81494428b9e095ce24c",
        "a7edb3a997a1efc12c2054d0992b822760ebb1ce2b241939adf79927d83954c1",
    ),
    ("minneapolis-3", "fw"): (
        11, 10, True, 8.607708631844296e-05, 0.003526286357406837,
        "28224f86b6a875bcda63582d3b8af52d804a0285156727750fafe6eed4b047bc",
        "256eba386f0316539aaa61a1935faa88056fe095075ddec91642891debb87896",
        "fd576a4910ec2a3ab5444afde7f9ed937d0b195ac25d24b0324a84454adb47d8",
    ),
    ("minneapolis-3", "msa"): (
        14, 13, True, 9.335154672600379e-05, 0.003526286357406837,
        "29dbf7ec6d67254a10c87cab7350d51c84b0694381477955216c8319b43ac2b9",
        "bda4c1592fe1cbd7dd13fc2d01b2b66400f6216be0df898d9c6a8d434e463c73",
        "21a26266e25481808593722c04f6b3e414a18a1973516c199e1c7358b0add060",
    ),
    ("bench-30x30", "fw"): (
        74, 73, True, 9.708048964595945e-05, 0.18906456665604354,
        "26bb641f37af8f7d71f0ea355c246076f0a6055cea4d824b7a9ed91d7627120c",
        "206b3216fcf3dd235bc2727a2e748ad05193f7e26993dca90bcca6a2b328089e",
        "c0375f8a51a75d4d57ddc3877bd0103d2ffddd1273788e670898d95301e928a9",
    ),
    ("bench-30x30", "msa"): (
        25, 25, False, 0.000492059022964623, 0.18906456665604354,
        "69a18e21d47e16756bd73a649ecc5ead015fe7bae96f073952a351c540573034",
        "926c5c359723d4b088cff4e88a4c5eeb8da99a728763303ff84ab01cdea59a04",
        "2e0ce86bb727f2f45400b249a4ac33c363c087a1f31c6b287f2bfb9f8558b380",
    ),
}


@pytest.mark.parametrize("case, method", sorted(PINNED))
def test_trajectory_is_pinned(case, method):
    (iterations, epochs, converged, gap, second_gap,
     steps, volumes, costs) = PINNED[(case, method)]
    result = solve(case, method)
    assert result.iteration_count == iterations
    assert result.epochs_applied == epochs
    assert result.converged is converged
    assert math.isclose(result.relative_gap, gap, rel_tol=1e-9)
    assert math.isclose(result.iterations[1].relative_gap, second_gap, rel_tol=1e-9)
    assert digest_steps(result) == steps
    assert digest_volumes(result) == volumes
    assert digest_costs(result) == costs
