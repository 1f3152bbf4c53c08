"""repro.fleet: sharded map serving with exact cross-shard stitching.

The fleet serves one roadmap from many regional shards:

* :mod:`repro.fleet.partition` cuts a Graph into grid-cell shards with
  a greedy boundary-minimizing refinement, emitting validated
  per-shard subgraphs, the cut-edge set, and boundary tables;
* :mod:`repro.fleet.worker` wraps one RouteService (own cache, own
  epoch feed) per shard behind a bounded, admission-controlled
  executor;
* :mod:`repro.fleet.router` answers any OD query exactly — direct
  dispatch inside one shard, boundary stitching across shards — and
  fans parent traffic epochs out to the fleet;
* :mod:`repro.fleet.replica` replicates each shard behind a
  health-checked :class:`ReplicaSet` with deadline-governed hedged
  dispatch and epoch-target accounting (a lagging replica never
  serves), while every query holds the parent graph's gate so no epoch
  fans out under it;
* :mod:`repro.fleet.loadgen` replays seeded Zipf-skewed OD streams
  concurrently and audits every answer against whole-graph Dijkstra.
"""

from repro.fleet.loadgen import (
    FleetLoadConfig,
    FleetLoadReport,
    run_fleet_load,
    zipf_pairs,
)
from repro.fleet.partition import (
    CutEdge,
    Partition,
    ShardSpec,
    parse_layout,
    partition_graph,
    partition_layouts,
)
from repro.fleet.replica import (
    DeadlinePolicy,
    HealthPolicy,
    ReplicaSet,
    StageOutcome,
)
from repro.fleet.router import FleetResult, FleetRouter
from repro.fleet.worker import ShardWorker

__all__ = [
    "CutEdge",
    "DeadlinePolicy",
    "FleetLoadConfig",
    "FleetLoadReport",
    "FleetResult",
    "FleetRouter",
    "HealthPolicy",
    "Partition",
    "ReplicaSet",
    "ShardSpec",
    "ShardWorker",
    "StageOutcome",
    "parse_layout",
    "partition_graph",
    "partition_layouts",
    "run_fleet_load",
    "zipf_pairs",
]
