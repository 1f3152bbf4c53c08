"""The layer map: which public entry point is which span, and the
per-layer metrics read from spans and from ``snapshot()`` counters.

Every traced run reports every per-layer metric; a layer the workload
does not reach reports 0, which is also the prediction for it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

import repro.demand.assignment as demand_assignment
import repro.engine.rel_bestfirst as rel_bestfirst
import repro.engine.rel_iterative as rel_iterative
from repro.core.planner import RoutePlanner
from repro.engine.relational_graph import RelationalGraph
from repro.fleet.replica import ReplicaSet
from repro.fleet.router import FleetRouter
from repro.fleet.worker import ShardWorker
from repro.graphs.graph import Graph
from repro.kernel import accel, csr
from repro.service import RouteService
from repro.traffic.feed import TrafficFeed

from tracing import Analysis, Tracer

#: Unit of every per-layer metric, in BENCHMARK.json order.
UNITS = {
    "service.hit_rate": "ratio",
    "service.retained_ratio": "ratio",
    "service.plan_retries": "count",
    "service.self_ms": "ms",
    "kernel.search_ms": "ms",
    "kernel.search_ms.short": "ms",
    "kernel.search_ms.medium": "ms",
    "kernel.search_ms.long": "ms",
    "kernel.nodes_expanded": "count",
    "kernel.accel_query_ms": "ms",
    "kernel.customize_ms": "ms",
    "kernel.csr_builds": "count",
    "kernel.csr_build_ms": "ms",
    "kernel.sssp_calls": "count",
    "kernel.sssp_ms": "ms",
    "traffic.apply_ms": "ms",
    "traffic.invalidate_ms": "ms",
    "traffic.deltas": "count",
    "graphs.update_ms": "ms",
    "fleet.queue_wait_ms": "ms",
    "fleet.dispatch_ms": "ms",
    "fleet.boundary_ms": "ms",
    "fleet.clique_ms": "ms",
    "fleet.join_ms": "ms",
    "fleet.materialize_ms": "ms",
    "fleet.stitched_ratio": "ratio",
    "fleet.pruned_ratio": "ratio",
    "fleet.shard_hit_rate": "ratio",
    "fleet.sheds": "count",
    "fleet.plan_retries": "count",
    "demand.skim_ms": "ms",
    "demand.iterations": "count",
    "demand.sssp_runs": "count",
    "demand.self_ms": "ms",
    "engine.run_ms": "ms",
    "engine.sync_ms": "ms",
    "engine.block_reads": "count",
    "engine.block_writes": "count",
    "engine.tuple_updates": "count",
    "engine.iterations": "count",
    "engine.cost_units": "units",
    "storage.buffer_hit_rate": "ratio",
    "client.wait_ms": "ms",
    "trace.latency_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.accounted_share": "ratio",
    "trace.overhead_ms": "ms",
    "e2e.tail_ms": "ms",
}


def _hops(_args, result) -> Optional[int]:
    path = getattr(result, "path", None)
    return len(path) - 1 if path else None


def _buffer_hit_rate(args, _result) -> float:
    return args[0].db.buffer_pool.hit_rate


def install(tracer: Tracer) -> None:
    """Put span recorders around the public entry points of each layer."""
    tracer.wrap(RouteService, "plan", "service.plan")
    tracer.wrap(RouteService, "handle_epoch", "traffic.invalidate")
    tracer.wrap(RoutePlanner, "plan", "kernel.search", note=_hops)
    tracer.wrap(accel.Accelerator, "query", "kernel.accel_query")
    tracer.wrap(accel.Accelerator, "customize", "kernel.customize")
    tracer.wrap(csr.CSRGraph, "__init__", "kernel.csr_build")
    tracer.wrap(csr, "sssp", "kernel.sssp")
    tracer.wrap(csr, "sssp_tree", "kernel.sssp")
    tracer.wrap(TrafficFeed, "apply", "traffic.apply")
    tracer.wrap(Graph, "apply_cost_updates", "graphs.update")
    tracer.wrap(FleetRouter, "plan", "fleet.plan")
    tracer.wrap(ReplicaSet, "call", "fleet.dispatch")
    tracer.carry(ShardWorker, "submit", "fleet.queue_wait")
    tracer.wrap(ShardWorker, "distances_to_boundary", "fleet.boundary")
    tracer.wrap(ShardWorker, "distances_from_boundary", "fleet.boundary")
    tracer.wrap(ShardWorker, "boundary_clique", "fleet.clique")
    tracer.wrap(ReplicaSet, "plan_direct", "fleet.materialize")
    tracer.wrap(demand_assignment, "assign", "demand.assign")
    tracer.wrap(demand_assignment, "skim", "demand.skim")
    tracer.wrap(rel_bestfirst, "run_best_first", "engine.run")
    tracer.wrap(rel_iterative, "run_iterative", "engine.run")
    tracer.wrap(RelationalGraph, "sync", "engine.sync", note=_buffer_hit_rate)


def terciles(values: Sequence[int]) -> List[float]:
    """The two cut points splitting ``values`` into three strata."""
    cuts = statistics.quantiles(values, n=3)
    return [cuts[0], cuts[1]]


def stratum(value: float, cuts: Sequence[float]) -> str:
    if value <= cuts[0]:
        return "short"
    return "medium" if value <= cuts[1] else "long"


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def span_metrics(analysis: Analysis, operations: int, epochs: int,
                 cuts: Optional[Sequence[float]]) -> Dict[str, float]:
    """Per-layer timings from one traced pass.

    ``*_ms`` metrics are milliseconds per operation (request, solve or
    query), except ``kernel.search_ms`` (per search call, stratified by
    the answer's edge count) and the epoch-side metrics
    ``kernel.customize_ms``, ``traffic.*_ms`` and ``graphs.update_ms``
    (per epoch).
    """
    per_op = lambda name, own=False: analysis.per(name, operations, own)  # noqa: E731
    per_epoch = lambda name: analysis.per(name, epochs)  # noqa: E731
    roots = analysis.roots.get("request", [])
    latency = sum(roots) * 1e3 / len(roots) if roots else 0.0
    unattributed = analysis.per("request", len(roots), own=True) if roots else 0.0
    out = {
        "service.self_ms": per_op("service.plan", own=True),
        "kernel.search_ms": analysis.per("kernel.search", analysis.count.get("kernel.search", 0)),
        "kernel.accel_query_ms": per_op("kernel.accel_query"),
        "kernel.customize_ms": per_epoch("kernel.customize"),
        "kernel.csr_builds": analysis.count.get("kernel.csr_build", 0),
        "kernel.csr_build_ms": per_op("kernel.csr_build"),
        "kernel.sssp_calls": analysis.count.get("kernel.sssp", 0),
        "kernel.sssp_ms": per_op("kernel.sssp"),
        "traffic.apply_ms": per_epoch("traffic.apply"),
        "traffic.invalidate_ms": per_epoch("traffic.invalidate"),
        "graphs.update_ms": per_epoch("graphs.update"),
        "fleet.queue_wait_ms": per_op("fleet.queue_wait"),
        "fleet.dispatch_ms": per_op("fleet.dispatch", own=True),
        "fleet.boundary_ms": per_op("fleet.boundary"),
        "fleet.clique_ms": per_op("fleet.clique"),
        "fleet.join_ms": per_op("fleet.plan", own=True),
        "fleet.materialize_ms": per_op("fleet.materialize"),
        "demand.skim_ms": per_op("demand.skim"),
        "demand.self_ms": per_op("demand.assign", own=True),
        "engine.run_ms": per_op("engine.run"),
        "engine.sync_ms": per_op("engine.sync"),
        "client.wait_ms": per_op("client.wait"),
        "trace.latency_ms": latency,
        "trace.unattributed_ms": unattributed,
        "trace.accounted_share": 1.0 - ratio(unattributed, latency) if latency else 0.0,
    }
    searches: Dict[str, List[float]] = {"short": [], "medium": [], "long": []}
    if cuts is not None:
        for hops, seconds in analysis.notes.get("kernel.search", []):
            searches[stratum(hops, cuts)].append(seconds * 1e3)
    for name, samples in searches.items():
        out[f"kernel.search_ms.{name}"] = statistics.fmean(samples) if samples else 0.0
    return out


def accounting(analysis: Analysis, operations: int) -> List[str]:
    """Self time per span name per request, largest first."""
    rows = sorted(analysis.request_self_s.items(), key=lambda item: -item[1])
    lines = []
    for name, seconds in rows:
        label = "(unattributed)" if name == "request" else name
        lines.append(
            f"  {label:<22} self {seconds * 1e3 / operations:9.4f} ms/request"
            f"  spans {analysis.count[name]}"
        )
    return lines


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where this workload has none."""
    return {name: float(values.get(name, 0.0)) for name in UNITS}
