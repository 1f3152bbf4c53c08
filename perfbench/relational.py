"""The ``relational`` workload: the paper's own execution.

A ``RouteService(default_backend="relational")`` answers the paper's
four road-map pairs (A-B, C-D, G-D, E-F) with A*, Dijkstra and the
iterative algorithm, once at free flow and once after an incident
epoch that slows an edge of every route. The incident evicts the
cached answers, so the second pass runs cold and
``RelationalGraph.sync`` re-fetches the dirtied blocks. The simulated
cost in Table 4A units repeats exactly for a seed.

A run is at least one batch. Further batches, each on a fresh system,
run only when another one is expected to end within ``--seconds``.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from typing import Dict, List

from repro import RouteService, TrafficFeed
from repro.graphs.roadmap import road_queries

import inputs
import layers
import speed
from audit import Answer, AuditReport, Oracle, classify
from outcome import Outcome, peak_rss_mb
from tracing import Analysis, Tracer

ALGORITHMS = ("astar", "dijkstra", "iterative")
#: The long diagonals: the slow stratum that ``tail_ms`` reports.
LONG_PAIRS = ("A to B", "C to D")
SETUP_REPEATS = 9


class _System:
    def __init__(self, warm_pair) -> None:
        road_map = inputs.road_map()
        self.graph = road_map.graph
        self.pairs = road_queries(road_map)
        self.service = RouteService(default_backend="relational")
        self.feed = TrafficFeed(self.graph)
        self.feed.subscribe(self.service)
        # A query outside the batch loads the service's DB mirror.
        self.service.plan(self.graph, *warm_pair, algorithm="dijkstra")


def _batch(system: _System, incident, tracer=None, between=None) -> List[dict]:
    """The fixed batch; ``between()`` runs, untimed, after every query."""
    rows = []
    for phase in ("free", "incident"):
        if phase == "incident":
            system.feed.apply(incident)
        for label, (source, destination) in system.pairs.items():
            for algorithm in ALGORITHMS:
                factor = speed.factor()
                started = time.perf_counter()
                token = None if tracer is None else tracer.root(
                    f"{phase}:{label}:{algorithm}", "request", started)
                try:
                    result = system.service.plan(system.graph, source, destination,
                                                 algorithm=algorithm)
                    answer = Answer(found=result.found, cost=result.cost,
                                    path=list(result.path))
                except Exception as exc:  # noqa: BLE001 - counted as errored
                    result, answer = None, Answer(error=f"{type(exc).__name__}: {exc}")
                elapsed = time.perf_counter() - started
                if token is not None:
                    tracer.end_root(token)
                factor = (factor + speed.factor()) / 2
                io = result.io.snapshot() if result is not None and result.io else {}
                rows.append({
                    "phase": phase, "label": label, "algorithm": algorithm,
                    "source": source, "destination": destination,
                    "seconds": elapsed, "factor": factor, "answer": answer,
                    "cost_units": result.execution_cost if result is not None else 0.0,
                    "sync_units": result.sync_cost if result is not None else 0.0,
                    "iterations": result.iterations if result is not None else 0,
                    "io": io,
                })
                if between is not None:
                    between()
    return rows


def _audit(report: AuditReport, rows, base, incident) -> None:
    oracles = {"free": Oracle(base), "incident": Oracle(base)}
    oracles["incident"].apply(incident)
    for row in rows:
        where = f"{row['phase']} {row['label']} {row['algorithm']}"
        if not classify(report, row["answer"], where):
            continue
        oracle = oracles[row["phase"]]
        dist = oracle.distances(row["source"], [row["destination"]])
        complaint = oracle.complaint(row["source"], row["destination"], row["answer"], dist)
        if complaint is None:
            report.counts["exact"] += 1
        else:
            report.fail("inexact", f"{where}: {complaint}")


def _inputs(seed: int):
    road_map = inputs.road_map()
    base = inputs.edge_costs(road_map.graph)
    oracle = Oracle(base)
    pairs = road_queries(road_map)
    routes = [oracle.route(s, d) for s, d in pairs.values()]
    incident = inputs.incident(seed, road_map.graph, routes)
    start = pairs["A to B"][0]
    warm_pair = (start, next(v for u, v in base if u == start))
    return base, incident, warm_pair


def run(_kind: str, seed: int, seconds: float, trace: bool) -> Outcome:
    base, incident, warm_pair = _inputs(seed)
    if trace:
        return _run_traced(base, incident, warm_pair)
    setups: List[float] = []

    def set_up() -> _System:
        system, elapsed = speed.timed(_System, warm_pair)
        setups.append(elapsed)
        return system

    finished = itertools.count(1)

    def between() -> None:
        # Throwaway set-ups spread over the batch, so that ``setup_s``
        # sees the same machine as the queries; their garbage is
        # collected before the next query starts.
        if next(finished) % 3 == 0 and len(setups) < SETUP_REPEATS:
            set_up()
            gc.collect()

    report = AuditReport()
    batches: List[List[dict]] = []
    batch_seconds: List[float] = []
    deadline = time.perf_counter() + seconds
    while not batches or time.perf_counter() + batch_seconds[-1] <= deadline:
        rows = _batch(set_up(), incident, between=between)
        batch_seconds.append(sum(row["seconds"] / row["factor"] for row in rows))
        batches.append(rows)
    rss = peak_rss_mb()

    for rows in batches:
        _audit(report, rows, base, incident)
    units = [sum(row["cost_units"] for row in rows) for rows in batches]
    if len(set(units)) != 1:
        report.fail("inexact", f"simulated cost differs between batches: {units}")
    # Query times at the reference speed (see ``speed.py``).
    queries = [row["seconds"] / row["factor"] * 1e3 for rows in batches for row in rows]
    long_queries = [row["seconds"] / row["factor"] * 1e3 for rows in batches
                    for row in rows if row["label"] in LONG_PAIRS]
    outcome = Outcome(audit=report)
    outcome.e2e = {
        "latency_ms": statistics.fmean(queries),
        "throughput_per_s": len(queries) / sum(batch_seconds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    rows = batches[0]
    cold = sum(1 for row in rows if row["cost_units"] > 0)
    outcome.lines += [
        f"inputs: pairs {', '.join(dict.fromkeys(row['label'] for row in rows))}; "
        f"algorithms {', '.join(ALGORITHMS)}; "
        f"incident slows {len(incident)} edges, one on every free-flow route",
        f"rel_batch_s {statistics.median(batch_seconds):.3f} at the reference speed "
        f"over {len(batches)} batch(es); "
        f"rel_cost_units {units[0]:.3f}; {cold}/{len(rows)} queries ran cold; "
        f"tail_ms (long pairs, not gated) {statistics.fmean(long_queries):.1f}",
    ]
    for row in rows:
        outcome.lines.append(
            f"  {row['phase']:<8} {row['label']:<7} {row['algorithm']:<9} "
            f"{row['seconds'] * 1e3:9.1f} ms raw (speed factor {row['factor']:.2f}) "
            f"{row['cost_units']:10.3f} units "
            f"(sync {row['sync_units']:.3f}) {row['iterations']:5d} iterations")
    outcome.lines.append(
        "set-up (map, service, DB load): " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    return outcome


def _run_traced(base, incident, warm_pair) -> Outcome:
    """One untraced and one traced batch on fresh, identical systems."""
    report = AuditReport()
    plain = _batch(_System(warm_pair), incident)
    _audit(report, plain, base, incident)

    tracer = Tracer()
    layers.install(tracer)
    try:
        system = _System(warm_pair)
        tracer.enabled = True
        traced = _batch(system, incident, tracer)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    _audit(report, traced, base, incident)

    analysis = Analysis(tracer.spans)
    count = len(traced)
    io_total: Dict[str, float] = {}
    for row in traced:
        for key in ("block_reads", "block_writes", "tuple_updates"):
            io_total[key] = io_total.get(key, 0) + row["io"].get(key, 0)
    values = layers.span_metrics(analysis, count, 1, None)
    hit_rates = [note for note, _ in analysis.notes.get("engine.sync", [])]
    plain_ms = statistics.fmean(row["seconds"] / row["factor"] for row in plain) * 1e3
    traced_ms = statistics.fmean(row["seconds"] / row["factor"] for row in traced) * 1e3
    values.update({
        "engine.block_reads": io_total["block_reads"] / count,
        "engine.block_writes": io_total["block_writes"] / count,
        "engine.tuple_updates": io_total["tuple_updates"] / count,
        "engine.iterations": statistics.fmean(row["iterations"] for row in traced),
        "engine.cost_units": sum(row["cost_units"] for row in traced),
        "traffic.deltas": len(incident),
        "storage.buffer_hit_rate": hit_rates[-1] if hit_rates else 0.0,
        "trace.overhead_ms": traced_ms - plain_ms,
        "e2e.tail_ms": statistics.fmean(row["seconds"] / row["factor"] * 1e3 for row in plain
                                        if row["label"] in LONG_PAIRS),
    })
    outcome = Outcome(audit=report)
    outcome.layers = layers.complete(values)
    outcome.tracer = tracer
    outcome.lines += [
        f"query mean at the reference speed: untraced {plain_ms:.1f} ms, "
        f"traced {traced_ms:.1f} ms",
        f"accounting of the traced query latency ({values['trace.accounted_share']:.1%} "
        "attributed to layer spans):",
    ] + layers.accounting(analysis, count)
    return outcome
