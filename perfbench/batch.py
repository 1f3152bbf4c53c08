"""The ``assignment`` workload: Frank-Wolfe equilibrium plus one skim.

``assign()`` re-prices every edge on every iteration through a
``TrafficFeed`` that also carries a ``RouteService`` warmed with
commute routes, so each iteration pays for the graph update, the CSR
rebuild and the route-cache invalidation. Before every solve the map
goes back to free flow and the service is re-warmed, untimed.

How many iterations a matrix needs to reach gap 1e-4 depends on the
matrix by up to ten times, so the timings are per iteration. The run is
a sequence of rounds until ``--seconds`` are spent; each round solves
the next seeded matrix, repeats one standalone ``skim()`` of
``SKIM_ORIGINS`` origins against all nodes ``SKIMS_PER_ROUND`` times,
and times one throwaway set-up, so that every kind of measurement is
spread over the run and over as many matrices as fit.
Every timing is taken at the reference speed (see ``speed.py``).
Iteration counts repeat exactly for a seed and are reported as counts.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from typing import Dict, List

import repro.demand.assignment as demand_assignment
from repro import RouteService, TrafficFeed, skim

import inputs
import layers
import speed
from audit import AuditReport, Oracle
from loadgen import percentile
from outcome import Outcome, peak_rss_mb
from tracing import Analysis, Tracer

TOLERANCE = 1e-4
#: Far above the iterations any seeded matrix needs at ``CAPACITY_SHARE``.
MAX_ITERATIONS = 400
SKIMS_PER_ROUND = 2


class _System:
    def __init__(self, warm_requests) -> None:
        self.graph = inputs.road_map().graph
        self.feed = TrafficFeed(self.graph)
        self.service = RouteService()
        self.feed.subscribe(self.service)
        self.warm_requests = warm_requests
        self.warm()

    def warm(self) -> None:
        for request in self.warm_requests:
            self.service.plan(self.graph, request.source, request.destination,
                              algorithm=request.algorithm)

    def reset(self, base) -> None:
        """Free flow again, then a warm cache (untimed)."""
        self.feed.apply([(u, v, cost) for (u, v), cost in base.items()])
        self.warm()

    def counters(self) -> Dict[str, float]:
        snap = self.service.snapshot()
        return {
            "retained": snap["traffic_retained"], "evicted": snap["traffic_evicted"],
            "epochs": self.feed.epoch_count, "deltas": self.feed.deltas_applied,
        }


def _audit_solve(report: AuditReport, result, demand) -> None:
    """Independent gap and flow conservation of one solve."""
    report.attempted += 1
    oracle = Oracle(result.costs)
    by_origin: Dict[object, List] = defaultdict(list)
    for (origin, destination), trips in demand.items():
        by_origin[origin].append((destination, trips))
    bound = 0.0
    for origin, cells in by_origin.items():
        dist = oracle.distances(origin, [d for d, _ in cells])
        bound += sum(trips * dist[d] for d, trips in cells)
    current = sum(result.volumes[edge] * result.costs[edge] for edge in result.volumes)
    gap = (current - bound) / bound
    net: Dict[object, float] = defaultdict(float)
    for (u, v), volume in result.volumes.items():
        net[u] += volume
        net[v] -= volume
    for (origin, destination), trips in demand.items():
        net[origin] -= trips
        net[destination] += trips
    residual = max(abs(x) for x in net.values())
    total = sum(demand.values())
    if not result.converged or gap > TOLERANCE * (1 + 1e-6):
        report.fail("inexact", f"solve did not reach gap {TOLERANCE}: "
                               f"reported {result.relative_gap!r}, recomputed {gap!r}")
    elif residual > 1e-9 * total:
        report.fail("inexact", f"flow not conserved: residual {residual!r} of {total!r} trips")
    else:
        report.counts["exact"] += 1


def _audit_skim(report: AuditReport, matrix, oracle_rows) -> None:
    report.attempted += 1
    for i, origin in enumerate(matrix.origins):
        row = oracle_rows[origin]
        for j, destination in enumerate(matrix.destinations):
            expected = row.get(destination, math.inf)
            got = matrix.costs[i][j]
            if not (got == expected or math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)):
                report.fail("inexact", f"skim {origin!r}->{destination!r}: {got!r} != {expected!r}")
                return
    report.counts["exact"] += 1


def _solve(system: _System, demand, capacity):
    """One timed solve; also the wall time of each iteration.

    The auditor hook runs once per iteration, right after its
    all-or-nothing load, so consecutive calls bracket one iteration.
    """
    marks: List[float] = []
    started = time.perf_counter()
    result = demand_assignment.assign(
        system.graph, demand, feed=system.feed, capacity=capacity,
        tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS,
        auditor=lambda *_: marks.append(time.perf_counter()),
    )
    elapsed = time.perf_counter() - started
    steps = [b - a for a, b in zip([started] + marks, marks)]
    return result, elapsed, steps


def run(_kind: str, seed: int, seconds: float, trace: bool) -> Outcome:
    base_graph = inputs.road_map().graph
    base = inputs.edge_costs(base_graph)
    oracle = Oracle(base)

    def demand_for(index: int):
        demand = inputs.demand_matrix(seed, index, base_graph)
        return demand, inputs.capacity(demand, oracle)

    origins = inputs.skim_origins(seed, base_graph)
    warm_requests = inputs.serving_stream(seed, base_graph, inputs.ASSIGN_WARM_ROUTES).requests
    if trace:
        return _run_traced(base, demand_for(0), warm_requests)

    def set_up() -> _System:
        system, elapsed = speed.timed(_System, warm_requests)
        setups.append(elapsed)
        return system

    report = AuditReport()
    setups: List[float] = []
    solves: List[float] = []
    steps: List[float] = []
    skims: List[float] = []
    results = []
    system = set_up()
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        demand, capacity = demand_for(len(results))
        system.reset(base)
        (result, elapsed, iteration_steps), factor = speed.around(
            _solve, system, demand, capacity)
        _audit_solve(report, result, demand)
        results.append(result)
        solves.append(elapsed / factor)
        steps += [step / factor for step in iteration_steps]
        congested = Oracle(inputs.edge_costs(system.graph))
        rows = {origin: congested.distances(origin) for origin in origins}
        for _ in range(SKIMS_PER_ROUND):
            matrix, elapsed = speed.timed(skim, system.graph, origins)
            skims.append(elapsed)
            _audit_skim(report, matrix, rows)
        set_up()
    rss = peak_rss_mb()

    iterations = sum(result.iteration_count for result in results)
    cells = len(origins) * len(base_graph)
    outcome = Outcome(audit=report)
    outcome.e2e = {
        "latency_ms": sum(solves) / iterations * 1e3,
        "throughput_per_s": cells / statistics.median(skims),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    outcome.lines += [
        f"inputs: {inputs.ASSIGN_ZONES} zones and {len(demand_for(0)[0])} OD pairs per "
        f"matrix, capacity {inputs.CAPACITY_SHARE} of the busiest free-flow AON link; "
        f"service warmed with {len(warm_requests)} commute routes; every epoch "
        f"re-prices all {len(base)} edges",
        f"assign: {len(solves)} matrices to gap {TOLERANCE:g}, at the reference speed: "
        + ", ".join(f"{s:.3f}" for s in solves) + " s (assign_s); iterations "
        + ", ".join(str(r.iteration_count) for r in results)
        + f"; {sum(solves) / iterations * 1e3:.2f} ms per iteration, p90 (tail_ms, "
        f"not gated) {percentile([step * 1e3 for step in steps], 90):.2f} ms over "
        f"{len(steps)} iterations",
        f"skim: {len(origins)}x{len(base_graph)} cells, {len(skims)} runs, median "
        f"{statistics.median(skims) * 1e3:.2f} ms = "
        f"{outcome.e2e['throughput_per_s']:.0f} cells/s (skim_cells_per_s)",
        "set-up (map, service, warm-up): " + ", ".join(f"{s:.3f}" for s in setups) + " s",
    ]
    return outcome


def _run_traced(base, matrix, warm_requests) -> Outcome:
    """One untraced and one traced solve on fresh, identical systems."""
    demand, capacity = matrix
    report = AuditReport()
    system = _System(warm_requests)
    system.reset(base)
    (plain, plain_s, plain_steps), plain_factor = speed.around(
        _solve, system, demand, capacity)
    _audit_solve(report, plain, demand)

    tracer = Tracer()
    layers.install(tracer)
    try:
        system = _System(warm_requests)
        system.reset(base)
        before = system.counters()
        tracer.enabled = True
        token = tracer.root("solve", "request", time.perf_counter())
        (traced, traced_s, _), traced_factor = speed.around(
            _solve, system, demand, capacity)
        tracer.end_root(token)
        tracer.enabled = False
        after = system.counters()
    finally:
        tracer.uninstall()
    _audit_solve(report, traced, demand)

    analysis = Analysis(tracer.spans)
    d = lambda key: layers.delta(after, before, key)  # noqa: E731
    values = layers.span_metrics(analysis, 1, int(d("epochs")), None)
    values.update({
        "service.retained_ratio": layers.ratio(d("retained"), d("retained") + d("evicted")),
        "traffic.deltas": layers.ratio(d("deltas"), d("epochs")),
        "demand.iterations": traced.iteration_count,
        "demand.sssp_runs": traced.sssp_runs,
        "trace.overhead_ms": (traced_s / traced_factor - plain_s / plain_factor) * 1e3,
        "e2e.tail_ms": percentile([step / plain_factor * 1e3 for step in plain_steps], 90),
    })
    outcome = Outcome(audit=report)
    outcome.layers = layers.complete(values)
    outcome.tracer = tracer
    outcome.lines += [
        f"solve at the reference speed: untraced {plain_s / plain_factor * 1e3:.1f} ms, "
        f"traced {traced_s / traced_factor * 1e3:.1f} ms, "
        f"{traced.iteration_count} iterations, {int(d('epochs'))} epochs",
        f"accounting of the traced solve ({values['trace.accounted_share']:.1%} "
        "attributed to layer spans):",
    ] + layers.accounting(analysis, 1)
    return outcome
