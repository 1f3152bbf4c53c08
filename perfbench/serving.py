"""The ``commute`` and ``fleet`` workloads: one seeded OD stream served
by a single ``RouteService`` or by a 2x2 ``FleetRouter``.

Phases, in stream order (so both workloads see the identical open-loop
segment, arrival schedule included):

1. set-up: map, serving system, then an untimed closed-loop warm-up
   over the first ``WARMUP_REQUESTS`` (fills the route cache, finishes
   the lazy CCH and CSR builds); repeated ``SETUP_REPEATS`` times;
2. ``SLICES`` rounds of an open-loop slice at ``RATE`` requests/s
   (latency from each due time) followed by a closed-loop slice with
   ``loadgen.CLIENTS`` clients (throughput). Slicing spreads both
   measurements over the whole run, so a stretch of slow machine
   weighs on both alike instead of on one of them.

Timings are taken at the reference speed (see ``speed.py``).

The open slices walk a fixed stream segment on a fixed schedule; the
closed slices continue through a second segment as far as time allows.
Epochs land at fixed stream positions in both.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import RouteService, TrafficFeed
from repro.fleet import FleetRouter, partition_graph

import inputs
import layers
import speed
from audit import Answer, audit_stream
from loadgen import LoopResult, closed_loop, merged, open_loop, percentile
from outcome import Outcome, peak_rss_mb
from tracing import Analysis, Tracer

#: Open-loop arrival rate, requests/s: under half the fleet's closed-loop
#: capacity on two cores, so a slow phase of the machine does not
#: saturate it, and far below the single service's. Both workloads use
#: it, so their latencies are read on one schedule.
RATE = 150.0
#: Share of ``--seconds`` spent in the open loop (the rest is closed).
OPEN_SHARE = 0.6
SLICES = 10
SETUP_REPEATS = 3
#: Closed-loop stream length; the loop stops on time long before.
CLOSED_CAPACITY = 40000
#: Route cache capacity of the default ``RouteService``.
CACHE_CAPACITY = 1024


@dataclass
class System:
    serve: Callable[[int], Answer]
    apply_epoch: Callable[[list], object]
    counters: Callable[[], Dict[str, float]]
    close: Callable[[], None]
    shard_of: Optional[Callable[[object], int]] = None
    #: Stream positions whose epochs this system applied, in order.
    log: List[int] = field(default_factory=list)


def _service_counters(snapshots: List[dict]) -> Dict[str, float]:
    keys = {
        "hits": "cache_hits", "misses": "cache_misses",
        "retained": "traffic_retained", "evicted": "traffic_evicted",
        "plan_retries": "plan_retries", "nodes_expanded": "nodes_expanded",
    }
    return {name: sum(snap[key] for snap in snapshots) for name, key in keys.items()}


def _answer(result) -> Answer:
    return Answer(found=result.found, cost=result.cost, path=list(result.path),
                  shed=bool(getattr(result, "shed", False)))


def build_commute(stream: inputs.ServingInputs) -> System:
    graph = inputs.road_map().graph
    service = RouteService(accelerator="cch")
    feed = TrafficFeed(graph)
    feed.subscribe(service)
    requests = stream.requests

    def serve(position: int) -> Answer:
        request = requests[position]
        return _answer(service.plan(graph, request.source, request.destination,
                                    algorithm=request.algorithm))

    def counters() -> Dict[str, float]:
        out = _service_counters([service.snapshot()])
        out.update(epochs=feed.epoch_count, deltas=feed.deltas_applied)
        return out

    return System(serve, feed.apply, counters, lambda: None)


def build_fleet(stream: inputs.ServingInputs) -> System:
    graph = inputs.road_map().graph
    partition = partition_graph(graph, 2, 2)
    router = FleetRouter(partition)
    feed = TrafficFeed(graph)
    feed.subscribe(router)
    requests = stream.requests

    def serve(position: int) -> Answer:
        request = requests[position]
        return _answer(router.plan(request.source, request.destination))

    def counters() -> Dict[str, float]:
        services = [
            worker.service.snapshot()
            for replica_set in router.workers.values()
            for worker in replica_set.workers
        ]
        out = _service_counters(services)
        fleet = router.snapshot()["fleet"]
        out.update(
            epochs=feed.epoch_count, deltas=feed.deltas_applied,
            queries=fleet["queries"], cross=fleet["cross_shard_queries"],
            stitched=fleet["stitched_answers"], pruned=fleet["local_pruned"],
            sheds=fleet["sheds"], router_retries=fleet["plan_retries"],
        )
        return out

    return System(serve, feed.apply, counters, router.shutdown, partition.shard_of)


BUILDERS = {"commute": build_commute, "fleet": build_fleet}


def _set_up(builder, stream, repeats: int):
    """Build and warm ``repeats`` times; keep the last system.

    Returns the set-up times at the reference speed.
    """
    seconds: List[float] = []
    system = warm = None
    for _ in range(repeats):
        if system is not None:
            system.close()
            system = None
        (system, warm), elapsed = speed.timed(_build_and_warm, builder, stream)
        seconds.append(elapsed)
    return system, seconds, warm


def _build_and_warm(builder, stream):
    system = builder(stream)
    return system, closed_loop(system.serve, stream.epochs, system.apply_epoch,
                               system.log, 0, inputs.WARMUP_REQUESTS)


def _audit(base, stream, system: System, loops, hops=None):
    answers, epoch_of, positions = {}, {}, []
    for loop in loops:
        answers.update(loop.answers)
        epoch_of.update(loop.epoch_of)
        positions.extend(loop.positions)
    return audit_stream(base, stream.requests, stream.epochs, system.log,
                        answers, epoch_of, positions, hops)


def _properties(stream, measured: LoopResult, system: System,
                hops: Dict[int, int], cuts) -> List[str]:
    requests = [stream.requests[p] for p in measured.positions]
    distinct = len({(r.source, r.destination) for r in requests})
    dijkstra = sum(1 for r in requests if r.algorithm == "dijkstra")
    epochs = len(measured.epoch_seconds)
    mix = {"short": 0, "medium": 0, "long": 0}
    for position in measured.positions:
        if position in hops:
            mix[layers.stratum(hops[position], cuts)] += 1
    lines = [
        f"inputs: {len(requests)} open-loop requests, {distinct} distinct OD pairs "
        f"(route cache holds {CACHE_CAPACITY}), {dijkstra / len(requests):.1%} dijkstra",
        f"inputs: {epochs} epochs of {inputs.EPOCH_EDGES} deltas, one per "
        f"{inputs.EPOCH_EVERY} requests, {inputs.EPOCH_RANGE[0]}-{inputs.EPOCH_RANGE[1]}x free flow",
        f"inputs: path-length terciles at <= {cuts[0]:g} / <= {cuts[1]:g} edges: "
        + ", ".join(f"{name} {count}" for name, count in mix.items()),
    ]
    if system.shard_of is not None:
        same = sum(1 for r in requests if system.shard_of(r.source) == system.shard_of(r.destination))
        lines.append(f"inputs: same-shard {same / len(requests):.1%}, "
                     f"cross-shard {1 - same / len(requests):.1%}")
    return lines


def _stratified_p50(loop, hops, cuts) -> Dict[str, float]:
    strata: Dict[str, List[float]] = {"short": [], "medium": [], "long": []}
    for position, (due, _sent, done) in loop.times.items():
        if position in hops:
            strata[layers.stratum(hops[position], cuts)].append((done - due) * 1e3)
    return {name: percentile(values, 50) for name, values in strata.items() if values}


def _tail(kind: str, latencies: List[float]) -> float:
    """The open-loop tail: mean of the slowest 1% (commute) or p99 (fleet).

    The slowest requests are the ones epochs delayed. A single-service
    stall delays only about two requests, so the epochs of a run delay
    about as many requests as p99 counts and p99 jumps between stalled
    and unstalled requests from run to run; their mean moves smoothly.
    A fleet stall delays a dozen, so p99 sits inside them, while the
    mean would follow the run's one longest stall.
    """
    if kind == "fleet":
        return percentile(latencies, 99)
    return statistics.fmean(sorted(latencies)[-max(10, len(latencies) // 100):])


def _open_lines(label: str, loop) -> List[str]:
    latencies = loop.latencies_ms()
    late = loop.lateness_ms()
    return [
        f"{label}: open loop {len(latencies)} requests at {RATE:g}/s, "
        f"p50 {percentile(latencies, 50):.3f} ms, p99 {percentile(latencies, 99):.3f} ms "
        f"({sum(1 for x in latencies if x > percentile(latencies, 99))} samples above p99)",
        f"{label}: generator lateness p50 {percentile(late, 50):.3f} ms, "
        f"p99 {percentile(late, 99):.3f} ms, max {max(late):.3f} ms; "
        f"backlog grew: {loop.backlog_grew()}",
    ]


def run(kind: str, seed: int, seconds: float, trace: bool) -> Outcome:
    base_graph = inputs.road_map().graph
    base = inputs.edge_costs(base_graph)
    if trace:
        return _run_traced(kind, seed, seconds, base_graph, base)
    warm_end = inputs.WARMUP_REQUESTS
    per_slice = int(RATE * seconds * OPEN_SHARE / SLICES)
    closed_start = warm_end + per_slice * SLICES
    stream = inputs.serving_stream(seed, base_graph, closed_start + CLOSED_CAPACITY)

    system, setups, warm = _set_up(BUILDERS[kind], stream, SETUP_REPEATS)
    # (loop, speed factor around it) per slice
    opened, closed = [], []
    for index in range(SLICES):
        start = warm_end + index * per_slice
        opened.append(speed.around(
            open_loop, system.serve, stream.epochs, system.apply_epoch,
            system.log, start, start + per_slice, RATE))
        closed.append(speed.around(
            closed_loop, system.serve, stream.epochs, system.apply_epoch,
            system.log, closed_start, len(stream.requests),
            seconds * (1 - OPEN_SHARE) / SLICES))
        closed_start = closed[-1][0].positions[-1] + 1
    system.close()
    rss = peak_rss_mb()

    measured = merged([loop for loop, _ in opened])
    closed_all = merged([loop for loop, _ in closed])
    hops: Dict[int, int] = {}
    report = _audit(base, stream, system, [warm, measured, closed_all], hops)
    cuts = layers.terciles([hops[p] for p in measured.positions if p in hops])
    latencies = [ms / factor for loop, factor in opened for ms in loop.latencies_ms()]
    outcome = Outcome(audit=report, valid=not measured.backlog_grew())
    outcome.e2e = {
        "latency_ms": percentile(latencies, 50),
        "throughput_per_s": len(closed_all.positions)
        / sum(loop.wall_s / factor for loop, factor in closed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    outcome.lines.append(f"tail_ms {_tail(kind, latencies):.3f} (reported, not gated)")
    factors = [factor for _, factor in opened + closed]
    outcome.lines.append(
        f"machine speed factor over the run: {min(factors):.3f}-{max(factors):.3f} "
        f"(median {statistics.median(factors):.3f}); lines below are raw, "
        "metrics at the reference speed")
    label = "route" if kind == "commute" else "fleet"
    outcome.lines += _properties(stream, measured, system, hops, cuts)
    outcome.lines += _open_lines(label, measured)
    strata = _stratified_p50(measured, hops, cuts)
    outcome.lines.append(f"{label}: p50 by path-length tercile: " + ", ".join(
        f"{name} {value:.3f} ms" for name, value in strata.items()))
    outcome.lines.append(
        f"{label}: closed loop {len(closed_all.positions)} requests in "
        f"{closed_all.wall_s:.2f} s with {len(closed_all.epoch_seconds)} epochs: "
        f"{len(closed_all.positions) / closed_all.wall_s:.1f} q/s")
    outcome.lines.append(
        f"{label}: set-up (map, system, {warm_end}-request warm-up) "
        + ", ".join(f"{s:.3f}" for s in setups) + " s")
    return outcome


def _open_pass(builder, stream, segment, tracer=None):
    """Set up a fresh system and run one open loop over ``segment``.

    Also returns the speed factor around the loop.
    """
    system, _setups, warm = _set_up(builder, stream, 1)
    before = system.counters()
    apply_epoch = system.apply_epoch
    if tracer is not None:
        tracer.enabled = True
        apply_epoch = tracer.rooted("epoch", apply_epoch)
    loop, factor = speed.around(open_loop, system.serve, stream.epochs, apply_epoch,
                                system.log, *segment, RATE, tracer)
    if tracer is not None:
        tracer.enabled = False
    after = system.counters()
    system.close()
    return system, warm, (loop, factor), before, after


def _run_traced(kind, seed, seconds, base_graph, base) -> Outcome:
    """Untraced then traced open loop on one segment, fresh systems.

    The fleet's traced run also replays the segment on one
    ``RouteService``: the single-service baseline for the fleet's cost.
    """
    warm_end = inputs.WARMUP_REQUESTS
    segment = (warm_end, warm_end + int(RATE * seconds / 2))
    stream = inputs.serving_stream(seed, base_graph, segment[1])
    builder = BUILDERS[kind]

    system_a, warm_a, (plain, plain_factor), _, _ = _open_pass(builder, stream, segment)
    tracer = Tracer()
    layers.install(tracer)
    try:
        system_b, warm_b, (traced, traced_factor), before, after = _open_pass(
            builder, stream, segment, tracer)
    finally:
        tracer.uninstall()

    hops: Dict[int, int] = {}
    report = _audit(base, stream, system_a, [warm_a, plain], hops)
    report.merge(_audit(base, stream, system_b, [warm_b, traced]))
    cuts = layers.terciles([hops[p] for p in plain.positions if p in hops])
    analysis = Analysis(tracer.spans)
    requests = len(traced.positions)
    epochs = len(traced.epoch_seconds)
    d = lambda key: layers.delta(after, before, key)  # noqa: E731
    values = layers.span_metrics(analysis, requests, epochs, cuts)
    values.update({
        "service.hit_rate": layers.ratio(d("hits"), d("hits") + d("misses")),
        "service.retained_ratio": layers.ratio(d("retained"), d("retained") + d("evicted")),
        "service.plan_retries": d("plan_retries"),
        "kernel.nodes_expanded": layers.ratio(d("nodes_expanded"), d("misses")),
        "traffic.deltas": layers.ratio(d("deltas"), d("epochs")),
    })
    if kind == "fleet":
        values.update({
            "fleet.stitched_ratio": layers.ratio(d("stitched"), d("queries")),
            "fleet.pruned_ratio": layers.ratio(d("pruned"), d("queries") - d("cross")),
            "fleet.shard_hit_rate": values["service.hit_rate"],
            "fleet.sheds": d("sheds"),
            "fleet.plan_retries": d("router_retries"),
        })
    # Overhead at the reference speed, as the end-to-end metrics are.
    plain_p50 = percentile(plain.latencies_ms(), 50) / plain_factor
    traced_p50 = percentile(traced.latencies_ms(), 50) / traced_factor
    values["trace.overhead_ms"] = traced_p50 - plain_p50
    values["e2e.tail_ms"] = _tail(kind, [ms / plain_factor for ms in plain.latencies_ms()])
    outcome = Outcome(audit=report, valid=not plain.backlog_grew())
    outcome.layers = layers.complete(values)
    outcome.tracer = tracer
    outcome.lines += _open_lines("untraced", plain) + _open_lines("traced", traced)
    outcome.lines.append(
        f"tracing overhead at the reference speed: p50 {traced_p50:.3f} - "
        f"{plain_p50:.3f} = {traced_p50 - plain_p50:.3f} ms; mean "
        f"{statistics.fmean(traced.latencies_ms()) / traced_factor:.3f} - "
        f"{statistics.fmean(plain.latencies_ms()) / plain_factor:.3f} ms")
    outcome.lines.append(
        f"accounting of the traced mean latency {values['trace.latency_ms']:.4f} ms/request "
        f"({values['trace.accounted_share']:.1%} attributed to layer spans):")
    outcome.lines += layers.accounting(analysis, requests)
    if kind == "fleet":
        system_c, warm_c, (single, single_factor), _, _ = _open_pass(
            build_commute, stream, segment)
        report.merge(_audit(base, stream, system_c, [warm_c, single]))
        fleet_ms = [ms / plain_factor for ms in plain.latencies_ms()]
        single_ms = [ms / single_factor for ms in single.latencies_ms()]
        outcome.lines += _open_lines("single service", single) + [
            "fleet over one RouteService, identical stream, schedule and epochs, "
            "at the reference speed: "
            f"p50 {percentile(fleet_ms, 50):.3f} ms / {percentile(single_ms, 50):.3f} ms "
            f"= {percentile(fleet_ms, 50) / percentile(single_ms, 50):.2f}x; "
            f"p99 {percentile(fleet_ms, 99):.3f} ms / {percentile(single_ms, 99):.3f} ms "
            f"= {percentile(fleet_ms, 99) / percentile(single_ms, 99):.2f}x",
        ]
    return outcome
