"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``route``      plan a single-pair route on a generated or loaded graph;
``compare``    run the paper's three algorithms on one query;
``alternatives`` list the K best (or diverse) routes;
``experiment`` run one registered experiment (E1..E11) and print its
               rendered tables;
``report``     regenerate the full EXPERIMENTS.md content;
``info``       summarize a graph (size, degree stats, diameter);
``bench-chaos`` replay a query/update workload through a RouteService
               on either backend, with deterministic storage faults
               injected into the relational tier, and audit that every
               answer is exact or explicitly degraded;
``bench-recovery`` run the kill-at-op-N crash matrix: crash each
               workload at a sweep of operation indexes, recover from
               the write-ahead log, and audit committed-state survival
               (``--json``/``--out`` emit the audit for CI artifacts);
``bench``      run one pinned benchmark by name (``wallclock``,
               ``accel``, ``demand``, ``fleet``, ``fleet-chaos``; see
               :mod:`repro.bench`), print its summary and, with
               ``--out``, write its JSON report — exits non-zero on a
               failed audit (writing nothing) or a missed speedup floor.

Graphs are specified with ``--graph``: ``grid:K[:costmodel[:seed]]``
(e.g. ``grid:30:variance``), ``minneapolis[:seed]``, or ``json:PATH``
for a file written by :func:`repro.graphs.io.save_json`. Node ids on
the command line are parsed as Python literals (``"(0, 0)"``) with a
plain-string fallback.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import List, Optional, Tuple

from repro.graphs.graph import Graph, NodeId
from repro.graphs.grid import make_paper_grid
from repro.graphs.io import load_json
from repro.graphs.roadmap import make_minneapolis_map
from repro.core.planner import RoutePlanner


def _parse_node(text: str) -> NodeId:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _load_graph(spec: str) -> Graph:
    parts = spec.split(":")
    kind = parts[0]
    if kind == "grid":
        if len(parts) < 2:
            raise SystemExit("grid graphs need a size: grid:K[:model[:seed]]")
        k = int(parts[1])
        model = parts[2] if len(parts) > 2 else "variance"
        seed = int(parts[3]) if len(parts) > 3 else 1993
        return make_paper_grid(k, model, seed=seed)
    if kind == "minneapolis":
        seed = int(parts[1]) if len(parts) > 1 else 1993
        return make_minneapolis_map(seed=seed).graph
    if kind == "json":
        if len(parts) < 2:
            raise SystemExit("json graphs need a path: json:PATH")
        return load_json(":".join(parts[1:]))
    raise SystemExit(
        f"unknown graph spec {spec!r}; use grid:K[:model[:seed]], "
        "minneapolis[:seed] or json:PATH"
    )


def _resolve_endpoints(graph: Graph, args) -> Tuple[NodeId, NodeId]:
    source = _parse_node(args.source)
    destination = _parse_node(args.destination)
    if args.graph.startswith("minneapolis"):
        # Allow landmark letters on the road map.
        landmarks = make_minneapolis_map(
            seed=int(args.graph.split(":")[1]) if ":" in args.graph else 1993
        ).landmarks
        source = landmarks.get(args.source, source)
        destination = landmarks.get(args.destination, destination)
    return source, destination


def _cmd_route(args) -> int:
    graph = _load_graph(args.graph)
    source, destination = _resolve_endpoints(graph, args)
    if args.backend == "relational":
        from repro.service import RouteService

        service = RouteService()
        result = service.plan(
            graph, source, destination, args.algorithm, args.estimator,
            args.weight, backend="relational",
        )
    else:
        planner = RoutePlanner()
        result = planner.plan(
            graph, source, destination, args.algorithm, args.estimator,
            args.weight,
        )
    if not result.found:
        print(f"no route from {source!r} to {destination!r}")
        return 1
    progress = (f"{result.iterations} iterations" if result.io is not None
                else f"{result.stats.nodes_expanded} nodes expanded")
    print(f"cost {result.cost:.4f} over {result.path_length} edges ({progress})")
    if result.io is not None:
        print(f"relational execution: {result.execution_cost:.2f} units over "
              f"{result.iterations} iterations "
              f"(init {result.init_cost:.2f}, sync {result.sync_cost:.2f})")
    if args.show_path:
        print(" -> ".join(repr(node) for node in result.path))
    return 0


def _cmd_compare(args) -> int:
    graph = _load_graph(args.graph)
    source, destination = _resolve_endpoints(graph, args)
    planner = RoutePlanner()
    suite = planner.plan_paper_suite(graph, source, destination)
    header = f"{'algorithm':<12}{'iterations':>12}{'cost':>12}{'expanded':>10}"
    print(header)
    print("-" * len(header))
    for name, result in suite.items():
        cost = f"{result.cost:.4f}" if result.found else "unreachable"
        print(f"{name:<12}{result.iterations:>12}{cost:>12}"
              f"{result.stats.nodes_expanded:>10}")
    return 0


def _cmd_alternatives(args) -> int:
    graph = _load_graph(args.graph)
    source, destination = _resolve_endpoints(graph, args)
    planner = RoutePlanner()
    if args.diverse:
        result = planner.plan(
            graph, source, destination, "diverse_alternatives",
            count=args.k, max_overlap=args.max_overlap,
        )
    else:
        result = planner.plan(graph, source, destination, "kshortest", k=args.k)
    routes = result.alternatives
    if not routes:
        print(f"no route from {source!r} to {destination!r}")
        return 1
    for rank, result in enumerate(routes, start=1):
        print(f"{rank}. cost {result.cost:.4f} over "
              f"{result.path_length} edges")
        if args.show_path:
            print("   " + " -> ".join(repr(node) for node in result.path))
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.spec import get_experiment

    spec = get_experiment(args.experiment_id)
    result = spec.runner()
    print(spec.renderer(result))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    report = generate_report(verbose=not args.quiet)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report)
    return 0


def _cmd_bench_chaos(args) -> int:
    from repro.faults import ChaosConfig, run_chaos

    config = ChaosConfig(
        rounds=args.rounds,
        queries_per_round=args.queries,
        distinct_pairs=args.pairs,
        concurrency=args.concurrency,
        batch_size=args.batch_size,
        algorithm=args.algorithm,
        backend=args.backend,
        update_period=args.update_period,
        update_fraction=args.update_fraction,
        seed=args.seed,
        fault_seed=args.fault_seed,
        read_error_rate=args.read_error_rate,
        write_error_rate=args.write_error_rate,
        torn_page_rate=args.torn_page_rate,
        latency_rate=args.latency_rate,
        max_retries=args.max_retries,
    )
    report = run_chaos(_load_graph(args.graph), config=config)
    for line in report.summary_lines():
        print(line)
    if report.wrong_unflagged:
        print(f"UNFLAGGED WRONG ANSWERS: {report.wrong_unflagged}")
        return 1
    return 0


def _cmd_bench_recovery(args) -> int:
    from repro.faults import CrashMatrixConfig, run_crash_matrix

    config = CrashMatrixConfig(
        workloads=tuple(args.workloads),
        kill_points=args.kill_points,
        seed=args.seed,
        fault_seed=args.fault_seed,
        tuples=args.tuples,
        updates=args.updates,
        deletes=args.deletes,
        grid=args.grid,
        epochs=args.epochs,
        queries_per_epoch=args.queries_per_epoch,
        audit_pairs=args.audit_pairs,
    )
    report = run_crash_matrix(config)
    payload = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        for line in report.summary_lines():
            print(line)
        for failure in report.failures:
            print(f"AUDIT FAILURE: {failure}")
    return 0 if report.clean else 1


def _cmd_bench(args) -> int:
    from repro.bench import BENCHES, write_report

    bench = BENCHES[args.name]
    report = bench.run(bench.config)
    for line in report.summary_lines():
        print(line)
    problems = report.problems()
    if problems:
        # A wrong answer means the system is broken, not slow: write
        # nothing and fail the run.
        print(f"FAIL: {'; '.join(problems)}", file=sys.stderr)
        return 1
    if args.out:
        write_report(report, args.out)
    missed = bench.missed_floors(report)
    for line in missed:
        print(f"FAIL: speedup {line}", file=sys.stderr)
    return 1 if missed else 0


def _cmd_info(args) -> int:
    from repro.graphs.analysis import (
        degree_statistics,
        hop_diameter,
        weakly_connected_components,
    )

    graph = _load_graph(args.graph)
    stats = degree_statistics(graph)
    components = weakly_connected_components(graph)
    print(f"name:        {graph.name}")
    print(f"nodes:       {graph.node_count}")
    print(f"edges:       {graph.edge_count} (directed)")
    print(f"degree:      min {stats.minimum} / avg {stats.average:.2f} / "
          f"max {stats.maximum}")
    print(f"components:  {len(components)} "
          f"(largest {len(components[0]) if components else 0})")
    print(f"hop diameter (sampled): {hop_diameter(graph, sample=16)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.bench import BENCHES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATIS path computation (ICDE 1993 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_graph_and_pair(sub):
        sub.add_argument("--graph", default="grid:30:variance",
                         help="grid:K[:model[:seed]] | minneapolis[:seed] | json:PATH")
        sub.add_argument("source", help="source node id (or landmark letter)")
        sub.add_argument("destination", help="destination node id")

    route = commands.add_parser("route", help="plan one route")
    add_graph_and_pair(route)
    route.add_argument("--algorithm", default="astar")
    route.add_argument("--estimator", default="euclidean")
    route.add_argument("--weight", type=float, default=1.0)
    route.add_argument("--backend", choices=("memory", "relational"),
                       default="memory",
                       help="execution tier: in-memory planner or the "
                            "simulated relational engine (prints charged "
                            "I/O units)")
    route.add_argument("--show-path", action="store_true")
    route.set_defaults(func=_cmd_route)

    compare = commands.add_parser(
        "compare", help="run the paper's three algorithms on one query"
    )
    add_graph_and_pair(compare)
    compare.set_defaults(func=_cmd_compare)

    alternatives = commands.add_parser(
        "alternatives", help="K best (or diverse) routes"
    )
    add_graph_and_pair(alternatives)
    alternatives.add_argument("-k", type=int, default=3)
    alternatives.add_argument("--diverse", action="store_true")
    alternatives.add_argument("--max-overlap", type=float, default=0.7)
    alternatives.add_argument("--show-path", action="store_true")
    alternatives.set_defaults(func=_cmd_alternatives)

    experiment = commands.add_parser(
        "experiment", help="run one registered experiment (E1..E11)"
    )
    experiment.add_argument("experiment_id")
    experiment.set_defaults(func=_cmd_experiment)

    report = commands.add_parser(
        "report", help="regenerate the full experiment report"
    )
    report.add_argument("--output", "-o", default=None)
    report.add_argument("--quiet", "-q", action="store_true")
    report.set_defaults(func=_cmd_report)

    info = commands.add_parser("info", help="summarize a graph")
    info.add_argument("--graph", default="grid:30:variance")
    info.set_defaults(func=_cmd_info)

    bench_chaos = commands.add_parser(
        "bench-chaos",
        help="replay a faulted query/update workload and audit that "
             "every answer is exact or explicitly degraded",
    )
    bench_chaos.add_argument("--graph", default="grid:8:variance",
                             help="grid:K[:model[:seed]] | minneapolis[:seed] | json:PATH")
    bench_chaos.add_argument("--rounds", type=int, default=6)
    bench_chaos.add_argument("--queries", type=int, default=10,
                             help="queries per round")
    bench_chaos.add_argument("--pairs", type=int, default=8,
                             help="size of the recurring OD-pair pool")
    bench_chaos.add_argument("--concurrency", type=int, default=1,
                             help="1 = sequential (deterministic replay)")
    bench_chaos.add_argument("--batch-size", type=int, default=3,
                             help="queries served via plan_many per round")
    bench_chaos.add_argument("--algorithm",
                             choices=("dijkstra", "astar", "iterative"),
                             default="dijkstra")
    bench_chaos.add_argument("--backend", choices=("relational", "memory"),
                             default="relational",
                             help="execution tier the service plans on")
    bench_chaos.add_argument("--update-period", type=int, default=2,
                             help="apply an epoch before every Nth round "
                                  "(0 disables traffic)")
    bench_chaos.add_argument("--update-fraction", type=float, default=0.1)
    bench_chaos.add_argument("--seed", type=int, default=1993,
                             help="workload seed (pairs, epoch sweeps)")
    bench_chaos.add_argument("--fault-seed", type=int, default=7,
                             help="fault-schedule seed")
    bench_chaos.add_argument("--read-error-rate", type=float, default=0.0005)
    bench_chaos.add_argument("--write-error-rate", type=float, default=0.0002)
    bench_chaos.add_argument("--torn-page-rate", type=float, default=0.0002)
    bench_chaos.add_argument("--latency-rate", type=float, default=0.001)
    bench_chaos.add_argument("--max-retries", type=int, default=3)
    bench_chaos.set_defaults(func=_cmd_bench_chaos)

    bench_recovery = commands.add_parser(
        "bench-recovery",
        help="run the kill-at-op-N crash matrix and audit that "
             "recovery preserves every committed operation",
    )
    bench_recovery.add_argument(
        "--workloads", nargs="+",
        choices=("insert", "index-build", "traffic-sync"),
        default=["insert", "index-build", "traffic-sync"])
    bench_recovery.add_argument("--kill-points", type=int, default=0,
                                help="kill points per workload "
                                     "(0 = every operation index)")
    bench_recovery.add_argument("--seed", type=int, default=1993,
                                help="workload seed")
    bench_recovery.add_argument("--fault-seed", type=int, default=7)
    bench_recovery.add_argument("--tuples", type=int, default=24)
    bench_recovery.add_argument("--updates", type=int, default=6)
    bench_recovery.add_argument("--deletes", type=int, default=3)
    bench_recovery.add_argument("--grid", type=int, default=4,
                                help="traffic workload grid size K")
    bench_recovery.add_argument("--epochs", type=int, default=3)
    bench_recovery.add_argument("--queries-per-epoch", type=int, default=2)
    bench_recovery.add_argument("--audit-pairs", type=int, default=4)
    bench_recovery.add_argument("--json", action="store_true",
                                help="print the full audit as JSON")
    bench_recovery.add_argument("--out", metavar="PATH", default="",
                                help="also write the JSON audit to PATH")
    bench_recovery.set_defaults(func=_cmd_bench_recovery)

    bench = commands.add_parser(
        "bench",
        help="run one pinned benchmark (the BENCH_*.json trajectory), "
             "audited for exactness",
    )
    bench.add_argument("name", choices=list(BENCHES))
    bench.add_argument("--out", metavar="PATH", default="",
                       help="also write the JSON report to PATH")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
