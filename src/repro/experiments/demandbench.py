"""Pinned batch-OD benchmark: skim amortization, select-link, assignment.

The demand subsystem's bargain: one one-to-all SSSP per origin prices a
whole OD matrix, the retained trees answer select-link for free, and
the assignment loop closes planning back into congestion. This harness
measures the amortization on one **pinned workload** (fixed grid,
fixed seed, fixed zone sets, fixed demand matrix, fixed epoch sweeps)
and audits everything against the independent dict-of-dict
:func:`~repro.kernel.loop.reference_sssp` — a report that is fast but
wrong is not a report.

Scenarios (each best-of-N over ``repetitions`` timed runs):

* ``skim/csr`` — the full OD matrix on the CSR tier (warm build
  cache) — the production path;
* ``pointwise/csr`` — the same matrix as |O| x |D| independent point
  Dijkstras on the CSR tier: the workload shape the skim replaces,
  and the amortization baseline.

After the timed scenarios, ``epochs`` traffic epochs are applied; for
each one the matrix is re-skimmed and every cell re-audited bit-exact
(``==``, not approximately — both relax edges in the same order, so
the float sums are identical) against a fresh whole-graph reference
SSSP per origin, the retained tree paths are re-priced, and the
select-link flows are re-derived from brute-force per-pair membership
of the reference trees' paths. Finally a Frank-Wolfe assignment runs
on a fresh copy of the pinned graph to relative gap < ``tolerance``,
with an auditor checking **every iteration's** prices against the
reference SSSP and the volumes against node-level demand
conservation.

``atis-repro bench-demand --out BENCH_demand.json`` runs it and writes
the report (``benchmarks/bench_demand.py`` runs it piece by piece); the
report refuses to serialise unless every scenario ran, every epoch was
audited, **zero** cells or flows were inexact, and the assignment
converged.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.demand.assignment import AssignmentResult, assign
from repro.demand.selectlink import SelectLinkResult, select_link
from repro.demand.skim import SkimMatrix, skim
from repro.experiments.wallclock import ScenarioTiming, time_best_of
from repro.graphs.graph import Graph, NodeId
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr
from repro.kernel.loop import reference_sssp

Edge = Tuple[NodeId, NodeId]

#: Every scenario a complete report must contain, in report order.
EXPECTED_SCENARIOS = (
    "skim/csr",
    "pointwise/csr",
)


@dataclass
class DemandBenchConfig:
    """The pinned workload. Changing any field changes what a number
    means across commits — bump deliberately, never casually."""

    grid: int = 30
    cost_model: str = "variance"
    seed: int = 1993
    #: Timed runs of the full skim per scenario.
    repetitions: int = 3
    #: Zone counts: the skim is ``origins`` x ``destinations``.
    origins: int = 12
    destinations: int = 12
    #: Links under select-link analysis (drawn from the loaded routes).
    links: int = 8
    #: Traffic epochs applied after the timed scenarios.
    epochs: int = 3
    #: Edges re-priced per epoch.
    epoch_edges: int = 12
    #: Assignment convergence criterion (relative gap) and cap.
    tolerance: float = 1e-4
    max_iterations: int = 150


@dataclass
class EpochAudit:
    """One traffic epoch: re-skim, re-audit cells, paths, and flows."""

    number: int
    deltas: int
    cells_checked: int
    inexact_cells: int
    paths_checked: int
    inexact_paths: int
    links_checked: int
    link_mismatches: int


@dataclass
class AssignmentAudit:
    """The pinned equilibrium run and its per-iteration audit."""

    converged: bool = False
    iterations: int = 0
    relative_gap: float = math.inf
    demand_total: float = 0.0
    epochs_applied: int = 0
    audited_iterations: int = 0
    inexact_cells: int = 0
    max_conservation_residual: float = math.inf
    ran: bool = False


@dataclass
class DemandBenchReport:
    """Scenario timings plus the three-layer exactness audit."""

    config: DemandBenchConfig
    timings: Dict[str, ScenarioTiming] = field(default_factory=dict)
    epochs: List[EpochAudit] = field(default_factory=list)
    assignment: AssignmentAudit = field(default_factory=AssignmentAudit)
    #: Pre-epoch audit of the timed matrix.
    cells_checked: int = 0
    inexact_cells: int = 0
    paths_checked: int = 0
    inexact_paths: int = 0
    links_checked: int = 0
    link_mismatches: int = 0
    unreachable_cells: int = 0

    @property
    def complete(self) -> bool:
        return (
            all(name in self.timings for name in EXPECTED_SCENARIOS)
            and len(self.epochs) == self.config.epochs
            and self.assignment.ran
        )

    @property
    def missing(self) -> List[str]:
        out = [name for name in EXPECTED_SCENARIOS if name not in self.timings]
        if len(self.epochs) != self.config.epochs:
            out.append(
                f"epochs ({len(self.epochs)}/{self.config.epochs} audited)"
            )
        if not self.assignment.ran:
            out.append("assignment")
        return out

    @property
    def total_inexact(self) -> int:
        return (
            self.inexact_cells
            + self.inexact_paths
            + self.link_mismatches
            + sum(
                e.inexact_cells + e.inexact_paths + e.link_mismatches
                for e in self.epochs
            )
            + self.assignment.inexact_cells
        )

    @property
    def clean(self) -> bool:
        return self.total_inexact == 0 and (
            not self.assignment.ran or self.assignment.converged
        )

    def speedup(self, baseline: str, candidate: str) -> float:
        """How many times faster ``candidate`` is than ``baseline``."""
        base = self.timings[baseline].best_s
        cand = self.timings[candidate].best_s
        return base / cand if cand > 0 else float("inf")

    @property
    def speedups(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        pairs = (
            ("skim_vs_pointwise", "pointwise/csr", "skim/csr"),
        )
        for name, baseline, candidate in pairs:
            if baseline in self.timings and candidate in self.timings:
                out[name] = self.speedup(baseline, candidate)
        return out

    def summary_lines(self) -> List[str]:
        cfg = self.config
        lines = [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, {cfg.origins}x{cfg.destinations} zones, "
            f"best of {cfg.repetitions}, {cfg.epochs} epochs x "
            f"{cfg.epoch_edges} edges, {cfg.links} links",
        ]
        for name in EXPECTED_SCENARIOS:
            timing = self.timings.get(name)
            if timing is None:
                lines.append(f"{name:16s} MISSING")
                continue
            lines.append(
                f"{name:16s} best {timing.best_s * 1e3:8.3f} ms   "
                f"mean {timing.mean_s * 1e3:8.3f} ms"
            )
        lines.append(
            f"audit: {self.cells_checked} cells "
            f"({self.unreachable_cells} unreachable, reported inf), "
            f"{self.paths_checked} paths, {self.links_checked} links — "
            f"{self.inexact_cells + self.inexact_paths + self.link_mismatches}"
            " inexact pre-epoch"
        )
        for epoch in self.epochs:
            lines.append(
                f"epoch {epoch.number}: {epoch.deltas} deltas, "
                f"{epoch.cells_checked} cells / {epoch.paths_checked} paths "
                f"/ {epoch.links_checked} links audited, "
                f"{epoch.inexact_cells + epoch.inexact_paths + epoch.link_mismatches}"
                " inexact"
            )
        a = self.assignment
        if a.ran:
            lines.append(
                f"assignment: {'converged' if a.converged else 'DID NOT CONVERGE'} "
                f"in {a.iterations} iterations to gap {a.relative_gap:.2e} "
                f"(tolerance {cfg.tolerance:.0e}), {a.epochs_applied} epochs, "
                f"{a.audited_iterations} iterations audited "
                f"({a.inexact_cells} inexact), conservation residual "
                f"{a.max_conservation_residual:.2e}"
            )
        else:
            lines.append("assignment: MISSING")
        for name, ratio in self.speedups.items():
            lines.append(f"speedup {name}: {ratio:.2f}x")
        lines.append(f"total inexact: {self.total_inexact}")
        return lines

    def to_json(self, indent: int = 2) -> str:
        if not self.complete:
            raise ValueError(
                "refusing to serialise a partial demand report; missing: "
                f"{', '.join(self.missing)}"
            )
        if self.total_inexact != 0:
            raise ValueError(
                "refusing to serialise an inexact demand report; "
                f"{self.total_inexact} answers disagreed with the "
                "reference SSSP"
            )
        if not self.assignment.converged:
            raise ValueError(
                "refusing to serialise a non-converged demand report; "
                f"relative gap {self.assignment.relative_gap:.3e} after "
                f"{self.assignment.iterations} iterations (tolerance "
                f"{self.config.tolerance:.1e})"
            )
        cfg = self.config
        a = self.assignment
        return json.dumps(
            {
                "workload": {
                    "grid": cfg.grid,
                    "cost_model": cfg.cost_model,
                    "seed": cfg.seed,
                    "repetitions": cfg.repetitions,
                    "origins": cfg.origins,
                    "destinations": cfg.destinations,
                    "links": cfg.links,
                    "epochs": cfg.epochs,
                    "epoch_edges": cfg.epoch_edges,
                    "tolerance": cfg.tolerance,
                    "max_iterations": cfg.max_iterations,
                },
                "scenarios": {
                    name: {
                        "best_s": round(t.best_s, 9),
                        "mean_s": round(t.mean_s, 9),
                        "repetitions": t.repetitions,
                    }
                    for name, t in (
                        (name, self.timings[name])
                        for name in EXPECTED_SCENARIOS
                    )
                },
                "epochs": [
                    {
                        "number": e.number,
                        "deltas": e.deltas,
                        "cells_checked": e.cells_checked,
                        "paths_checked": e.paths_checked,
                        "links_checked": e.links_checked,
                        "inexact": e.inexact_cells
                        + e.inexact_paths
                        + e.link_mismatches,
                    }
                    for e in self.epochs
                ],
                "assignment": {
                    "converged": a.converged,
                    "iterations": a.iterations,
                    "relative_gap": a.relative_gap,
                    "demand_total": round(a.demand_total, 6),
                    "epochs_applied": a.epochs_applied,
                    "audited_iterations": a.audited_iterations,
                    "max_conservation_residual": a.max_conservation_residual,
                },
                "speedups": {
                    name: round(ratio, 4)
                    for name, ratio in self.speedups.items()
                },
                "audit": {
                    "cells_checked": self.cells_checked
                    + sum(e.cells_checked for e in self.epochs),
                    "paths_checked": self.paths_checked
                    + sum(e.paths_checked for e in self.epochs),
                    "links_checked": self.links_checked
                    + sum(e.links_checked for e in self.epochs),
                    "unreachable_cells": self.unreachable_cells,
                    "inexact": self.total_inexact,
                },
            },
            indent=indent,
        )


def pinned_graph(config: DemandBenchConfig) -> Graph:
    return make_paper_grid(config.grid, config.cost_model, seed=config.seed)


def pinned_zones(
    config: DemandBenchConfig, graph: Graph
) -> Tuple[List[NodeId], List[NodeId]]:
    """The pinned origin and destination zone sets (may overlap)."""
    rng = random.Random(config.seed)
    nodes = sorted(node.node_id for node in graph.nodes())
    origins = rng.sample(nodes, config.origins)
    destinations = rng.sample(nodes, config.destinations)
    return origins, destinations


def pinned_demand(
    config: DemandBenchConfig,
    origins: List[NodeId],
    destinations: List[NodeId],
) -> Dict[Tuple[NodeId, NodeId], float]:
    """One pinned volume per distinct OD pair (``o != d``)."""
    rng = random.Random(config.seed + 3)
    return {
        (o, d): rng.uniform(20.0, 80.0)
        for o in origins
        for d in destinations
        if o != d
    }


def pinned_links(
    config: DemandBenchConfig, matrix: SkimMatrix
) -> List[Edge]:
    """Links for the select-link analysis, drawn from loaded routes.

    Sampling from edges the routes actually cross keeps the analysis
    non-trivial (an all-empty flow table audits clean vacuously).
    """
    used = sorted({edge for _, _, edges in matrix.routes() for edge in edges})
    rng = random.Random(config.seed + 11)
    return rng.sample(used, min(config.links, len(used)))


def _tree_path(
    pred: Dict[NodeId, Optional[NodeId]], origin: NodeId, destination: NodeId
) -> List[NodeId]:
    path = [destination]
    node = destination
    while node != origin:
        node = pred[node]
        path.append(node)
    path.reverse()
    return path


def audit_skim(graph: Graph, matrix: SkimMatrix) -> Tuple[int, int, int, int, int]:
    """Bit-exact audit of every cell (and retained path) of a skim.

    Returns ``(cells, inexact_cells, paths, inexact_paths,
    unreachable)``. Cells compare with ``==`` against an independent
    whole-graph :func:`reference_sssp` per origin — identical relaxation order
    makes the float sums identical, so approximate comparison would
    only hide bugs. Retained paths must re-price (left-to-right edge
    sum) to exactly the cell value.
    """
    cells = inexact_cells = paths = inexact_paths = unreachable = 0
    for i, origin in enumerate(matrix.origins):
        ref, _ = reference_sssp(graph, origin)
        for j, destination in enumerate(matrix.destinations):
            cells += 1
            expected = ref.get(destination, math.inf)
            got = matrix.costs[i][j]
            if got != expected:
                inexact_cells += 1
            if got == math.inf:
                unreachable += 1
                continue
            if matrix.trees is not None:
                paths += 1
                path = matrix.path(origin, destination)
                if path is None or graph.path_cost(path) != got:
                    inexact_paths += 1
    return cells, inexact_cells, paths, inexact_paths, unreachable


def audit_select_link(
    graph: Graph,
    result: SelectLinkResult,
    demand: Dict[Tuple[NodeId, NodeId], float],
    origins: List[NodeId],
    destinations: List[NodeId],
) -> Tuple[int, int]:
    """Brute-force re-derivation of every link's flow table.

    For each origin an independent :func:`reference_sssp` tree is built; each
    OD pair's tree path gives its link membership, and the reference
    flow tables must match the analysed ones exactly — pair sets and
    volumes both. Returns ``(links_checked, mismatched_links)``.
    """
    reference: Dict[Edge, Dict[Tuple[NodeId, NodeId], float]] = {
        link: {} for link in result.links
    }
    for origin in origins:
        dist, pred = reference_sssp(graph, origin)
        for destination in destinations:
            if destination == origin or destination not in dist:
                continue
            path = _tree_path(pred, origin, destination)
            edges = set(zip(path, path[1:]))
            volume = demand.get((origin, destination), 1.0)
            for link in result.links:
                if link in edges:
                    reference[link][(origin, destination)] = volume
    mismatches = 0
    for link in result.links:
        if result.flow(link).pairs != reference[link]:
            mismatches += 1
    return len(result.links), mismatches


def run_demand_bench(
    config: Optional[DemandBenchConfig] = None,
    scenarios: Tuple[str, ...] = EXPECTED_SCENARIOS,
    with_epochs: bool = True,
    with_assignment: bool = True,
) -> DemandBenchReport:
    """Run the pinned scenarios, epoch audits, and assignment.

    ``scenarios`` / ``with_epochs`` / ``with_assignment`` exist so the
    pytest harness can run one piece per test; a partial report refuses
    :meth:`~DemandBenchReport.to_json`.
    """
    config = config or DemandBenchConfig()
    report = DemandBenchReport(config=config)
    graph = pinned_graph(config)
    origins, destinations = pinned_zones(config, graph)
    demand = pinned_demand(config, origins, destinations)
    reps = config.repetitions

    def record(name: str, fn: Callable[[], object]) -> None:
        best, mean = time_best_of(fn, reps)
        report.timings[name] = ScenarioTiming(name, best, mean, reps)

    wanted = set(scenarios)
    if "skim/csr" in wanted:
        csr.csr_for(graph)  # warm the build cache outside the timing
        record("skim/csr", lambda: skim(graph, origins, destinations))
    if "pointwise/csr" in wanted:
        csr.csr_for(graph)

        def pointwise() -> None:
            for origin in origins:
                for destination in destinations:
                    csr.uniform_cost(graph, origin, destination)

        record("pointwise/csr", pointwise)

    # Pre-epoch audit: the production-tier matrix, paths retained.
    matrix = skim(graph, origins, destinations, retain_paths=True)
    (
        report.cells_checked,
        report.inexact_cells,
        report.paths_checked,
        report.inexact_paths,
        report.unreachable_cells,
    ) = audit_skim(graph, matrix)
    links = pinned_links(config, matrix)
    flows = select_link(matrix, links, demand)
    report.links_checked, report.link_mismatches = audit_select_link(
        graph, flows, demand, origins, destinations
    )

    if with_epochs:
        from repro.traffic.feed import TrafficFeed

        feed = TrafficFeed(graph)
        edge_rng = random.Random(config.seed + 7)
        edges = sorted((e.source, e.target) for e in graph.edges())
        for number in range(1, config.epochs + 1):
            sample = edge_rng.sample(edges, min(config.epoch_edges, len(edges)))
            updates = [
                (u, v, graph.edge_cost(u, v) * edge_rng.uniform(0.7, 1.6))
                for u, v in sample
            ]
            epoch = feed.apply(updates)
            matrix = skim(graph, origins, destinations, retain_paths=True)
            cells, bad_cells, paths, bad_paths, _ = audit_skim(graph, matrix)
            flows = select_link(matrix, links, demand)
            checked_links, bad_links = audit_select_link(
                graph, flows, demand, origins, destinations
            )
            report.epochs.append(
                EpochAudit(
                    number=number,
                    deltas=len(epoch.deltas),
                    cells_checked=cells,
                    inexact_cells=bad_cells,
                    paths_checked=paths,
                    inexact_paths=bad_paths,
                    links_checked=checked_links,
                    link_mismatches=bad_links,
                )
            )

    if with_assignment:
        # A fresh pinned graph: the equilibrium run owns its own cost
        # trajectory, independent of the epoch sweeps above.
        assignment_graph = pinned_graph(config)
        audit = report.assignment
        residuals: List[float] = []

        def auditor(iteration, g, m, aon_volumes) -> None:
            _, bad_cells, _, bad_paths, _ = audit_skim(g, m)
            audit.audited_iterations += 1
            audit.inexact_cells += bad_cells + bad_paths

        result: AssignmentResult = assign(
            assignment_graph,
            demand,
            method="fw",
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
            auditor=auditor,
            record_volumes=True,
        )
        for record_ in result.iterations:
            if record_.volumes is not None:
                snapshot = AssignmentResult(
                    graph_name=result.graph_name,
                    method=result.method,
                    converged=True,
                    relative_gap=0.0,
                    tolerance=config.tolerance,
                    volumes=record_.volumes,
                    costs={},
                    free_flow={},
                    capacity={},
                    demand_total=result.demand_total,
                )
                residuals.append(snapshot.conservation_residual(demand))
        audit.ran = True
        audit.converged = result.converged
        audit.iterations = result.iteration_count
        audit.relative_gap = result.relative_gap
        audit.demand_total = result.demand_total
        audit.epochs_applied = result.epochs_applied
        audit.max_conservation_residual = max(residuals) if residuals else 0.0
        # Conservation is part of cleanliness: a violation is as wrong
        # as a mispriced cell.
        if audit.max_conservation_residual > 1e-6 * max(
            1.0, result.demand_total
        ):
            audit.inexact_cells += 1

    return report
