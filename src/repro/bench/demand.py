"""Pinned batch-OD benchmark: skim amortization, select-link, assignment.

The demand subsystem's bargain: one one-to-all SSSP per origin prices a
whole OD matrix, the retained trees answer select-link for free, and
the assignment loop closes planning back into congestion. This bench
measures the amortization and audits everything against the
:class:`repro.audit.Oracle`'s independent reference trees — a report
that is fast but wrong is not a report.

Scenarios (each best of ``repetitions`` timed runs):

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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.audit import Oracle
from repro.bench import BenchReport, pinned_epochs, pinned_grid
from repro.demand.assignment import AssignmentResult, assign
from repro.demand.selectlink import SelectLinkResult, select_link
from repro.demand.skim import SkimMatrix, skim
from repro.graphs.graph import Graph, NodeId
from repro.kernel import csr
from repro.traffic.feed import TrafficFeed

Edge = Tuple[NodeId, NodeId]


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

    @property
    def inexact(self) -> int:
        return self.inexact_cells + self.inexact_paths + self.link_mismatches


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
class DemandBenchReport(BenchReport):
    """Scenario timings plus the three-layer exactness audit."""

    NAME = "demand"
    SCENARIOS = ("skim/csr", "pointwise/csr")
    SPEEDUPS = (("skim_vs_pointwise", "pointwise/csr", "skim/csr"),)

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
    def total_inexact(self) -> int:
        return (
            self.inexact_cells
            + self.inexact_paths
            + self.link_mismatches
            + sum(e.inexact for e in self.epochs)
            + self.assignment.inexact_cells
        )

    def problems(self) -> List[str]:
        out = super().problems()
        if len(self.epochs) != self.config.epochs:
            out.append(
                f"partial: {len(self.epochs)}/{self.config.epochs} epochs "
                "audited"
            )
        a = self.assignment
        if not a.ran:
            out.append("partial: assignment did not run")
        elif not a.converged:
            out.append(
                f"non-converged assignment: relative gap "
                f"{a.relative_gap:.3e} after {a.iterations} iterations "
                f"(tolerance {self.config.tolerance:.1e})"
            )
        if self.total_inexact:
            out.append(
                f"{self.total_inexact} inexact answers disagreed with the "
                "reference SSSP"
            )
        return out

    def summary_lines(self) -> List[str]:
        cfg = self.config
        lines = [
            f"workload: grid {cfg.grid}x{cfg.grid} {cfg.cost_model} "
            f"seed={cfg.seed}, {cfg.origins}x{cfg.destinations} zones, "
            f"best of {cfg.repetitions}, {cfg.epochs} epochs x "
            f"{cfg.epoch_edges} edges, {cfg.links} links",
        ] + self.timing_lines(16)
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
                f"{epoch.inexact} inexact"
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
        return lines + self.speedup_lines() + [
            f"total inexact: {self.total_inexact}"
        ]

    def payload(self) -> Dict[str, Any]:
        a = self.assignment
        return {
            "epochs": [
                {
                    "number": e.number,
                    "deltas": e.deltas,
                    "cells_checked": e.cells_checked,
                    "paths_checked": e.paths_checked,
                    "links_checked": e.links_checked,
                    "inexact": e.inexact,
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
        }


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


def audit_skim(oracle: Oracle, matrix: SkimMatrix) -> Tuple[int, int, int, int, int]:
    """Bit-exact audit of every cell (and retained path) of a skim.

    Returns ``(cells, inexact_cells, paths, inexact_paths,
    unreachable)``. Cells compare with ``==`` against the oracle's
    whole-graph reference tree per origin — identical relaxation order
    makes the float sums identical, so approximate comparison would
    only hide bugs. Retained paths must re-price (left-to-right edge
    sum) to exactly the cell value.
    """
    cells = inexact_cells = paths = inexact_paths = unreachable = 0
    for i, origin in enumerate(matrix.origins):
        ref, _ = oracle.tree(origin)
        for j, destination in enumerate(matrix.destinations):
            cells += 1
            expected = ref.get(destination, math.inf)
            got = matrix.costs[i][j]
            if got != expected:
                inexact_cells += 1
            if got == math.inf:
                unreachable += 1
                continue
            if matrix.predecessors is not None:
                paths += 1
                path = matrix.path(origin, destination)
                if path is None or oracle.graph.path_cost(path) != got:
                    inexact_paths += 1
    return cells, inexact_cells, paths, inexact_paths, unreachable


def audit_select_link(
    oracle: Oracle,
    result: SelectLinkResult,
    demand: Dict[Tuple[NodeId, NodeId], float],
    origins: List[NodeId],
    destinations: List[NodeId],
) -> Tuple[int, int]:
    """Brute-force re-derivation of every link's flow table.

    Each OD pair's path in the oracle's reference tree gives its link
    membership, and the reference flow tables must match the analysed
    ones exactly — pair sets and volumes both. Returns
    ``(links_checked, mismatched_links)``.
    """
    reference: Dict[Edge, Dict[Tuple[NodeId, NodeId], float]] = {
        link: {} for link in result.links
    }
    for origin in origins:
        for destination in destinations:
            path = oracle.path(origin, destination)
            if destination == origin or path is None:
                continue
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


def _audit_assignment(
    config: DemandBenchConfig,
    demand: Dict[Tuple[NodeId, NodeId], float],
    audit: AssignmentAudit,
) -> None:
    """Run the pinned Frank-Wolfe assignment into ``audit``.

    A fresh pinned graph: the equilibrium run owns its own cost
    trajectory, independent of the epoch sweeps.
    """

    def auditor(iteration, g, m, aon_volumes) -> None:
        _, bad_cells, _, bad_paths, _ = audit_skim(Oracle(g), m)
        audit.audited_iterations += 1
        audit.inexact_cells += bad_cells + bad_paths

    result: AssignmentResult = assign(
        pinned_grid(config),
        demand,
        method="fw",
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
        auditor=auditor,
        record_volumes=True,
    )
    residuals = [
        AssignmentResult(
            graph_name=result.graph_name,
            method=result.method,
            converged=True,
            relative_gap=0.0,
            tolerance=config.tolerance,
            volumes=record.volumes,
            costs={},
            free_flow={},
            capacity={},
            demand_total=result.demand_total,
        ).conservation_residual(demand)
        for record in result.iterations
        if record.volumes is not None
    ]
    audit.ran = True
    audit.converged = result.converged
    audit.iterations = result.iteration_count
    audit.relative_gap = result.relative_gap
    audit.demand_total = result.demand_total
    audit.epochs_applied = result.epochs_applied
    audit.max_conservation_residual = max(residuals) if residuals else 0.0
    # Conservation is part of cleanliness: a violation is as wrong as a
    # mispriced cell.
    if audit.max_conservation_residual > 1e-6 * max(1.0, result.demand_total):
        audit.inexact_cells += 1


def run_demand_bench(
    config: Optional[DemandBenchConfig] = None,
) -> DemandBenchReport:
    """Run the pinned scenarios, epoch audits, and assignment."""
    config = config or DemandBenchConfig()
    report = DemandBenchReport(config=config)
    graph = pinned_grid(config)
    origins, destinations = pinned_zones(config, graph)
    demand = pinned_demand(config, origins, destinations)

    csr.csr_for(graph)  # warm the build cache outside the timing
    report.time("skim/csr", lambda: skim(graph, origins, destinations))

    def pointwise() -> None:
        for origin in origins:
            for destination in destinations:
                csr.uniform_cost(graph, origin, destination)

    report.time("pointwise/csr", pointwise)

    # Pre-epoch audit: the production-tier matrix, paths retained.
    oracle = Oracle(graph)
    matrix = skim(graph, origins, destinations, retain_paths=True)
    (
        report.cells_checked,
        report.inexact_cells,
        report.paths_checked,
        report.inexact_paths,
        report.unreachable_cells,
    ) = audit_skim(oracle, matrix)
    links = pinned_links(config, matrix)
    flows = select_link(matrix, links, demand)
    report.links_checked, report.link_mismatches = audit_select_link(
        oracle, flows, demand, origins, destinations
    )

    feed = TrafficFeed(graph)
    for number, updates in pinned_epochs(graph, config):
        epoch = feed.apply(updates)
        oracle.observe_epoch()
        matrix = skim(graph, origins, destinations, retain_paths=True)
        cells, bad_cells, paths, bad_paths, _ = audit_skim(oracle, matrix)
        flows = select_link(matrix, links, demand)
        checked_links, bad_links = audit_select_link(
            oracle, flows, demand, origins, destinations
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

    _audit_assignment(config, demand, report.assignment)
    return report
