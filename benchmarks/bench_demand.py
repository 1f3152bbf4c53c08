"""Pinned batch-OD trajectory: skim amortization, select-link, assignment.

Runs the :mod:`repro.experiments.demandbench` harness piece by piece
(fixed grid, seed, zone sets, demand matrix, and epoch sweeps — see
``DemandBenchConfig``) into one shared report and checks that every
scenario ran, every epoch was audited, the assignment converged, and
the exactness audit found zero disagreements with the reference SSSP.
Writing ``BENCH_demand.json`` is left to
``atis-repro bench-demand --out BENCH_demand.json``, the pinned
configuration CI runs. The amortization test asserts the floor CI
enforces: skimming the matrix must beat answering it as independent
point queries.
"""

import json

import pytest

from repro.experiments.demandbench import (
    EXPECTED_SCENARIOS,
    DemandBenchConfig,
    DemandBenchReport,
    run_demand_bench,
)

pytestmark = pytest.mark.demand

_CONFIG = DemandBenchConfig()
_REPORT = DemandBenchReport(config=_CONFIG)


def test_demand_skim_scenarios():
    """CSR skim vs pointwise queries, audited bit-exact.

    Asserts the amortization floor: one SSSP per origin must beat
    |O| x |D| independent point Dijkstras on the same tier, and every
    cell, path, and select-link flow must agree exactly with the
    independent reference SSSP.
    """
    partial = run_demand_bench(
        _CONFIG, with_epochs=False, with_assignment=False
    )
    _REPORT.timings.update(partial.timings)
    _REPORT.cells_checked = partial.cells_checked
    _REPORT.inexact_cells = partial.inexact_cells
    _REPORT.paths_checked = partial.paths_checked
    _REPORT.inexact_paths = partial.inexact_paths
    _REPORT.links_checked = partial.links_checked
    _REPORT.link_mismatches = partial.link_mismatches
    _REPORT.unreachable_cells = partial.unreachable_cells
    assert partial.inexact_cells == 0
    assert partial.inexact_paths == 0
    assert partial.link_mismatches == 0
    assert partial.cells_checked == _CONFIG.origins * _CONFIG.destinations
    assert partial.links_checked == _CONFIG.links
    speedup = _REPORT.speedup("pointwise/csr", "skim/csr")
    print()
    print(f"pinned OD matrix: skim is {speedup:.2f}x the pointwise batch")
    assert speedup > 1.0


def test_demand_epoch_audit():
    """Re-skim and re-audit after every pinned traffic epoch.

    Every cell must re-agree (``==``) with a fresh whole-graph
    reference SSSP per origin on the updated costs, every retained
    path must re-price to its cell, and every select-link flow table
    must match brute-force per-pair path membership.
    """
    partial = run_demand_bench(
        _CONFIG, scenarios=(), with_epochs=True, with_assignment=False
    )
    _REPORT.epochs.extend(partial.epochs)
    assert len(partial.epochs) == _CONFIG.epochs
    for epoch in partial.epochs:
        assert epoch.deltas > 0
        assert epoch.inexact_cells == 0
        assert epoch.inexact_paths == 0
        assert epoch.link_mismatches == 0


def test_demand_assignment_convergence():
    """The pinned Frank-Wolfe run: converged, audited, conserving.

    Every iteration's prices are audited against the reference SSSP
    and every iteration's volumes against node-level demand
    conservation; the run must reach the relative-gap criterion within
    the pinned iteration cap.
    """
    partial = run_demand_bench(
        _CONFIG, scenarios=(), with_epochs=False, with_assignment=True
    )
    a = partial.assignment
    _REPORT.assignment = a
    assert a.ran
    assert a.converged, (
        f"gap {a.relative_gap:.3e} after {a.iterations} iterations"
    )
    assert a.relative_gap < _CONFIG.tolerance
    assert a.audited_iterations == a.iterations
    assert a.inexact_cells == 0
    assert a.max_conservation_residual < 1e-6 * max(1.0, a.demand_total)
    assert a.epochs_applied >= a.iterations - 1


def test_demand_report_complete():
    """Runs last: the module produced every piece and valid JSON."""
    assert _REPORT.complete, _REPORT.missing
    assert _REPORT.clean
    payload = json.loads(_REPORT.to_json())
    assert set(payload["scenarios"]) == set(EXPECTED_SCENARIOS)
    assert payload["speedups"]["skim_vs_pointwise"] > 1.0
    assert payload["assignment"]["converged"] is True
    assert payload["assignment"]["relative_gap"] < _CONFIG.tolerance
    assert payload["audit"]["inexact"] == 0
