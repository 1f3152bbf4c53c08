"""The pinned benchmarks of :mod:`repro.bench`, run and checked in pytest.

Each registry entry runs once on its pinned config. The parametrized
test checks what every bench owes: a clean audit, its speedup floors,
and a JSON report whose workload is the pinned config. The per-bench
tests then check each workload's own acceptance bars, some of them
stricter than the CI floors (the accelerator must beat the CSR tier by
1.3x here). Writing the committed files is left to
``atis-repro bench NAME --out BENCH_NAME.json``, the command CI runs.
"""

import dataclasses
import json

import pytest

from repro.bench import BENCHES

_REPORTS = {}


def _report(name):
    if name not in _REPORTS:
        bench = BENCHES[name]
        _REPORTS[name] = bench.run(bench.config)
    return _REPORTS[name]


@pytest.mark.parametrize("name", list(BENCHES))
def test_pinned_report_clean(name):
    """Every bench: clean audit, floors met, valid pinned JSON."""
    bench = BENCHES[name]
    report = _report(name)
    print()
    print("\n".join(report.summary_lines()))
    assert report.problems() == []
    assert bench.missed_floors(report) == []
    payload = json.loads(report.to_json())
    assert payload["workload"] == json.loads(
        json.dumps(dataclasses.asdict(bench.config))
    )
    assert set(payload.get("scenarios", ())) == set(report.SCENARIOS)
    assert set(payload.get("speedups", ())) == {
        name for name, _, _ in report.SPEEDUPS
    }


def test_wallclock():
    """CSR beats the generic loop; the replayed batch is cache hits."""
    report = _report("wallclock")
    assert report.speedup("dijkstra/generic", "dijkstra/csr-warm") > 1.0
    assert "landmark-preprocess" in report.overheads
    # A replayed batch is pure cache hits; if warm isn't dramatically
    # faster the service cache is broken, not slow.
    assert report.speedup("plan_many/cold", "plan_many/warm") > 1.0


def test_accel():
    """cch beats the CSR tier by >= 1.3x; every epoch is incremental.

    Preprocess and full customize are billed outside the timed region
    (as overheads), and every accelerated answer agrees with the
    generic loop's Dijkstra before and after each epoch.
    """
    report = _report("accel")
    config = report.config
    assert report.inexact == 0
    assert report.speedups["cch_vs_csr"] >= 1.3
    assert report.overheads["cch-preprocess"] > 0
    assert report.overheads["cch-customize-full"] > 0
    assert len(report.epochs) == config.epochs
    for epoch in report.epochs:
        assert epoch.inexact == 0
        assert epoch.incremental
        assert epoch.customize_s > 0
    payload = json.loads(report.to_json())
    assert len(payload["epochs"]) == config.epochs


def test_demand():
    """Skim amortizes pointwise queries; every cell, epoch and
    assignment iteration audits exact; the assignment converges."""
    report = _report("demand")
    config = report.config
    assert report.inexact_cells == 0
    assert report.inexact_paths == 0
    assert report.link_mismatches == 0
    assert report.cells_checked == config.origins * config.destinations
    assert report.links_checked == config.links
    assert report.speedups["skim_vs_pointwise"] > 1.0
    assert len(report.epochs) == config.epochs
    for epoch in report.epochs:
        assert epoch.deltas > 0
        assert epoch.inexact == 0
    a = report.assignment
    assert a.ran
    assert a.converged, f"gap {a.relative_gap:.3e} after {a.iterations} iterations"
    assert a.relative_gap < config.tolerance
    assert a.audited_iterations == a.iterations
    assert a.inexact_cells == 0
    assert a.max_conservation_residual < 1e-6 * max(1.0, a.demand_total)
    assert a.epochs_applied >= a.iterations - 1
    payload = json.loads(report.to_json())
    assert payload["assignment"]["converged"] is True
    assert payload["assignment"]["relative_gap"] < config.tolerance
    assert payload["audit"]["inexact"] == 0


def test_fleet():
    """Every layout: every answer exact, nothing silently dropped, and
    the stitching path actually exercised."""
    report = _report("fleet")
    assert tuple(report.runs) == report.config.layouts
    for layout, run in report.runs.items():
        print()
        print(
            f"fleet {layout}: {run.throughput_qps:.1f} q/s, "
            f"p50 {run.p50_latency_ms:.3f} ms, p99 {run.p99_latency_ms:.3f} ms, "
            f"{run.cross_shard} cross-shard / {run.stitched} stitched / "
            f"{run.shed} shed"
        )
        assert run.inexact == 0, run.inexact_samples
        assert run.answered + run.shed == run.queries
        assert run.shard_count >= 2
        # The skewed stream on a partitioned grid must actually exercise
        # the stitching path, or the audit proved nothing.
        assert run.cross_shard > 0 and run.stitched > 0
    payload = json.loads(report.to_json())
    for summary in (entry["summary"] for entry in payload["layouts"].values()):
        assert summary["inexact"] == 0
        assert summary["clean"] == 1
        assert summary["throughput_qps"] > 0


def test_fleet_chaos():
    """Both runs exact-or-flagged; replication buys availability."""
    report = _report("fleet-chaos")
    config = report.config
    for run in (report.replicated, report.baseline):
        assert run.inexact == 0, run.inexact_samples
        assert run.stale_serves == 0
        assert run.answered + run.shed == run.queries
    replicated = report.replicated
    assert replicated.kills == len(config.kills)
    # The fault mix must actually exercise the ladder, or the audit
    # proved nothing about fault tolerance.
    assert replicated.retries + replicated.failovers + replicated.hedged > 0
    assert report.availability_gain > 0
    payload = json.loads(report.to_json())
    for name in ("replicated", "baseline"):
        summary = payload["runs"][name]["summary"]
        assert summary["inexact"] == 0
        assert summary["stale_serves"] == 0
        assert summary["clean"] == 1
    assert payload["availability_gain"] > 0
