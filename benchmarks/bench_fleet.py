"""Pinned fleet benchmark: sharded serving under skewed concurrent load.

Runs the :mod:`repro.experiments.fleetload` harness layout by layout
(fixed grid, seed, Zipf stream, and epoch schedule — see
``FleetBenchConfig``, trimmed here) into one shared report and checks
it is complete, clean, and serialisable. Writing ``BENCH_fleet.json``
is left to ``atis-repro bench-fleet --grid 12 --layouts 2x2,3x3
--queries 2000 --out BENCH_fleet.json``, the pinned configuration CI
runs. Every layout test asserts the acceptance bar directly: zero
inexact answers against whole-graph Dijkstra and zero silently dropped
queries.
"""

import json

import pytest

from repro.experiments.fleetload import (
    EXPECTED_LAYOUTS,
    FleetBenchConfig,
    FleetBenchReport,
    run_fleet_bench,
)

# The pytest benchmark trims the pinned query volume so the tier-3
# bench stays interactive; the CLI/CI run uses the full default.
_CONFIG = FleetBenchConfig(queries=600, rounds=3)
_REPORT = FleetBenchReport(config=_CONFIG)


def _run(layout: str) -> None:
    partial = run_fleet_bench(_CONFIG, layouts=(layout,))
    _REPORT.runs.update(partial.runs)


@pytest.mark.parametrize("layout", EXPECTED_LAYOUTS)
def test_fleet_layout(layout):
    """One layout: every answer exact, nothing silently dropped."""
    _run(layout)
    run = _REPORT.runs[layout]
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


def test_fleet_report_complete():
    """Runs last: every layout present, clean, and valid JSON."""
    assert _REPORT.complete, _REPORT.missing
    assert _REPORT.clean
    payload = json.loads(_REPORT.to_json())
    assert set(payload["layouts"]) == set(EXPECTED_LAYOUTS)
    for layout in EXPECTED_LAYOUTS:
        summary = payload["layouts"][layout]["summary"]
        assert summary["inexact"] == 0
        assert summary["clean"] == 1
        assert summary["throughput_qps"] > 0
