"""Pinned wall-clock trajectory: CSR tier vs the generic reference loop.

Runs the :mod:`repro.experiments.wallclock` harness scenario by
scenario (fixed grid, seed, pair, and batch — see ``WallclockConfig``)
into one shared report and checks it is complete and serialisable.
Writing ``BENCH_wallclock.json`` is left to
``atis-repro bench-wallclock --reps 7 --out BENCH_wallclock.json``, the
pinned configuration CI runs. The Dijkstra test also asserts the CSR
tier still beats the generic loop on the pinned workload — the ratio
CI enforces.
"""

import json

from repro.experiments.wallclock import (
    EXPECTED_SCENARIOS,
    WallclockConfig,
    WallclockReport,
    run_wallclock,
)

_CONFIG = WallclockConfig()
_REPORT = WallclockReport(config=_CONFIG)


def _run(*scenarios: str) -> None:
    partial = run_wallclock(_CONFIG, scenarios=scenarios)
    _REPORT.timings.update(partial.timings)
    _REPORT.overheads.update(partial.overheads)


def test_wallclock_dijkstra_tiers():
    """Generic baseline vs CSR cold (build in the timed region) vs warm.

    Asserts the acceptance ratio: warm CSR must beat the generic loop
    on the pinned corner-to-corner Dijkstra.
    """
    _run("dijkstra/generic", "dijkstra/csr-cold", "dijkstra/csr-warm")
    speedup = _REPORT.speedup("dijkstra/generic", "dijkstra/csr-warm")
    print()
    print(f"pinned Dijkstra: CSR warm is {speedup:.2f}x the generic loop")
    assert speedup > 1.0


def test_wallclock_astar_tiers():
    _run("astar-euclidean/generic", "astar-euclidean/csr", "astar-landmark/csr")
    assert "landmark-preprocess" in _REPORT.overheads


def test_wallclock_iterative_tiers():
    _run("iterative/generic", "iterative/csr")


def test_wallclock_plan_many_batches():
    _run("plan_many/cold", "plan_many/warm")
    # A replayed batch is pure cache hits; if warm isn't dramatically
    # faster the service cache is broken, not slow.
    assert _REPORT.speedup("plan_many/cold", "plan_many/warm") > 1.0


def test_wallclock_report_complete():
    """Runs last: the module produced every scenario and valid JSON."""
    assert _REPORT.complete, _REPORT.missing
    payload = json.loads(_REPORT.to_json())
    assert set(payload["scenarios"]) == set(EXPECTED_SCENARIOS)
    assert "dijkstra_csr_vs_generic" in payload["speedups"]
