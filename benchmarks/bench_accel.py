"""Pinned accelerator trajectory: CCH-lite queries vs the CSR tier.

Runs the :mod:`repro.experiments.accelbench` harness piece by piece
(fixed grid, seed, pair batch, and epoch sweeps — see
``AccelBenchConfig``) into one shared report and checks it is
complete, audited clean against Dijkstra, and serialisable. Writing
``BENCH_accel.json`` is left to
``atis-repro bench-accel --out BENCH_accel.json``, the pinned
configuration CI runs. The speedup test asserts a floor above CI's:
the accelerated query batch must beat the CSR tier by at least 1.3x.
"""

import json

import pytest

from repro.experiments.accelbench import (
    EXPECTED_SCENARIOS,
    AccelBenchConfig,
    AccelBenchReport,
    run_accel_bench,
)

pytestmark = pytest.mark.accel

_CONFIG = AccelBenchConfig()
_REPORT = AccelBenchReport(config=_CONFIG)


def test_accel_query_tiers():
    """CSR baseline vs the accelerated elimination-tree query.

    Asserts the acceptance ratio: the cch batch must beat the CSR
    tier by >= 1.3x, with the preprocess and full-customize costs billed
    outside the timed region (they are reported as overheads).
    """
    partial = run_accel_bench(_CONFIG, with_epochs=False)
    _REPORT.timings.update(partial.timings)
    _REPORT.overheads.update(partial.overheads)
    _REPORT.pairs_checked = partial.pairs_checked
    _REPORT.inexact = partial.inexact
    _REPORT.arcs = partial.arcs
    _REPORT.shortcuts = partial.shortcuts
    assert partial.inexact == 0
    speedup = _REPORT.speedup("query/csr", "query/cch")
    print()
    print(f"pinned pair batch: cch is {speedup:.2f}x the CSR tier")
    assert speedup >= 1.3
    assert _REPORT.overheads["cch-preprocess"] > 0
    assert _REPORT.overheads["cch-customize-full"] > 0


def test_accel_epoch_customization():
    """Per-epoch re-customization latency, audited for exactness.

    Every epoch must take the incremental customize path (the pinned
    batches are incident-sized, under the density cutoff) and every
    accelerated answer must agree with the generic loop's Dijkstra on
    the updated costs.
    """
    partial = run_accel_bench(_CONFIG, scenarios=(), with_epochs=True)
    _REPORT.epochs.extend(partial.epochs)
    assert len(partial.epochs) == _CONFIG.epochs
    for epoch in partial.epochs:
        assert epoch.inexact == 0
        assert epoch.incremental
        assert epoch.customize_s > 0


def test_accel_report_complete():
    """Runs last: the module produced every scenario and valid JSON."""
    assert _REPORT.complete, _REPORT.missing
    assert _REPORT.clean
    payload = json.loads(_REPORT.to_json())
    assert set(payload["scenarios"]) == set(EXPECTED_SCENARIOS)
    assert payload["speedups"]["cch_vs_csr"] >= 1.3
    assert len(payload["epochs"]) == _CONFIG.epochs
