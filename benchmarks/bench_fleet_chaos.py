"""Pinned fleet chaos benchmark: replicated serving under injected
faults, replica kills, and traffic epochs.

Runs the :mod:`repro.experiments.fleetchaos` harness (fixed grid,
seeds, 10% fault mix, one mid-run replica kill — see
``FleetChaosConfig``, trimmed here) into one shared report.

The replicated run and the same-seed ``replicas=1`` baseline are one
test each; the last test checks the report is **clean** — every answer
in both runs exact or explicitly shed, zero stale serves, and the
replicated fleet strictly more available than the baseline under the
identical failure pattern. Writing ``BENCH_fleet_chaos.json`` is left
to ``atis-repro bench-fleet-chaos --out BENCH_fleet_chaos.json``, the
pinned configuration CI runs.
"""

import json

import pytest

from repro.experiments.fleetchaos import (
    FleetChaosConfig,
    FleetChaosReport,
    run_chaos_replay,
)

pytestmark = pytest.mark.fleetchaos

# The pytest benchmark trims the pinned query volume so the tier-3
# bench stays interactive; the CLI/CI run uses the full default.
_CONFIG = FleetChaosConfig(queries=160, rounds=4)
_REPORT = FleetChaosReport(config=_CONFIG)


def test_chaos_replicated_run():
    """Replicated fleet at a 10% fault rate: exact-or-flagged holds."""
    run = run_chaos_replay(_CONFIG, replicas=_CONFIG.replicas)
    _REPORT.replicated = run
    print()
    print(
        f"chaos x{run.replicas}: availability {run.availability:.2%}, "
        f"{run.hedged} hedged / {run.failovers} failovers / "
        f"{run.retries} retries, shed {run.shed}"
    )
    assert run.inexact == 0, run.inexact_samples
    assert run.stale_serves == 0
    assert run.answered + run.shed == run.queries
    assert run.kills == len(_CONFIG.kills)
    # The fault mix must actually exercise the ladder, or the audit
    # proved nothing about fault tolerance.
    assert run.retries + run.failovers + run.hedged > 0


def test_chaos_baseline_run():
    """Same seeds, one replica: still exact-or-flagged, just darker."""
    run = run_chaos_replay(_CONFIG, replicas=1)
    _REPORT.baseline = run
    print()
    print(
        f"chaos x1: availability {run.availability:.2%}, shed {run.shed}"
    )
    assert run.inexact == 0, run.inexact_samples
    assert run.stale_serves == 0
    assert run.answered + run.shed == run.queries


def test_chaos_report_complete():
    """Runs last: both runs present, clean, gain positive, valid JSON."""
    assert _REPORT.complete
    assert _REPORT.clean
    assert _REPORT.availability_gain > 0
    payload = json.loads(_REPORT.to_json())
    for name in ("replicated", "baseline"):
        summary = payload["runs"][name]["summary"]
        assert summary["inexact"] == 0
        assert summary["stale_serves"] == 0
        assert summary["clean"] == 1
    assert payload["availability_gain"] > 0
