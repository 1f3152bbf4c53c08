"""Chaos harness: exact-or-flagged under faults, kills, and epochs."""

import json

import pytest

from repro.bench.fleet_chaos import (
    FleetChaosConfig,
    FleetChaosReport,
    FleetChaosRun,
    run_chaos_replay,
    run_fleet_chaos,
)

pytestmark = pytest.mark.fleetchaos

# Smaller than the pinned benchmark workload but the same 10% fault
# mix and kill shape; the timing margins that make the replay
# deterministic are preserved (hang >> stage budget >> hedge >> the
# microseconds a shard task actually computes for).
_CFG = FleetChaosConfig(
    grid=8,
    queries=96,
    rounds=3,
    epoch_edges=12,
    kills=((1, 0),),
    hang_s=0.25,
    total_s=0.6,
    stage_s=0.12,
    hedge_s=0.03,
)

# Fault-free variant for the determinism / noop-equivalence checks.
_QUIET = FleetChaosConfig(
    grid=6,
    queries=48,
    rounds=2,
    epoch_edges=8,
    kills=(),
    error_rate=0.0,
    latency_rate=0.0,
    hang_rate=0.0,
)

# Tiny faulted config for the same-seed byte-identity check (two full
# replays; keep each one cheap).
_DET = FleetChaosConfig(
    grid=6,
    queries=40,
    rounds=2,
    epoch_edges=8,
    kills=((1, 0),),
    hang_s=0.25,
    total_s=0.6,
    stage_s=0.12,
    hedge_s=0.03,
)


@pytest.fixture(scope="module")
def chaos_report():
    return run_fleet_chaos(_CFG)


class TestChaosAudit:
    def test_audit_clean_at_ten_percent_fault_rate(self, chaos_report):
        assert _CFG.total_fault_rate == pytest.approx(0.10)
        assert chaos_report.problems() == []
        for run in (chaos_report.replicated, chaos_report.baseline):
            assert run.inexact == 0, run.inexact_samples
            assert run.stale_serves == 0
            # Zero silent drops: every query answered or flagged.
            assert run.answered + run.shed == run.queries
        assert chaos_report.replicated.kills == len(_CFG.kills)

    def test_replication_buys_availability_under_identical_failure(
        self, chaos_report
    ):
        assert chaos_report.availability_gain > 0
        assert (
            chaos_report.replicated.availability
            > chaos_report.baseline.availability
        )

    def test_fault_machinery_was_actually_exercised(self, chaos_report):
        run = chaos_report.replicated
        # A chaos audit that injected nothing proved nothing.
        assert run.retries + run.failovers + run.hedged > 0
        injected = sum(
            snap["faults_injected"]
            for name, snap in run.snapshot.items()
            if name != "fleet"
        )
        assert injected > 0

    def test_json_round_trip(self, chaos_report):
        payload = json.loads(chaos_report.to_json())
        assert payload["availability_gain"] > 0
        assert payload["total_fault_rate"] == pytest.approx(0.10)
        assert payload["workload"]["kills"] == [list(k) for k in _CFG.kills]
        for name in ("replicated", "baseline"):
            summary = payload["runs"][name]["summary"]
            assert summary["inexact"] == 0
            assert summary["stale_serves"] == 0
            assert summary["clean"] == 1


class TestDeterminism:
    def test_same_seed_replays_are_byte_identical(self):
        first = run_chaos_replay(_DET, replicas=2)
        second = run_chaos_replay(_DET, replicas=2)
        assert first.determinism_key == second.determinism_key
        assert first.answered == second.answered
        assert first.shed == second.shed

    def test_rate_zero_plan_matches_no_injector_fleet(self):
        with_noop_plans = run_chaos_replay(
            _QUIET, replicas=2, attach_plans=True
        )
        bare = run_chaos_replay(_QUIET, replicas=2, attach_plans=False)
        assert (
            with_noop_plans.determinism_key == bare.determinism_key
        )
        # A fault-free fleet never needed the ladder at all.
        for run in (with_noop_plans, bare):
            assert run.shed == 0
            assert run.hedged == 0
            assert run.retries == 0
            assert run.failovers == 0
            assert run.availability == 1.0


def _run(replicas, **counts):
    return FleetChaosRun(
        config=_QUIET.load_config(), replicas=replicas, **counts
    )


class TestReportGuards:
    def test_refuses_partial_report(self):
        report = FleetChaosReport(config=_QUIET)
        with pytest.raises(ValueError, match="partial"):
            report.to_json()

    def test_refuses_inexact_report(self):
        report = FleetChaosReport(
            config=_QUIET,
            replicated=_run(2, queries=10, answered=10, inexact=1),
            baseline=_run(1, queries=10, answered=10),
        )
        assert not report.clean
        with pytest.raises(ValueError, match="inexact"):
            report.to_json()

    def test_refuses_stale_report(self):
        report = FleetChaosReport(
            config=_QUIET,
            replicated=_run(2, queries=10, answered=10),
            baseline=_run(1, queries=10, answered=10, inexact=1,
                          stale_serves=1),
        )
        assert not report.baseline.clean
        with pytest.raises(ValueError, match="stale"):
            report.to_json()

    def test_refuses_silent_drops(self):
        report = FleetChaosReport(
            config=_QUIET,
            replicated=_run(2, queries=10, answered=9),
            baseline=_run(1, queries=10, answered=10),
        )
        with pytest.raises(ValueError, match="silent drops"):
            report.to_json()

    def test_refuses_missing_availability_gain(self):
        config = FleetChaosConfig(kills=((1, 0),))
        report = FleetChaosReport(
            config=config,
            replicated=_run(2, queries=10, answered=8, shed=2),
            baseline=_run(1, queries=10, answered=8, shed=2),
        )
        with pytest.raises(ValueError, match="no availability"):
            report.to_json()
