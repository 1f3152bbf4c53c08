"""The pinned-benchmark core: registry pins, the guarded writer, floors."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import BENCHES, BenchReport, ScenarioTiming, write_report
from repro.bench.accel import AccelBenchConfig, AccelBenchReport, EpochTiming
from repro.bench.demand import (
    AssignmentAudit,
    DemandBenchConfig,
    DemandBenchReport,
)
from repro.bench.wallclock import WallclockConfig, WallclockReport

ROOT = Path(__file__).resolve().parent.parent


def _timed(report: BenchReport) -> BenchReport:
    for name in report.SCENARIOS:
        report.timings[name] = ScenarioTiming(name, 0.001, 0.002, 1)
    return report


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_pinned_config_matches_committed_workload(name):
    """The registry pin names exactly the workload its BENCH file holds."""
    bench = BENCHES[name]
    path = ROOT / f"BENCH_{name.replace('-', '_')}.json"
    committed = json.loads(path.read_text())
    pinned = json.loads(json.dumps(dataclasses.asdict(bench.config)))
    assert pinned == committed["workload"]


@pytest.mark.parametrize(
    "name, trim",
    [
        ("accel", dict(grid=8, repetitions=1, pairs=10, epochs=2,
                       epoch_edges=6)),
        ("demand", dict(grid=8, repetitions=1, origins=4, destinations=4,
                        links=3, epochs=2, epoch_edges=6)),
    ],
)
def test_trimmed_run_audits_clean(name, trim):
    """A small variant config runs end to end with a clean audit."""
    bench = BENCHES[name]
    config = dataclasses.replace(bench.config, **trim)
    report = bench.run(config)
    assert report.problems() == []
    payload = json.loads(report.to_json())
    assert payload["workload"] == dataclasses.asdict(config)
    assert len(payload["epochs"]) == 2


def test_registry_floors_are_the_ci_gates():
    assert BENCHES["wallclock"].floors == {"dijkstra_csr_vs_generic": 1.0}
    assert BENCHES["accel"].floors == {"cch_vs_csr": 1.0}
    for name in ("demand", "fleet", "fleet-chaos"):
        assert BENCHES[name].floors == {}


def test_missed_floor_is_named():
    report = _timed(WallclockReport(config=WallclockConfig()))
    assert BENCHES["wallclock"].missed_floors(report) == []  # 1.00x meets 1.0
    report.timings["dijkstra/csr-warm"] = ScenarioTiming(
        "dijkstra/csr-warm", 0.01, 0.01, 1
    )
    missed = BENCHES["wallclock"].missed_floors(report)
    assert missed == ["dijkstra_csr_vs_generic 0.10x is below 1.00x"]


class TestGuardedWriter:
    def test_partial_wallclock_refused(self, tmp_path):
        report = _timed(WallclockReport(config=WallclockConfig()))
        del report.timings["plan_many/warm"]
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="partial: missing plan_many/warm"):
            write_report(report, str(path))
        assert not path.exists()

    def test_complete_wallclock_written(self, tmp_path):
        report = _timed(WallclockReport(config=WallclockConfig()))
        path = tmp_path / "out.json"
        write_report(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["workload"] == dataclasses.asdict(WallclockConfig())
        assert set(payload["scenarios"]) == set(WallclockReport.SCENARIOS)
        assert payload["speedups"]["dijkstra_csr_vs_generic"] == 1.0

    def test_inexact_accel_refused(self):
        config = AccelBenchConfig(epochs=1)
        report = _timed(AccelBenchReport(config=config))
        report.epochs.append(EpochTiming(1, 12, 0.01, True, 55, 2))
        with pytest.raises(ValueError, match="2 inexact"):
            report.to_json()

    def test_unmeasured_accel_epochs_refused(self):
        report = _timed(AccelBenchReport(config=AccelBenchConfig(epochs=2)))
        with pytest.raises(ValueError, match="partial: 0/2 epochs"):
            report.to_json()

    def test_non_converged_demand_refused(self):
        report = _timed(DemandBenchReport(config=DemandBenchConfig(epochs=0)))
        report.assignment = AssignmentAudit(
            ran=True, converged=False, iterations=150, relative_gap=3e-3
        )
        with pytest.raises(ValueError, match="non-converged"):
            report.to_json()

    def test_unrun_assignment_refused(self):
        report = _timed(DemandBenchReport(config=DemandBenchConfig(epochs=0)))
        with pytest.raises(ValueError, match="partial: assignment"):
            report.to_json()

    def test_clean_demand_written(self):
        report = _timed(DemandBenchReport(config=DemandBenchConfig(epochs=0)))
        report.assignment = AssignmentAudit(
            ran=True, converged=True, iterations=3, relative_gap=5e-5,
            max_conservation_residual=0.0,
        )
        payload = json.loads(report.to_json())
        assert payload["assignment"]["converged"] is True
        assert payload["audit"]["inexact"] == 0
        assert "overheads_s" not in payload
