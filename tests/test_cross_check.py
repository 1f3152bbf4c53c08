"""Negative tests: the experiment runner's cross-check must actually
catch a broken engine, not just pass on a working one.

The cross-check is the reproduction's safety net — every number in
EXPERIMENTS.md flows through it — so these tests corrupt engine results
in controlled ways and assert the net closes.
"""

import pytest

from repro.exceptions import ExperimentError
from repro.engine.tracing import RelationalRunResult
from repro.experiments import runner as runner_module
from repro.experiments.runner import measure
from repro.graphs.grid import make_paper_grid


@pytest.fixture
def grid():
    return make_paper_grid(5, "variance")


def _fake_run(source, destination, cost, found=True):
    return RelationalRunResult(
        algorithm="dijkstra",
        variant="status-attribute",
        source=source,
        destination=destination,
        path=[source, destination] if found else [],
        cost=cost,
        found=found,
        iterations=7,
    )


class TestCrossCheckCatchesCorruption:
    def test_impossibly_cheap_path_rejected(self, grid, monkeypatch):
        """An engine claiming a cost below the optimum must fail."""

        def broken(graph, source, destination, algorithm, rgraph=None):
            return _fake_run(source, destination, cost=0.001)

        monkeypatch.setattr(runner_module, "run_relational", broken)
        with pytest.raises(ExperimentError, match="below the optimum"):
            measure(grid, (0, 0), (4, 4), "dijkstra")

    def test_suboptimal_exact_algorithm_rejected(self, grid, monkeypatch):
        """Dijkstra reporting a dearer-than-optimal cost must fail."""

        def broken(graph, source, destination, algorithm, rgraph=None):
            return _fake_run(source, destination, cost=1e9)

        monkeypatch.setattr(runner_module, "run_relational", broken)
        with pytest.raises(ExperimentError, match="!= optimal"):
            measure(grid, (0, 0), (4, 4), "dijkstra")

    def test_phantom_not_found_rejected(self, grid, monkeypatch):
        """Claiming an existing route is unreachable must fail."""

        def broken(graph, source, destination, algorithm, rgraph=None):
            return _fake_run(source, destination, cost=float("inf"), found=False)

        monkeypatch.setattr(runner_module, "run_relational", broken)
        with pytest.raises(ExperimentError, match="found="):
            measure(grid, (0, 0), (4, 4), "dijkstra")

    def test_inadmissible_astar_gets_slack_but_not_below_optimum(
        self, grid, monkeypatch
    ):
        """A*-v1/v2 may be sub-optimal (inadmissible estimator) but a
        below-optimum claim is still impossible."""

        def broken(graph, source, destination, algorithm, rgraph=None):
            run = _fake_run(source, destination, cost=0.001)
            run.algorithm = "astar"
            run.variant = "v1"
            return run

        monkeypatch.setattr(runner_module, "run_relational", broken)
        with pytest.raises(ExperimentError, match="below the optimum"):
            measure(grid, (0, 0), (4, 4), "astar-v1")

    def test_suboptimal_astar_v1_is_tolerated(self, grid, monkeypatch):
        """v1's euclidean estimator may legitimately return a dearer
        path; the cross-check must NOT reject that."""
        from repro import kernel

        optimum = kernel.search(grid, (0, 0), (4, 4)).cost

        def slightly_suboptimal(graph, source, destination, algorithm, rgraph=None):
            run = _fake_run(source, destination, cost=optimum * 1.05)
            run.algorithm = "astar"
            run.variant = "v1"
            return run

        monkeypatch.setattr(
            runner_module, "run_relational", slightly_suboptimal
        )
        measurement = measure(grid, (0, 0), (4, 4), "astar-v1")
        assert measurement.path_cost == pytest.approx(optimum * 1.05)

    def test_cross_check_can_be_disabled(self, grid, monkeypatch):
        """cross_check=False runs the raw engine result through."""

        def broken(graph, source, destination, algorithm, rgraph=None):
            return _fake_run(source, destination, cost=0.001)

        monkeypatch.setattr(runner_module, "run_relational", broken)
        measurement = measure(
            grid, (0, 0), (4, 4), "dijkstra", cross_check=False
        )
        assert measurement.path_cost == 0.001
