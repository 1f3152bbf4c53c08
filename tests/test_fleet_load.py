"""Load generator determinism, audit integrity, and report guards."""

import json

import pytest

from repro.bench.fleet import FleetBenchConfig, FleetBenchReport, run_fleet_bench
from repro.fleet import (
    FleetLoadConfig,
    FleetRouter,
    partition_graph,
    run_fleet_load,
    zipf_pairs,
)
from repro.graphs.grid import make_paper_grid
from repro.traffic.feed import TrafficFeed

pytestmark = pytest.mark.fleet

EXPECTED_LAYOUTS = FleetBenchConfig().layouts


class TestZipfPairs:
    def test_seeded_stream_is_reproducible(self):
        graph = make_paper_grid(6, "uniform", seed=1)
        assert zipf_pairs(graph, 50, 1.1, 7) == zipf_pairs(graph, 50, 1.1, 7)
        assert zipf_pairs(graph, 50, 1.1, 7) != zipf_pairs(graph, 50, 1.1, 8)

    def test_alpha_skews_endpoint_popularity(self):
        graph = make_paper_grid(8, "uniform", seed=1)
        pairs = zipf_pairs(graph, 400, 1.4, 3)
        counts = {}
        for source, _target in pairs:
            counts[source] = counts.get(source, 0) + 1
        top = max(counts.values())
        # The hottest origin must dominate a uniform draw's share.
        assert top > 3 * (400 / graph.node_count)


class TestRunFleetLoad:
    def test_small_run_is_clean_and_counts_add_up(self):
        graph = make_paper_grid(7, "variance", seed=5)
        partition = partition_graph(graph, 2, 2)
        router = FleetRouter(partition)
        feed = TrafficFeed(graph)
        feed.subscribe(router)
        config = FleetLoadConfig(
            queries=120, rounds=3, concurrency=4, seed=5, epoch_edges=10
        )
        try:
            report = run_fleet_load(graph, router, feed, config)
        finally:
            router.shutdown()
        assert report.clean
        assert report.queries == 120
        assert report.answered + report.shed == 120
        assert report.audited == report.answered
        assert report.inexact == 0 and report.inexact_samples == []
        assert report.epochs_applied == 2
        assert report.cross_shard > 0 and report.stitched > 0
        assert report.throughput_qps > 0
        assert report.p99_latency_ms >= report.p50_latency_ms >= 0
        assert report.snapshot["fleet"]["queries"] == 120

    def test_sheds_flagged_not_dropped(self):
        graph = make_paper_grid(6, "uniform", seed=2)
        partition = partition_graph(graph, 2, 2)
        router = FleetRouter(partition, max_queue=0)
        feed = TrafficFeed(graph)
        feed.subscribe(router)
        config = FleetLoadConfig(queries=40, rounds=1, concurrency=4, seed=2)
        try:
            report = run_fleet_load(graph, router, feed, config)
        finally:
            router.shutdown()
        # Only same-node (trivial) queries answer under zero capacity.
        assert report.answered + report.shed == report.queries
        assert report.shed > 0
        assert report.clean  # shed-with-flag keeps the run accountable

    def test_to_snapshot_leaves_are_numeric(self):
        graph = make_paper_grid(6, "uniform", seed=2)
        partition = partition_graph(graph, 1, 2)
        router = FleetRouter(partition)
        feed = TrafficFeed(graph)
        feed.subscribe(router)
        config = FleetLoadConfig(queries=20, rounds=1, concurrency=2, seed=2)
        try:
            report = run_fleet_load(graph, router, feed, config)
        finally:
            router.shutdown()
        for name, value in report.to_snapshot().items():
            assert isinstance(value, (int, float)) and not isinstance(
                value, bool
            ), name


class TestFleetBenchReport:
    @pytest.fixture(scope="class")
    def bench(self):
        config = FleetBenchConfig(
            grid=7, queries=120, rounds=2, concurrency=4, epoch_edges=8
        )
        return run_fleet_bench(config)

    def test_covers_expected_layouts_and_audits_clean(self, bench):
        assert tuple(bench.runs) == EXPECTED_LAYOUTS
        assert bench.problems() == []

    def test_json_payload_shape(self, bench):
        payload = json.loads(bench.to_json())
        assert set(payload["layouts"]) == set(EXPECTED_LAYOUTS)
        for layout in EXPECTED_LAYOUTS:
            entry = payload["layouts"][layout]
            assert entry["summary"]["inexact"] == 0
            assert entry["fleet"]["queries"] == 120
            assert len(entry["shards"]) == entry["summary"]["shard_count"]

    def test_partial_report_refuses_json(self, bench):
        partial = FleetBenchReport(config=bench.config)
        partial.runs["2x2"] = bench.runs["2x2"]
        assert partial.missing == ["3x3"]
        with pytest.raises(ValueError, match="partial"):
            partial.to_json()

    def test_inexact_report_refuses_json(self, bench):
        import copy

        poisoned = FleetBenchReport(config=bench.config)
        poisoned.runs = {k: copy.copy(v) for k, v in bench.runs.items()}
        poisoned.runs["2x2"].inexact = 1
        assert not poisoned.missing and not poisoned.clean
        with pytest.raises(ValueError, match="inexact"):
            poisoned.to_json()

    def test_silent_drop_refuses_json(self, bench):
        import copy

        dropped = FleetBenchReport(config=bench.config)
        dropped.runs = {k: copy.copy(v) for k, v in bench.runs.items()}
        dropped.runs["3x3"].answered -= 1
        with pytest.raises(ValueError, match="silent drops"):
            dropped.to_json()
