"""Benchmark: edge-granular vs whole-graph invalidation under traffic.

Replays the identical mixed query/update workload — recurring OD pairs,
one small update epoch between rounds, concurrent ``plan`` plus a
``plan_many`` batch per round — through two :class:`RouteService`
instances that differ only in invalidation policy. Every served answer
is audited by :class:`repro.audit.Oracle` at its epoch, so the reported
hit counts are *correct* warm hits, not lucky stale ones.

The acceptance bar: edge-granular invalidation must retain at least
5x the warm hits of the whole-graph nuke, with zero stale serves on
either side.
"""

import pytest

from repro.graphs.grid import make_paper_grid
from repro.traffic import ReplayConfig, compare_invalidation

from conftest import run_once

pytestmark = pytest.mark.traffic


def _grid_factory():
    return make_paper_grid(16, "variance")


def test_bench_traffic_invalidation_retention(benchmark):
    """Warm-hit retention across update epochs, audited for staleness."""
    config = ReplayConfig(
        rounds=24,
        queries_per_round=32,
        distinct_pairs=256,
        update_fraction=0.003,
        update_factor_range=(0.8, 1.6),
        batch_size=8,
        seed=1993,
    )

    outcome = run_once(benchmark, compare_invalidation, _grid_factory, config)
    edge, graph = outcome["edge"], outcome["graph"]
    ratio = outcome["retention_ratio"]

    benchmark.extra_info["retention_ratio"] = ratio
    benchmark.extra_info["edge_hits"] = edge.cache_hits
    benchmark.extra_info["graph_hits"] = graph.cache_hits
    benchmark.extra_info["edge_hit_rate"] = edge.hit_rate
    benchmark.extra_info["graph_hit_rate"] = graph.hit_rate
    benchmark.extra_info["edge_p95_ms"] = edge.p95_ms
    benchmark.extra_info["stale_serves"] = edge.stale_serves + graph.stale_serves

    print()
    print(f"edge-granular: {edge.cache_hits} warm hits "
          f"(rate {edge.hit_rate:.3f}), {edge.evicted} evicted, "
          f"{edge.retained} retained")
    print(f"whole-graph:   {graph.cache_hits} warm hits "
          f"(rate {graph.hit_rate:.3f}), {graph.evicted} evicted")
    print(f"retention ratio: {ratio:.2f}x  "
          f"(stale serves: {edge.stale_serves}/{graph.stale_serves})")

    assert edge.stale_serves == 0, "edge-granular policy served stale answers"
    assert graph.stale_serves == 0, "whole-graph policy served stale answers"
    assert ratio >= 5.0, (
        f"edge-granular invalidation retained only {ratio:.2f}x the "
        f"whole-graph policy's warm hits (need >= 5x)"
    )
