"""Benchmark: serving under deterministic storage faults.

Replays the chaos workload — recurring OD pairs on the relational
backend, update epochs between rounds, a ``plan_many`` batch per round
— with a seeded :class:`FaultPlan` injecting transient I/O errors, torn
pages and latency into every storage operation. Every served answer is
audited by :class:`repro.audit.Oracle`: it must be exact at its epoch
or explicitly flagged ``degraded``.

The acceptance bar: zero unflagged wrong answers, and a second run of
the identical config must reproduce the identical determinism key
(fault schedule, retry counters and every served cost included).
"""

import pytest

from repro.faults import ChaosConfig, run_chaos
from repro.graphs.grid import make_paper_grid

from conftest import run_once

pytestmark = pytest.mark.chaos

_CONFIG = dict(
    rounds=8,
    queries_per_round=12,
    distinct_pairs=10,
    update_period=2,
    read_error_rate=0.001,
    write_error_rate=0.0005,
    torn_page_rate=0.0005,
    latency_rate=0.002,
    seed=1993,
    fault_seed=7,
)


def test_bench_chaos_replay(benchmark):
    """Faulted replay: exact-or-flagged answers, reproducible schedule."""
    graph = make_paper_grid(8, "variance")
    report = run_once(benchmark, run_chaos, graph, ChaosConfig(**_CONFIG))

    benchmark.extra_info["queries"] = report.queries
    benchmark.extra_info["exact"] = report.exact
    benchmark.extra_info["degraded"] = report.degraded
    benchmark.extra_info["faults_injected"] = report.faults_injected
    benchmark.extra_info["fault_retries"] = report.fault_retries
    benchmark.extra_info["retries_exhausted"] = report.retries_exhausted
    benchmark.extra_info["determinism_key"] = report.determinism_key

    print()
    for line in report.summary_lines():
        print(line)

    assert report.wrong_unflagged == 0
    assert report.unserved == 0  # the default ladder always answers

    # The same config replayed on a fresh graph reproduces everything.
    rerun = run_chaos(make_paper_grid(8, "variance"), ChaosConfig(**_CONFIG))
    assert rerun.determinism_key == report.determinism_key
    assert rerun.schedule_digest == report.schedule_digest
    assert rerun.fault_retries == report.fault_retries
