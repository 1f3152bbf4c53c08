"""Accelerator-pipeline kernel tests (preprocess → customize → query).

The equivalence suite is the pipeline's contract: every accelerator
configuration — the four one-stage planners and the CCH-lite overlay —
must return cost-exact answers (with a consistent path) against the
generic kernel loop's Dijkstra, on grids and random sparse directed graphs,
*across traffic epochs*. The epoch tests assert the stronger property
the ISSUE names: customize-then-query equals rebuild-then-query, down
to the overlay arrays. Hypothesis drives the customize-idempotence
property; the guard tests pin the unknown-name error messages.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.exceptions import UnknownAlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.grid import make_grid, make_paper_grid
from repro.graphs.random_graphs import random_sparse_directed
from repro.kernel import accel
from repro.traffic.feed import TrafficFeed

pytestmark = pytest.mark.accel


def _exact(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _pairs(graph, stride=3):
    nodes = sorted(node.node_id for node in graph.nodes())
    return [
        (source, destination)
        for source in nodes[::stride]
        for destination in nodes[::stride]
    ]


def _assert_matches_dijkstra(instance, graph, pairs):
    for source, destination in pairs:
        run = instance.query(graph, source, destination)
        ref = kernel.search(graph, source, destination, trace=True)
        assert run.found == ref.found, (source, destination)
        if not ref.found:
            continue
        assert _exact(run.cost, ref.cost), (source, destination)
        assert run.path[0] == source and run.path[-1] == destination
        assert _exact(graph.path_cost(run.path), run.cost)


class TestEquivalenceAcrossEpochs:
    """Every configuration, cost/path-exact vs Dijkstra, epoch after epoch."""

    @pytest.mark.parametrize("name", accel.ACCELERATORS)
    def test_grid_across_epochs(self, name):
        graph = make_paper_grid(7, seed=21)
        instance = accel.make_accelerator(name)
        pairs = _pairs(graph, stride=4)
        feed = TrafficFeed(graph)
        feed.subscribe(instance)
        _assert_matches_dijkstra(instance, graph, pairs)
        edges = sorted((e.source, e.target) for e in graph.edges())
        for number in range(1, 4):
            updates = [
                (u, v, graph.edge_cost(u, v) * (0.6 + 0.25 * ((number + i) % 4)))
                for i, (u, v) in enumerate(edges[:: 5 + number])
            ]
            feed.apply(updates)
            _assert_matches_dijkstra(instance, graph, pairs)
        assert instance.preprocesses == 1
        assert instance.customizes >= 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cch_random_sparse(self, seed):
        graph = random_sparse_directed(30, 60, seed=seed)
        instance = accel.make_accelerator("cch")
        pairs = _pairs(graph, stride=4)
        _assert_matches_dijkstra(instance, graph, pairs)

    def test_cch_unreachable_pairs(self):
        graph = Graph(name="islands")
        for index in range(6):
            graph.add_node(index, float(index), 0.0)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(3, 4, 1.0)
        instance = accel.make_accelerator("cch")
        run = instance.query(graph, 0, 4)
        assert not run.found
        # Scratch state must reset cleanly after a miss.
        hit = instance.query(graph, 0, 2)
        assert hit.found and _exact(hit.cost, 2.0)

    def test_customize_then_query_equals_rebuild_then_query(self):
        """The epoch path and a cold rebuild land on identical overlays."""
        graph = make_paper_grid(8, seed=5)
        live = accel.make_accelerator("cch")
        feed = TrafficFeed(graph)
        feed.subscribe(live)
        live.query(graph, (0, 0), (7, 7))
        edges = sorted((e.source, e.target) for e in graph.edges())
        for number in range(1, 4):
            # Incident-sized batches: few enough deltas to stay under
            # the density cutoff, so the incremental path is exercised.
            updates = [
                (u, v, graph.edge_cost(u, v) * (1.0 + 0.1 * number))
                for u, v in edges[::40]
            ]
            feed.apply(updates)
        assert live.incremental_customizes >= 3
        fresh = accel.make_accelerator("cch")
        fresh.preprocess(graph)
        fresh.customize(graph)
        assert live._fw == fresh._fw
        assert live._bw == fresh._bw
        assert live._mid_fw == fresh._mid_fw
        assert live._mid_bw == fresh._mid_bw
        for pair in _pairs(graph, stride=3):
            a = live.query(graph, *pair)
            b = fresh.query(graph, *pair)
            assert a.found == b.found
            if a.found:
                assert _exact(a.cost, b.cost)


class TestResultBilling:
    def test_first_query_bills_pipeline_phases(self):
        graph = make_grid(5)
        instance = accel.make_accelerator("cch")
        first = instance.query(graph, (0, 0), (4, 4))
        assert first.preprocess_cost > 0
        assert first.customize_cost > 0
        second = instance.query(graph, (0, 0), (4, 4))
        assert second.preprocess_cost == 0
        assert second.customize_cost == 0

    def test_epoch_query_bills_customize_only(self):
        graph = make_grid(5)
        instance = accel.make_accelerator("cch")
        instance.query(graph, (0, 0), (4, 4))
        graph.update_edge_cost((0, 0), (0, 1), 9.0)
        after = instance.query(graph, (0, 0), (4, 4))
        assert after.preprocess_cost == 0
        assert after.customize_cost > 0

    def test_cch_result_identity(self):
        graph = make_grid(4)
        run = kernel.search(graph, (0, 0), (3, 3), tier="cch")
        assert run.algorithm == "dijkstra"
        assert run.variant == "cch"


@st.composite
def graphs_with_updates(draw):
    node_count = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra = draw(st.integers(min_value=0, max_value=2 * node_count))
    graph = random_sparse_directed(node_count, extra, seed=seed)
    edges = sorted((e.source, e.target) for e in graph.edges())
    picks = draw(
        st.lists(
            st.sampled_from(edges),
            min_size=1,
            max_size=min(6, len(edges)),
            unique=True,
        )
    )
    factors = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
            min_size=len(picks),
            max_size=len(picks),
        )
    )
    return graph, list(zip(picks, factors))


class TestCustomizeIdempotence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=graphs_with_updates())
    def test_customize_is_idempotent_and_matches_full(self, case):
        """Re-customizing on unchanged costs is a no-op fixpoint, and
        the epoch path lands on a cold full pass's arrays."""
        graph, updates = case
        live = accel.make_accelerator("cch")
        feed = TrafficFeed(graph)
        feed.subscribe(live)
        live.preprocess(graph)
        live.customize(graph)
        feed.apply(
            [(u, v, graph.edge_cost(u, v) * factor) for (u, v), factor in updates]
        )
        fw_after, bw_after = list(live._fw), list(live._bw)
        # Idempotence: customizing again against the same costs must
        # not move the overlay.
        live.customize(graph)
        assert live._fw == fw_after
        assert live._bw == bw_after
        # And the overlay equals a cold full customization.
        fresh = accel.make_accelerator("cch")
        fresh.preprocess(graph)
        fresh.customize(graph)
        assert live._fw == fresh._fw
        assert live._bw == fresh._bw


class TestGuards:
    def test_make_accelerator_unknown_name_lists_options(self):
        with pytest.raises(ValueError) as excinfo:
            accel.make_accelerator("warp-drive")
        message = str(excinfo.value)
        for name in accel.ACCELERATORS:
            assert name in message

    def test_search_unknown_tier_lists_tiers(self):
        graph = make_grid(3)
        with pytest.raises(ValueError) as excinfo:
            kernel.search(graph, (0, 0), (2, 2), tier="gpu")
        message = str(excinfo.value)
        for tier in kernel.FASTPATH_TIERS:
            assert tier in message

    def test_search_unknown_algorithm_lists_bidirectional(self):
        graph = make_grid(3)
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            kernel.search(graph, (0, 0), (2, 2), algorithm="teleport")
        assert "bidirectional" in str(excinfo.value)

    def test_cch_tier_rejects_non_dijkstra(self):
        graph = make_grid(3)
        with pytest.raises(ValueError, match="cch"):
            kernel.search(graph, (0, 0), (2, 2), algorithm="astar", tier="cch")

    def test_cch_tier_rejects_trace(self):
        graph = make_grid(3)
        with pytest.raises(ValueError, match="trace"):
            kernel.search(graph, (0, 0), (2, 2), tier="cch", trace=True)

    def test_bidirectional_rejects_trace(self):
        graph = make_grid(3)
        with pytest.raises(ValueError, match="trace"):
            kernel.search(
                graph, (0, 0), (2, 2), algorithm="bidirectional", trace=True
            )


class TestAcceleratorCache:
    def test_keyed_by_graph_and_name(self):
        accel.clear_accelerator_cache()
        accel.reset_accelerator_stats()
        graph = make_grid(4)
        other = make_grid(4)
        first = accel.accelerator_for(graph, "cch")
        assert accel.accelerator_for(graph, "cch") is first
        assert accel.accelerator_for(other, "cch") is not first
        assert accel.accelerator_for(graph, "dijkstra") is not first
        stats = accel.accelerator_cache_stats()
        assert stats["builds"] == 3
        assert stats["hits"] == 1

    def test_search_cch_tier_serves_exact(self):
        graph = make_paper_grid(5, seed=2)
        for pair in _pairs(graph, stride=3):
            run = kernel.search(graph, *pair, tier="cch")
            ref = kernel.search(graph, *pair, trace=True)
            assert run.found == ref.found
            if ref.found:
                assert _exact(run.cost, ref.cost)
