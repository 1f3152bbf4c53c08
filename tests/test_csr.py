"""Tests for the CSR tier's data structure and build cache.

:mod:`tests.test_kernel` proves the CSR search loops byte-identical to
the generic loop; this module tests what that proof
rests on — the flattening itself (layout, interning, edge order) and
the fingerprint-keyed build cache (hits, invalidation on mutation,
LRU eviction, capacity, the counters the service snapshot surfaces).
"""

from __future__ import annotations

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr
from repro.kernel.csr import CSRGraph, csr_for


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts from an empty, default-capacity build cache."""
    csr.clear_cache()
    csr.configure_cache(32)
    csr.reset_stats()
    yield
    csr.clear_cache()
    csr.configure_cache(32)
    csr.reset_stats()


def _diamond() -> Graph:
    graph = Graph("diamond")
    for node in "abcd":
        graph.add_node(node)
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("a", "c", 2.0)
    graph.add_edge("b", "d", 3.0)
    graph.add_edge("c", "d", 1.0)
    return graph


class TestCSRLayout:
    def test_interning_covers_every_node(self):
        graph = make_paper_grid(5, "variance", seed=3)
        snapshot = CSRGraph(graph)
        assert snapshot.node_count == len(graph)
        assert snapshot.node_ids == list(graph.node_ids())
        for i, node_id in enumerate(snapshot.node_ids):
            assert snapshot.index_of[node_id] == i

    def test_indptr_brackets_each_nodes_edges(self):
        graph = _diamond()
        snapshot = CSRGraph(graph)
        assert list(snapshot.indptr) == [0, 2, 3, 4, 4]
        assert snapshot.edge_count == 4
        assert len(snapshot.indices) == 4
        assert len(snapshot.weights) == 4

    def test_edges_keep_neighbor_iteration_order(self):
        """Relaxation-order parity with the generic loop depends on this."""
        graph = make_paper_grid(6, "skewed", seed=9)
        snapshot = CSRGraph(graph)
        for i, node_id in enumerate(snapshot.node_ids):
            start, stop = snapshot.indptr[i], snapshot.indptr[i + 1]
            flat = [
                (snapshot.node_ids[snapshot.indices[k]], snapshot.weights[k])
                for k in range(start, stop)
            ]
            assert flat == list(graph.neighbors(node_id))

    def test_list_views_mirror_arrays(self):
        snapshot = CSRGraph(make_paper_grid(4, "uniform"))
        assert snapshot.indptr_list == list(snapshot.indptr)
        assert snapshot.indices_list == list(snapshot.indices)
        assert snapshot.weights_list == list(snapshot.weights)

    def test_fingerprint_recorded(self):
        graph = _diamond()
        snapshot = CSRGraph(graph)
        assert snapshot.fingerprint == graph.fingerprint


class TestBuildCache:
    def test_same_state_hits(self):
        graph = _diamond()
        first = csr_for(graph)
        second = csr_for(graph)
        assert first is second
        stats = csr.cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_mutation_invalidates(self):
        graph = _diamond()
        stale = csr_for(graph)
        graph.update_edge_cost("a", "b", 5.0)
        fresh = csr_for(graph)
        assert fresh is not stale
        assert fresh.fingerprint == graph.fingerprint
        assert csr.cache_stats()["invalidations"] == 1
        # The replacement is served on the next call.
        assert csr_for(graph) is fresh

    def test_two_graphs_two_entries(self):
        a, b = _diamond(), _diamond()
        assert csr_for(a) is not csr_for(b)
        assert csr.cache_stats()["entries"] == 2

    def test_lru_eviction_at_capacity(self):
        csr.configure_cache(2)
        graphs = [_diamond() for _ in range(3)]
        snapshots = [csr_for(graph) for graph in graphs]
        assert csr.cache_stats()["entries"] == 2
        assert csr.cache_stats()["evictions"] == 1
        # The oldest entry was evicted; the newer two still hit.
        assert csr_for(graphs[2]) is snapshots[2]
        assert csr_for(graphs[1]) is snapshots[1]
        assert csr_for(graphs[0]) is not snapshots[0]

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            csr.configure_cache(0)

    def test_clear_cache_drops_entries_not_counters(self):
        csr_for(_diamond())
        csr.clear_cache()
        stats = csr.cache_stats()
        assert stats["entries"] == 0
        assert stats["builds"] == 1

    def test_build_racing_an_epoch_is_not_cached(self):
        graph = _diamond()

        # Mutate between the fingerprint read and the cache write by
        # bumping the version from inside the build itself.
        class Trip:
            fired = False

        original = Graph.neighbors

        def tripping_neighbors(self, node_id):
            if not Trip.fired and node_id == "d":
                Trip.fired = True
                graph.update_edge_cost("a", "b", 9.0)
            return original(self, node_id)

        try:
            Graph.neighbors = tripping_neighbors
            stale = csr_for(graph)
        finally:
            Graph.neighbors = original
        assert stale.fingerprint != graph.fingerprint
        assert csr.cache_stats()["entries"] == 0

    def test_search_uses_cache(self):
        graph = make_paper_grid(5, "variance", seed=3)
        from repro.kernel import search

        search(graph, (0, 0), (4, 4), tier="csr")
        search(graph, (4, 4), (0, 0), tier="csr")
        stats = csr.cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] >= 1


class TestCSRSearchEdges:
    def test_source_equals_destination(self):
        graph = _diamond()
        result = csr.uniform_cost(graph, "a", "a")
        assert result.found
        assert result.path == ["a"]
        assert result.cost == 0.0

    def test_sssp_missing_source(self):
        with pytest.raises(NodeNotFoundError):
            csr.sssp(_diamond(), "nope")
