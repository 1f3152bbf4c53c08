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
from repro.graphs.graph import CostDelta, Graph
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr
from repro.kernel.csr import CSRGraph, csr_for
from repro.service.cache import RouteCache


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


def _slices(indptr, neighbors, weights):
    """Per-node ``(neighbor, weight)`` tuples cut from flat vectors."""
    return [
        tuple(zip(neighbors[indptr[u]:indptr[u + 1]], weights[indptr[u]:indptr[u + 1]]))
        for u in range(len(indptr) - 1)
    ]


def _counting_sort_transpose(snapshot):
    """The transpose as ``(rindptr, sources, weights)`` by counting sort."""
    n = snapshot.node_count
    counts = [0] * (n + 1)
    for v in snapshot.indices_list:
        counts[v + 1] += 1
    for i in range(n):
        counts[i + 1] += counts[i]
    fill = counts[:n]
    sources = [0] * snapshot.edge_count
    weights = [0.0] * snapshot.edge_count
    for u in range(n):
        for k in range(snapshot.indptr_list[u], snapshot.indptr_list[u + 1]):
            v = snapshot.indices_list[k]
            sources[fill[v]] = u
            weights[fill[v]] = snapshot.weights_list[k]
            fill[v] += 1
    return counts, sources, weights


class TestAdjacencyRows:
    """The search loops' layout: per-node ``(neighbor, weight)`` rows."""

    def test_fresh_rows_equal_the_flat_slices(self):
        for graph in (_diamond(), make_paper_grid(6, "skewed", seed=9)):
            snapshot = CSRGraph(graph)
            assert snapshot.rows == _slices(
                snapshot.indptr_list, snapshot.indices_list, snapshot.weights_list
            )
            assert all(type(row) is tuple for row in snapshot.rows)

    def test_reverse_rows_equal_the_counting_sort_transpose(self):
        for graph in (_diamond(), make_paper_grid(6, "variance", seed=2)):
            snapshot = CSRGraph(graph)
            assert snapshot.reverse_rows() == _slices(*_counting_sort_transpose(snapshot))
            assert snapshot.reverse_rows() is snapshot.reverse_rows()
        # The diamond's incoming edges, sources ascending.
        assert CSRGraph(_diamond()).reverse_rows() == [(), ((0, 1.0),), ((0, 2.0),),
                                                       ((1, 3.0), (2, 1.0))]

    def test_untouched_rows_are_shared_with_the_predecessor(self):
        graph = make_paper_grid(5, "uniform")
        previous = csr_for(graph)
        previous.reverse_rows()
        u, v = (1, 1), (1, 2)
        graph.apply_cost_updates([(u, v, 9.0)])
        derived = csr_for(graph)
        assert csr.cache_stats()["derived"] == 1
        i, j = derived.index_of[u], derived.index_of[v]
        for w in range(derived.node_count):
            assert (derived.rows[w] is previous.rows[w]) == (w != i)
            assert (derived.reverse_rows()[w] is previous.reverse_rows()[w]) == (w != j)
        assert (j, 9.0) in derived.rows[i]
        assert (i, 9.0) in derived.reverse_rows()[j]
        assert (j, 9.0) not in previous.rows[i]


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

        # Try to write an epoch from inside the build itself. The build
        # holds the graph's gate (shared side), so the write is refused
        # rather than landing mid-build, and nothing is cached.
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
            with pytest.raises(RuntimeError):
                csr_for(graph)
        finally:
            Graph.neighbors = original
        assert Trip.fired and graph.edge_cost("a", "b") == 1.0
        assert csr.cache_stats()["entries"] == 0

    def test_search_uses_cache(self):
        graph = make_paper_grid(5, "variance", seed=3)
        from repro.kernel import search

        search(graph, (0, 0), (4, 4))
        search(graph, (4, 4), (0, 0))
        stats = csr.cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] >= 1


class TestDerivedSnapshots:
    """A snapshot one cost-only change behind is derived, not rebuilt."""

    @staticmethod
    def _assert_equals_rebuild(snapshot, graph):
        fresh = CSRGraph(graph)
        assert snapshot.fingerprint == fresh.fingerprint == graph.fingerprint
        assert snapshot.node_ids == fresh.node_ids
        assert snapshot.index_of == fresh.index_of
        assert snapshot.indptr == fresh.indptr
        assert snapshot.indices == fresh.indices
        assert snapshot.weights == fresh.weights
        assert snapshot.indptr_list == fresh.indptr_list
        assert snapshot.indices_list == fresh.indices_list
        assert snapshot.weights_list == fresh.weights_list
        assert snapshot.rows == fresh.rows
        assert snapshot.reverse_rows() == fresh.reverse_rows()

    def test_chained_epochs_match_a_rebuild(self):
        graph = make_paper_grid(6, "variance", seed=4)
        edges = sorted((e.source, e.target) for e in graph.edges())
        base = csr_for(graph)
        base.reverse_rows()  # so every derived snapshot patches its transpose
        previous = base
        for number in range(1, 5):
            updates = [
                (u, v, graph.edge_cost(u, v) * (0.5 + 0.3 * number))
                for u, v in edges[number::7]
            ]
            if number == 2:
                # One edge written twice: the batch's last value wins.
                u, v = edges[0]
                updates += [(u, v, 7.0), (u, v, 3.5)]
            graph.apply_cost_updates(updates)
            derived = csr_for(graph)
            # Topology shared, weights copied: no published list moved.
            assert derived.indices_list is base.indices_list
            assert derived.node_ids is base.node_ids
            assert derived.weights_list is not previous.weights_list
            assert derived.rows is not previous.rows
            if number == 2:
                i, j = derived.index_of[u], derived.index_of[v]
                assert (j, 3.5) in derived.rows[i]
                assert (i, 3.5) in derived.reverse_rows()[j]
            self._assert_equals_rebuild(derived, graph)
            previous = derived
        graph.update_edge_cost(*edges[3], 0.25)
        self._assert_equals_rebuild(csr_for(graph), graph)
        stats = csr.cache_stats()
        assert stats["derived"] == 5
        assert stats["builds"] == 6

    def test_structural_edit_forces_full_rebuild(self):
        graph = _diamond()
        first = csr_for(graph)
        graph.update_edge_cost("a", "b", 4.0)
        assert csr_for(graph).indices_list is first.indices_list
        assert csr.cache_stats()["derived"] == 1
        # A structural edit straight after the derived snapshot...
        graph.add_edge("b", "c", 1.0)
        rebuilt = csr_for(graph)
        assert rebuilt.indices_list is not first.indices_list
        assert rebuilt.edge_count == 5
        self._assert_equals_rebuild(rebuilt, graph)
        # ...and one between epochs, never seen by the cache.
        graph.update_edge_cost("a", "c", 6.0)
        graph.add_edge("d", "a", 2.0)
        graph.update_edge_cost("c", "d", 0.5)
        self._assert_equals_rebuild(csr_for(graph), graph)
        stats = csr.cache_stats()
        assert stats["derived"] == 1
        assert stats["builds"] == 4

    def test_snapshot_before_an_epoch_keeps_its_weights(self):
        graph = _diamond()
        before = csr_for(graph)
        weights = list(before.weights_list)
        graph.apply_cost_updates([("a", "b", 9.0), ("c", "d", 0.5)])
        after = csr_for(graph)
        assert before.weights_list == weights
        assert list(before.weights) == weights
        assert after.weights_list != weights
        assert before.fingerprint != after.fingerprint

    def test_euclidean_scale(self):
        graph = Graph("geometry")
        graph.add_node("a", 0.0, 0.0)
        graph.add_node("b", 3.0, 4.0)
        graph.add_node("c", 0.0, 0.0)  # zero length to a: excluded
        graph.add_edge("a", "b", 10.0)
        graph.add_edge("b", "a", 5.0)
        graph.add_edge("a", "c", 0.0)
        assert csr_for(graph).euclidean_scale(graph) == 1.0
        graph.update_edge_cost("b", "a", 2.5)
        assert csr_for(graph).euclidean_scale(graph) == 0.5
        # Priced at a state the graph has left: no bound at all.
        stale = graph.fingerprint
        graph.update_edge_cost("b", "a", 5.0)
        decrease = [CostDelta("b", "a", 5.0, 2.5)]
        assert RouteCache()._bound_decreases(graph, decrease, stale)[0] == 0.0
        assert csr_for(graph).euclidean_scale(graph) == 1.0


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
