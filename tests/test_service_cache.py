"""Unit tests for the serving-layer building blocks: RouteCache,
EstimatorPool and ServiceMetrics."""

import math
import random

import pytest

from repro.core.estimators import LandmarkEstimator
from repro.graphs.grid import make_grid, make_paper_grid
from repro.kernel import csr
from repro.service.cache import RouteCache, query_key
from repro.service.metrics import QueryMetrics, ServiceMetrics
from repro.service.pool import EstimatorPool

pytestmark = pytest.mark.service


def _key(graph, source=(0, 0), destination=(3, 3), algorithm="astar",
         estimator="euclidean", weight=1.0):
    return query_key(graph, source, destination, algorithm, estimator, weight)


class TestRouteCache:
    def test_miss_then_hit(self):
        graph = make_grid(4)
        cache = RouteCache(capacity=4)
        key = _key(graph)
        assert cache.get(key) is None
        cache.put(key, "answer")
        assert cache.get(key) == "answer"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_evicts_least_recently_used(self):
        graph = make_grid(4)
        cache = RouteCache(capacity=2)
        keys = [_key(graph, destination=(0, d)) for d in range(3)]
        cache.put(keys[0], "a")
        cache.put(keys[1], "b")
        cache.get(keys[0])  # refresh key 0
        cache.put(keys[2], "c")  # evicts key 1
        assert cache.get(keys[0]) == "a"
        assert cache.get(keys[1]) is None
        assert cache.get(keys[2]) == "c"
        assert cache.evictions == 1

    def test_capacity_zero_disables_caching(self):
        graph = make_grid(4)
        cache = RouteCache(capacity=0)
        key = _key(graph)
        cache.put(key, "answer")
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_fingerprint_change_is_a_miss(self):
        """An edge-cost refresh changes the graph fingerprint, so the
        same (source, destination) query can never hit a stale entry."""
        graph = make_grid(4)
        cache = RouteCache(capacity=8)
        cache.put(_key(graph), "stale")
        graph.update_edge_cost((0, 0), (0, 1), 9.0)
        assert cache.get(_key(graph)) is None

    def test_invalidate_graph_scopes_to_that_graph(self):
        graph_a = make_grid(4)
        graph_b = make_grid(4)
        cache = RouteCache(capacity=8)
        cache.put(_key(graph_a), "a")
        cache.put(_key(graph_b), "b")
        evicted = cache.invalidate_graph(graph_a)
        assert evicted == 1
        assert cache.get(_key(graph_a)) is None
        assert cache.get(_key(graph_b)) == "b"
        assert cache.invalidations == 1

    def test_invalidate_reclaims_old_version_slots(self):
        """One query holds one slot: a put at a newer version takes over
        the old version's slot instead of occupying a second one."""
        graph = make_grid(4)
        cache = RouteCache(capacity=8)
        old_key = _key(graph)
        cache.put(old_key, "v0")
        graph.update_edge_cost((0, 0), (0, 1), 9.0)
        cache.put(_key(graph), "v1")
        assert len(cache) == 1
        assert cache.get(old_key) is None
        assert cache.get(_key(graph)) == "v1"
        assert cache.invalidate_graph(graph) == 1
        assert len(cache) == 0

    def test_snapshot_is_plain_numbers(self):
        cache = RouteCache(capacity=4)
        snap = cache.snapshot()
        assert set(snap) == {
            "capacity", "size", "hits", "misses", "evictions",
            "invalidations", "rekeyed", "indexed_edges", "hit_rate",
        }
        assert all(isinstance(value, (int, float)) for value in snap.values())


class TestInvalidateEdgesRekeyTarget:
    """Regression tests for the survivor re-key fingerprint.

    ``invalidate_edges`` used to re-key survivors to the *live*
    ``graph.fingerprint``. When updates race ahead of epoch handling
    (the graph is already at v3 while the subscriber processes the
    v1->v2 epoch), that default leapfrogged survivors straight past the
    intervening epoch's delta analysis, leaving provably stale answers
    live at the newest fingerprint. Survivors must land at the epoch's
    *own* produced fingerprint instead.
    """

    def _seed_entry(self, graph, cache):
        """Cache one provenance-bearing answer at the current state."""
        key = _key(graph, source=(0, 0), destination=(0, 1))
        cache.put(key, "route", edges=[((0, 0), (0, 1))], cost=1.0)
        return key

    def _bump(self, graph, source, target, cost):
        """Raise one far-away edge cost; return the delta + new print."""
        from repro.graphs.graph import CostDelta

        old = graph.edge_cost(source, target)
        assert cost > old  # increases keep the decrease bound out of play
        graph.update_edge_cost(source, target, cost)
        return CostDelta(source, target, old, cost), graph.fingerprint

    def test_survivor_rekeys_to_epoch_fingerprint_not_live(self):
        graph = make_grid(4)
        cache = RouteCache(capacity=8)
        key1 = self._seed_entry(graph, cache)
        fp1 = graph.fingerprint
        delta1, fp2 = self._bump(graph, (3, 3), (2, 3), 90.0)
        delta2, fp3 = self._bump(graph, (3, 3), (3, 2), 91.0)
        assert fp1 != fp2 != fp3

        # Process epoch 1 while the graph is already at fp3.
        report = cache.invalidate_edges(
            graph, [delta1], previous_fingerprint=fp1, new_fingerprint=fp2
        )
        assert report.rekeyed == 1 and report.evicted == 0
        assert cache.get((fp2,) + key1[1:]) == "route"
        # The old behaviour would make this a (stale) hit at fp3.
        assert cache.get((fp3,) + key1[1:]) is None
        assert cache.audit_index() == []

        # Processing epoch 2 in order brings the survivor up to fp3.
        report = cache.invalidate_edges(
            graph, [delta2], previous_fingerprint=fp2, new_fingerprint=fp3
        )
        assert report.rekeyed == 1 and report.evicted == 0
        assert cache.get((fp3,) + key1[1:]) == "route"
        assert cache.audit_index() == []

    def test_leapfrog_would_have_served_a_stale_answer(self):
        """The concrete hazard: epoch 2 re-prices the cached route's
        own edge. A survivor leapfrogged to fp3 during epoch-1 handling
        would serve that re-priced route as current; pinning the re-key
        to fp2 lets epoch-2 handling evict it before fp3 lookups hit."""
        graph = make_grid(4)
        cache = RouteCache(capacity=8)
        key1 = self._seed_entry(graph, cache)
        fp1 = graph.fingerprint
        delta1, fp2 = self._bump(graph, (3, 3), (2, 3), 90.0)
        delta2, fp3 = self._bump(graph, (0, 0), (0, 1), 91.0)  # the route!

        cache.invalidate_edges(
            graph, [delta1], previous_fingerprint=fp1, new_fingerprint=fp2
        )
        cache.invalidate_edges(
            graph, [delta2], previous_fingerprint=fp2, new_fingerprint=fp3
        )
        assert cache.get((fp3,) + key1[1:]) is None
        assert len(cache) == 0
        assert cache.audit_index() == []

    def test_rekeying_epochs_keep_lru_order_and_index(self):
        """Re-keying survivors across several epochs leaves recency
        order and both inverted indexes exactly as they were."""
        graph = make_grid(4)
        cache = RouteCache(capacity=4)
        routes = [
            ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (2, 1)), ((0, 1), (0, 2)),
        ]
        for source, destination in routes:
            cache.put(
                _key(graph, source=source, destination=destination),
                (source, destination),
                edges=[(source, destination)],
                cost=1.0,
            )
        cache.get(_key(graph, source=(0, 0), destination=(0, 1)))  # most recent
        for cost in (90.0, 91.0, 92.0):
            fp = graph.fingerprint
            delta, new_fp = self._bump(graph, (3, 3), (2, 3), cost)
            report = cache.invalidate_edges(
                graph, [delta], previous_fingerprint=fp, new_fingerprint=new_fp
            )
            assert report.rekeyed == 4 and report.evicted == 0
            assert cache.audit_index() == []
        # LRU order (oldest first) is routes 1, 2, 3, 0: each new put
        # now evicts the next one in exactly that order.
        for victim in (1, 2, 3):
            cache.put(_key(graph, destination=(3, 3 - victim)), "new")
            source, destination = routes[victim]
            assert cache.get(_key(graph, source=source, destination=destination)) is None
            assert cache.audit_index() == []
        source, destination = routes[0]
        assert cache.get(
            _key(graph, source=source, destination=destination)
        ) == (source, destination)

    def test_default_rekey_target_is_still_the_live_fingerprint(self):
        """Quiesced, strictly-in-order callers that pass no
        ``new_fingerprint`` keep the old (sound, in that regime)
        behaviour: survivors land at the live fingerprint."""
        graph = make_grid(4)
        cache = RouteCache(capacity=8)
        key1 = self._seed_entry(graph, cache)
        fp1 = graph.fingerprint
        delta1, fp2 = self._bump(graph, (3, 3), (2, 3), 90.0)
        report = cache.invalidate_edges(
            graph, [delta1], previous_fingerprint=fp1
        )
        assert report.rekeyed == 1
        assert cache.get((fp2,) + key1[1:]) == "route"
        assert cache.audit_index() == []


def _old_rule_dead(graph, entries, deltas, previous_fp):
    """The slots the pre-index decrease rule evicts, written out: an
    entry dies when it was cached at another state, crosses a touched
    edge or has no provenance, or when some cheaper edge's straight-line
    detour (scaled by the new snapshot's ``euclidean_scale``) undercuts
    its cost."""
    touched = {(d.source, d.target) for d in deltas}
    decreases = [d for d in deltas if d.decreased]
    scale = csr.csr_for(graph).euclidean_scale(graph)
    dead = set()
    for slot, (fingerprint, cost, edges) in entries.items():
        if fingerprint != previous_fp or edges is None or edges & touched:
            dead.add(slot)
            continue
        if not decreases or (cost == math.inf and edges is not None):
            continue
        sx, sy = graph.coordinates(slot[1])
        dx, dy = graph.coordinates(slot[2])
        for delta in decreases:
            ux, uy = graph.coordinates(delta.source)
            vx, vy = graph.coordinates(delta.target)
            detour = (
                scale * math.hypot(sx - ux, sy - uy)
                + delta.new_cost
                + scale * math.hypot(vx - dx, vy - dy)
            )
            if detour < cost:
                dead.add(slot)
                break
    return dead


class TestDecreaseRuleReplay:
    def test_invalidation_matches_the_old_rule_epoch_for_epoch(self):
        """Seeded epochs, some pricing edges below their straight-line
        length, evict and re-key exactly the slots the old rule does,
        and leave both indexes an exact mirror. Half the routes are put
        with their graph (coordinates looked up at the put), the rest
        without (looked up on the first decrease), plus entries without
        provenance."""
        rng = random.Random(1993)
        graph = make_paper_grid(8, "variance", seed=5)
        nodes = list(graph.node_ids())
        edges = [(e.source, e.target) for e in graph.edges()]
        base = {edge: graph.edge_cost(*edge) for edge in edges}
        cache = RouteCache(capacity=96)

        def fill(count):
            for _ in range(count):
                source, destination = rng.sample(nodes, 2)
                run = csr.uniform_cost(graph, source, destination)
                key = _key(graph, source=source, destination=destination,
                           algorithm="dijkstra")
                if rng.random() < 0.1:
                    cache.put(key, run, cost=run.cost)
                    continue
                cache.put(key, run, edges=list(zip(run.path, run.path[1:])),
                          cost=run.cost, graph=graph if rng.random() < 0.5 else None)

        fill(120)
        evicted = rekeyed = 0
        for number in range(24):
            entries = {
                slot: (entry.fingerprint, entry.cost, entry.edges)
                for slot, entry in cache._entries.items()
            }
            previous_fp = graph.fingerprint
            low = 0.3 if number % 2 else 1.0
            deltas = graph.apply_cost_updates(
                [(u, v, base[(u, v)] * rng.uniform(low, 2.0))
                 for u, v in rng.sample(edges, 6)]
            )
            expected = _old_rule_dead(graph, entries, deltas, previous_fp)
            report = cache.invalidate_edges(
                graph, deltas, previous_fp, new_fingerprint=graph.fingerprint
            )
            assert set(entries) - set(cache._entries) == expected
            assert report.evicted == len(expected)
            assert report.rekeyed == len(cache._entries) == len(entries) - len(expected)
            assert all(
                entry.fingerprint == graph.fingerprint
                for entry in cache._entries.values()
            )
            assert cache.audit_index() == []
            evicted += report.evicted
            rekeyed += report.rekeyed
            fill(report.evicted)
        assert csr.csr_for(graph).euclidean_scale(graph) < 1.0
        assert evicted and rekeyed


class TestRoutesCrossing:
    def test_reads_the_inverted_index_forwards(self):
        graph = make_grid(4)
        cache = RouteCache(capacity=8)
        edges_a = [((0, 0), (0, 1)), ((0, 1), (0, 2))]
        edges_b = [((1, 0), (1, 1))]
        cache.put(_key(graph, source=(0, 0), destination=(0, 2)),
                  "a", edges=edges_a, cost=2.0)
        cache.put(_key(graph, source=(1, 0), destination=(1, 1)),
                  "b", edges=edges_b, cost=1.0)
        hits = cache.routes_crossing(graph, [((0, 1), (0, 2))])
        assert [(s, d) for s, d, _ in hits] == [((0, 0), (0, 2))]
        assert hits[0][2] == frozenset(edges_a)
        # An un-crossed link yields nothing; serving counters untouched.
        assert cache.routes_crossing(graph, [((3, 3), (3, 2))]) == []
        assert cache.hits == 0 and cache.misses == 0

    def test_stale_fingerprint_entries_are_filtered(self):
        """Between epochs the index legally holds old-fingerprint
        entries; select-link must never report their routes."""
        graph = make_grid(4)
        cache = RouteCache(capacity=8)
        cache.put(_key(graph, source=(0, 0), destination=(0, 1)),
                  "old", edges=[((0, 0), (0, 1))], cost=1.0)
        graph.update_edge_cost((3, 3), (2, 3), 90.0)
        assert cache.routes_crossing(graph, [((0, 0), (0, 1))]) == []
        assert len(cache) == 1  # the entry itself is still cached
        assert cache.audit_index() == []
    def test_acquire_release_reuses_instance(self):
        graph = make_grid(5)
        pool = EstimatorPool()
        first = pool.acquire("euclidean", graph)
        pool.release("euclidean", first)
        second = pool.acquire("euclidean", graph)
        assert second is first
        assert pool.created == 1 and pool.reused == 1

    def test_concurrent_checkouts_get_distinct_instances(self):
        graph = make_grid(5)
        pool = EstimatorPool()
        first = pool.acquire("euclidean", graph)
        second = pool.acquire("euclidean", graph)
        assert second is not first

    def test_landmark_preprocessed_on_build(self):
        graph = make_grid(5)
        pool = EstimatorPool(landmark_count=2)
        estimator = pool.acquire("landmark", graph)
        assert isinstance(estimator, LandmarkEstimator)
        assert estimator._prepared_for == graph.fingerprint

    def test_landmark_pool_retired_by_cost_update(self):
        """After a traffic update the old instance must not be reissued."""
        graph = make_grid(5)
        pool = EstimatorPool(landmark_count=2)
        old = pool.acquire("landmark", graph)
        pool.release("landmark", old)
        graph.update_edge_cost((0, 0), (0, 1), 7.0)
        fresh = pool.acquire("landmark", graph)
        assert fresh is not old
        assert fresh._prepared_for == graph.fingerprint

    def test_release_of_foreign_instance_is_noop(self):
        graph = make_grid(5)
        pool = EstimatorPool()
        from repro.core.estimators import EuclideanEstimator

        pool.release("euclidean", EuclideanEstimator())
        assert pool.acquire("euclidean", graph) is not None
        assert pool.created == 1

    def test_estimator_kwargs_forwarded(self):
        graph = make_grid(5)
        pool = EstimatorPool(
            estimator_kwargs={"euclidean": {"cost_per_unit": 0.5}}
        )
        estimator = pool.acquire("euclidean", graph)
        assert estimator.cost_per_unit == 0.5


class TestServiceMetrics:
    def _query(self, **overrides):
        defaults = dict(
            algorithm="astar", estimator="euclidean", cache_hit=False,
            latency_s=0.01, nodes_expanded=5, iterations=5, cost=3.0,
            found=True,
        )
        defaults.update(overrides)
        return QueryMetrics(**defaults)

    def test_aggregation(self):
        metrics = ServiceMetrics()
        metrics.record(self._query())
        metrics.record(self._query(cache_hit=True, latency_s=0.001))
        metrics.record(self._query(found=False))
        snap = metrics.snapshot()
        assert snap["queries"] == 3
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 2
        assert snap["cache_hit_rate"] == pytest.approx(1 / 3)
        assert snap["not_found"] == 1
        assert snap["nodes_expanded"] == 15
        assert snap["average_latency_s"] == pytest.approx(0.021 / 3)

    def test_reset(self):
        metrics = ServiceMetrics()
        metrics.record(self._query())
        metrics.reset()
        assert metrics.snapshot()["queries"] == 0
        assert metrics.recent == []

    def test_recent_bounded(self):
        metrics = ServiceMetrics(keep_last=3)
        for _ in range(10):
            metrics.record(self._query())
        assert len(metrics.recent) == 3
        assert metrics.queries == 10
