"""ReplicaSet failover, version pinning, health, and fleet replication."""

import random
import time

import pytest

from repro.exceptions import ShardUnavailableError
from repro.faults.workerplan import WorkerFaultPlan
from repro.fleet import (
    DeadlinePolicy,
    FleetRouter,
    HealthPolicy,
    ReplicaSet,
    partition_graph,
)
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr
from repro.traffic.feed import TrafficFeed

pytestmark = [pytest.mark.fleet, pytest.mark.fleetchaos]


def one_shard_spec(side=5, seed=3):
    graph = make_paper_grid(side, "variance", seed=seed)
    return partition_graph(graph, 1, 1).shards[0]


def make_replicated_fleet(graph, rows, cols, **kwargs):
    partition = partition_graph(graph, rows, cols)
    router = FleetRouter(partition, **kwargs)
    feed = TrafficFeed(graph)
    feed.subscribe(router)
    return partition, router, feed


def assert_exact(graph, router, source, destination):
    result = router.plan(source, destination)
    reference = csr.uniform_cost(graph, source, destination)
    assert not result.shed, result.shed_reason
    assert result.found == reference.found
    if reference.found:
        assert result.cost == pytest.approx(reference.cost, abs=1e-9)
    return result


class TestReplicaSet:
    def test_peer_replicas_serve_independent_graph_copies(self):
        spec = one_shard_spec()
        rs = ReplicaSet(spec, replicas=2)
        try:
            assert rs.workers[0].graph is spec.graph
            assert rs.workers[1].graph is not spec.graph
            # Copies start cost-identical (exactness is shared)...
            assert rs.workers[1].graph.edge_cost(
                (0, 0), (0, 1)
            ) == spec.graph.edge_cost((0, 0), (0, 1))
            # ...but caches can never alias across replicas.
            assert rs.workers[1].graph.uid != spec.graph.uid
        finally:
            rs.shutdown()

    def test_epoch_fanout_reaches_every_replica(self):
        spec = one_shard_spec()
        rs = ReplicaSet(spec, replicas=3)
        try:
            rs.apply_deltas([((0, 0), (0, 1), 9.5)])
            for worker in rs.workers:
                assert worker.graph.edge_cost((0, 0), (0, 1)) == 9.5
            assert all(rs.replica_in_sync(i) for i in range(3))
            snap = rs.slo_snapshot()
            assert snap["epoch_target"] == 1
            assert snap["replicas_in_sync"] == 3
        finally:
            rs.shutdown()

    def test_a_raising_replica_does_not_stop_the_fan_out(self):
        spec = one_shard_spec()
        rs = ReplicaSet(spec, replicas=3)
        try:
            def broken(updates):
                raise RuntimeError("replica 0 apply failed")

            rs.workers[0].apply_deltas = broken
            with pytest.raises(RuntimeError, match="replica 0 apply failed"):
                rs.apply_deltas([((0, 0), (0, 1), 9.5)])
            # The raising replica falls out of sync; the others applied
            # the epoch and keep serving it.
            assert not rs.replica_in_sync(0)
            for index in (1, 2):
                assert rs.workers[index].graph.edge_cost((0, 0), (0, 1)) == 9.5
                assert rs.replica_in_sync(index)
            assert rs.slo_snapshot()["replicas_in_sync"] == 2
        finally:
            rs.shutdown()

    def test_transient_errors_retry_then_fail_over_exactly(self):
        spec = one_shard_spec()
        rs = ReplicaSet(
            spec,
            replicas=2,
            fault_plans={0: WorkerFaultPlan(seed=2, error_rate=1.0)},
        )
        try:
            outcome = rs.call(
                "plan",
                ((0, 0), (4, 4)),
                budget_s=5.0,
                hedge_s=0.25,
                max_attempts=2,
                backoff_s=0.0,
            )
            assert outcome.ok and not outcome.timed_out
            reference = csr.uniform_cost(spec.graph, (0, 0), (4, 4))
            assert outcome.value.cost == pytest.approx(
                reference.cost, abs=1e-9
            )
            # Replica 0 burned both attempts, then replica 1 served.
            assert outcome.retries == 1
            assert outcome.failovers == 1
        finally:
            rs.shutdown()

    def test_sustained_errors_reorder_serving_toward_healthy_peer(self):
        spec = one_shard_spec()
        rs = ReplicaSet(
            spec,
            replicas=2,
            fault_plans={0: WorkerFaultPlan(seed=4, error_rate=1.0)},
            health=HealthPolicy(window=8, min_samples=2, failure_threshold=0.5),
        )
        try:
            assert rs.serving_order() == [0, 1]
            for _ in range(3):
                assert rs.call(
                    "plan", ((0, 0), (2, 2)), budget_s=5.0, hedge_s=0.25
                ).ok
            assert not rs.replica_healthy(0)
            assert rs.replica_healthy(1)
            # Unhealthy replicas go last, but are never excluded.
            assert rs.serving_order() == [1, 0]
        finally:
            rs.shutdown()

    def test_crash_fails_over_and_version_pinning_excludes_the_dead(self):
        spec = one_shard_spec()
        rs = ReplicaSet(
            spec,
            replicas=2,
            fault_plans={0: WorkerFaultPlan(kill_at_op=0)},
        )
        try:
            outcome = rs.call(
                "plan", ((0, 0), (4, 4)), budget_s=5.0, hedge_s=0.25
            )
            assert outcome.ok and outcome.failovers == 1
            assert rs.workers[0].crashed
            # An epoch lands while replica 0 is dead: the target moves,
            # its version cannot, so it may never serve again.
            rs.apply_deltas([((0, 0), (0, 1), 3.25)])
            assert not rs.replica_in_sync(0)
            assert rs.replica_in_sync(1)
            assert rs.serving_order() == [1]
            assert rs.workers[1].graph.edge_cost((0, 0), (0, 1)) == 3.25
        finally:
            rs.shutdown()

    def test_all_replicas_dead_is_dark_not_wrong(self):
        spec = one_shard_spec()
        rs = ReplicaSet(spec, replicas=2)
        try:
            rs.kill(0)
            rs.kill(1)
            assert rs.dark
            outcome = rs.call(
                "plan", ((0, 0), (1, 1)), budget_s=1.0, hedge_s=0.1
            )
            assert not outcome.ok
            assert "dark" in outcome.shed_reason
            with pytest.raises(ShardUnavailableError):
                rs.plan_direct((0, 0), (1, 1))
            with pytest.raises(ShardUnavailableError):
                rs.boundary_clique()
            assert rs.slo_snapshot()["dark"] == 1
        finally:
            rs.shutdown()

    def test_hang_trips_the_hedge_and_the_peer_wins_the_race(self):
        spec = one_shard_spec()
        rs = ReplicaSet(
            spec,
            replicas=2,
            fault_plans={0: WorkerFaultPlan(hang_rate=1.0, hang_s=0.5)},
        )
        try:
            started = time.perf_counter()
            outcome = rs.call(
                "plan", ((0, 0), (4, 4)), budget_s=2.0, hedge_s=0.02
            )
            elapsed = time.perf_counter() - started
            assert outcome.ok
            assert outcome.hedges >= 1
            # The answer came from the hedged peer, not the hung
            # replica riding out its 0.5s stall.
            assert elapsed < 0.45
        finally:
            rs.shutdown()

    def test_budget_expiry_is_an_explicit_timeout_shed(self):
        spec = one_shard_spec(side=4)
        rs = ReplicaSet(
            spec,
            replicas=1,
            fault_plans={0: WorkerFaultPlan(hang_rate=1.0, hang_s=0.4)},
        )
        try:
            outcome = rs.call(
                "plan", ((0, 0), (3, 3)), budget_s=0.08, hedge_s=0.02
            )
            assert not outcome.ok
            assert outcome.timed_out
            assert "deadline" in outcome.shed_reason
        finally:
            rs.shutdown()

    def test_replica_count_validation(self):
        with pytest.raises(ValueError):
            ReplicaSet(one_shard_spec(), replicas=0)


class TestPolicies:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"min_samples": 0},
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
        ],
    )
    def test_health_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_s": 0.0},
            {"hedge_s": 0.0},
            {"boundary_s": -1.0},
            {"max_attempts": 0},
            {"backoff_s": -0.1},
        ],
    )
    def test_deadline_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            DeadlinePolicy(**kwargs)


class TestFleetReplication:
    def test_replicated_fleet_stays_exact_across_epochs(self):
        graph = make_paper_grid(6, "variance", seed=11)
        _partition, router, feed = make_replicated_fleet(
            graph, 2, 2, replicas=2
        )
        rng = random.Random(5)
        nodes = list(graph.node_ids())
        edges = list(graph.edges())
        try:
            for _ in range(12):
                assert_exact(
                    graph, router, rng.choice(nodes), rng.choice(nodes)
                )
            picked = rng.sample(edges, k=10)
            feed.apply(
                [
                    (edge.source, edge.target, edge.cost * rng.uniform(0.5, 2.0))
                    for edge in picked
                ]
            )
            for _ in range(12):
                assert_exact(
                    graph, router, rng.choice(nodes), rng.choice(nodes)
                )
            fleet = router.snapshot()["fleet"]
            assert fleet["replicas_per_shard"] == 2
        finally:
            router.shutdown()

    def test_replica_kill_fails_over_without_losing_exactness(self):
        graph = make_paper_grid(6, "variance", seed=11)
        partition, router, _feed = make_replicated_fleet(
            graph, 2, 2, replicas=2
        )
        rng = random.Random(7)
        nodes = list(graph.node_ids())
        shard_id = partition.shard_of((0, 0))
        try:
            router.kill_replica(shard_id, 0)
            for _ in range(12):
                assert_exact(
                    graph, router, rng.choice(nodes), rng.choice(nodes)
                )
            snap = router.snapshot()
            assert snap["fleet"]["replica_kills"] == 1
            assert snap[f"shard_{shard_id}"]["replicas_serving"] == 1
        finally:
            router.shutdown()

    def test_dark_shard_sheds_with_flag_never_silently(self):
        graph = make_paper_grid(6, "variance", seed=11)
        partition, router, _feed = make_replicated_fleet(
            graph, 2, 2, replicas=1
        )
        shard_id = partition.shard_of((0, 0))
        try:
            router.kill_replica(shard_id, 0)
            # A query starting in the dark shard sheds at its stage.
            result = router.plan((0, 0), (5, 5))
            assert result.shed
            assert "dark" in result.shed_reason
            # A cross-shard query between two healthy shards builds the
            # overlay, observes the missing clique, and sheds rather
            # than stitching around the hole.
            other = router.plan((0, 5), (5, 0))
            assert other.shed
            assert "dark" in other.shed_reason
            snap = router.snapshot()["fleet"]
            assert snap["dark_sheds"] >= 2
            assert snap["overlay_degraded"] == 1
        finally:
            router.shutdown()

    def test_no_repair_reads_a_lagging_replica(self):
        """A replica that missed a fan-out is out of the serving order:
        stale trees of its shard are repaired on the in-sync peer."""
        graph = make_paper_grid(6, "variance", seed=11)
        partition, router, feed = make_replicated_fleet(graph, 2, 2, replicas=2)
        shard_id = partition.shard_of((0, 0))
        replica_set = router.workers[shard_id]
        lagging = replica_set.workers[1]
        reads = []

        def refuse(updates):
            raise RuntimeError("replica 1 missed the fan-out")

        def recording(name):
            method = getattr(lagging, name)

            def record(*args):
                reads.append((name, args))
                return method(*args)

            return record

        nodes = [node for node in graph.node_ids() if partition.shard_of(node) == shard_id]
        inside = [
            (e.source, e.target, e.cost * 3.0)
            for e in graph.edges()
            if partition.shard_of(e.source) == partition.shard_of(e.target) == shard_id
        ]
        try:
            for source in nodes:
                assert_exact(graph, router, source, (5, 5))
                assert_exact(graph, router, (5, 5), source)
            lagging.apply_deltas = refuse
            for name in ("distances_to_boundary", "distances_from_boundary", "boundary_clique"):
                setattr(lagging, name, recording(name))
            with pytest.raises(RuntimeError):
                feed.apply(inside[:5])
            assert replica_set.serving_order() == [0]
            repairs = router.snapshot()["fleet"]["tree_repairs"]
            for source in nodes:
                assert_exact(graph, router, source, (5, 5))
                assert_exact(graph, router, (5, 5), source)
            assert router.snapshot()["fleet"]["tree_repairs"] > repairs
            assert reads == []
        finally:
            router.shutdown()

    def test_dark_shard_with_stale_trees_sheds(self):
        """A held tree that needs a repair in a dark shard sheds the
        query: it is never served stale."""
        graph = make_paper_grid(6, "variance", seed=11)
        partition, router, feed = make_replicated_fleet(graph, 2, 2, replicas=1)
        shard_id = partition.shard_of((0, 0))
        inside = [
            (e.source, e.target, e.cost * 5.0)
            for e in graph.edges()
            if partition.shard_of(e.source) == partition.shard_of(e.target) == shard_id
        ]
        peer = next(
            node for node in graph.node_ids()
            if partition.shard_of(node) == shard_id and node != (0, 0)
        )
        try:
            for destination in ((5, 5), peer):
                assert_exact(graph, router, (0, 0), destination)
            feed.apply(inside)
            router.kill_replica(shard_id, 0)
            for destination in ((5, 5), peer):
                result = router.plan((0, 0), destination)
                assert result.shed and not result.found
                assert "dark" in result.shed_reason
        finally:
            router.shutdown()

    def test_router_shutdown_is_idempotent_and_sheds_after(self):
        graph = make_paper_grid(4, "uniform", seed=1)
        _partition, router, _feed = make_replicated_fleet(graph, 1, 2)
        router.shutdown()
        router.shutdown()
        result = router.plan((0, 0), (3, 3))
        assert result.shed

    def test_router_shutdown_sheds_memoized_queries(self):
        """A stopped router must not keep answering from its tree table."""
        graph = make_paper_grid(6, "uniform", seed=1)
        _partition, router, _feed = make_replicated_fleet(graph, 1, 2)
        warm = router.plan((0, 0), (5, 5))
        assert warm.found and not warm.shed
        router.shutdown()
        result = router.plan((0, 0), (5, 5))
        assert result.shed and not result.found
        assert "shut down" in result.shed_reason
