"""Batch OD workloads: skim exactness, select-link, assignment.

The demand subsystem's contract is *exactness by construction*: every
skim cell is the same float a single-pair CSR Dijkstra returns, every
retained tree path is the route the point query returns, every
select-link flow is derivable from per-pair path membership, and every
assignment iteration conserves demand. These tests hold that contract
on the paper grids, on random sparse digraphs with genuinely
unreachable pairs, and across traffic epochs.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.demand import (
    BPRParams,
    SkimMatrix,
    assign,
    link_flows,
    select_link,
    skim,
)
from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.kernel import csr, reference_sssp
from repro.service import RouteService
from repro.traffic.feed import TrafficFeed

pytestmark = pytest.mark.demand


def random_sparse_digraph(nodes: int, edges: int, seed: int) -> Graph:
    """A directed graph sparse enough to leave some pairs unreachable."""
    rng = random.Random(seed)
    graph = Graph(name=f"sparse-{seed}")
    for i in range(nodes):
        graph.add_node(i, rng.uniform(0, 10), rng.uniform(0, 10))
    added = 0
    while added < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v, rng.uniform(1.0, 9.0))
        added += 1
    return graph


def apply_random_epoch(feed: TrafficFeed, seed: int, count: int = 6) -> None:
    rng = random.Random(seed)
    edges = sorted((e.source, e.target) for e in feed.graph.edges())
    sample = rng.sample(edges, min(count, len(edges)))
    feed.apply(
        [
            (u, v, feed.graph.edge_cost(u, v) * rng.uniform(0.6, 1.7))
            for u, v in sample
        ]
    )


# ---------------------------------------------------------------------------
# skim: cell exactness
# ---------------------------------------------------------------------------
class TestSkimExactness:
    def test_grid_cells_match_pointwise_csr_across_epochs(self):
        """Every cell == ``uniform_cost`` for the pair, at 4 cost states.

        The satellite contract: cell-exactness vs per-pair CSR Dijkstra
        on a grid, re-checked across >= 3 traffic epochs.
        """
        graph = make_paper_grid(8, "variance", seed=21)
        feed = TrafficFeed(graph)
        rng = random.Random(21)
        nodes = sorted(n.node_id for n in graph.nodes())
        origins = rng.sample(nodes, 5)
        destinations = rng.sample(nodes, 5)
        for epoch in range(4):  # base state + 3 epochs
            if epoch:
                apply_random_epoch(feed, seed=100 + epoch)
            matrix = skim(graph, origins, destinations)
            assert matrix.fingerprint == graph.fingerprint
            for o in origins:
                for d in destinations:
                    run = csr.uniform_cost(graph, o, d)
                    expected = run.cost if run.found else math.inf
                    assert matrix.cost(o, d) == expected

    def test_random_sparse_digraph_across_epochs(self):
        """Same exactness on a random digraph, reference SSSP this time."""
        graph = random_sparse_digraph(nodes=40, edges=90, seed=7)
        feed = TrafficFeed(graph)
        origins = list(range(0, 40, 5))
        for epoch in range(4):
            if epoch:
                apply_random_epoch(feed, seed=200 + epoch)
            matrix = skim(graph, origins)  # destinations default: all
            for i, o in enumerate(origins):
                ref, _ = reference_sssp(graph, o)
                for j, d in enumerate(matrix.destinations):
                    assert matrix.costs[i][j] == ref.get(d, math.inf)

    def test_skim_matches_reference_sssp_bitwise(self):
        """Cells and retained trees equal the dict-of-dict reference."""
        graph = random_sparse_digraph(nodes=30, edges=70, seed=13)
        origins = [0, 3, 9, 15]
        matrix = skim(graph, origins, retain_paths=True)
        for i, o in enumerate(origins):
            dist, pred = reference_sssp(graph, o)
            assert matrix.costs[i] == [
                dist.get(d, math.inf) for d in matrix.destinations
            ]
            assert matrix.trees[o] == pred

    def test_unreachable_pairs_reported_as_inf_never_dropped(self):
        """The matrix is dense: every requested pair has a cell."""
        graph = random_sparse_digraph(nodes=25, edges=30, seed=3)
        origins = list(range(25))
        matrix = skim(graph, origins)
        rows, cols = matrix.shape
        assert rows == 25 and cols == 25
        unreachable = matrix.unreachable_pairs()
        assert unreachable, "workload should contain unreachable pairs"
        for o, d in unreachable:
            assert matrix.cost(o, d) == math.inf
            run = csr.uniform_cost(graph, o, d)
            assert not run.found
        finite = rows * cols - len(unreachable)
        assert finite > 0

    def test_duplicate_origins_share_one_sssp(self, tiny_graph):
        matrix = skim(tiny_graph, ["a", "a", "b", "a"], ["e", "d"])
        assert matrix.sssp_runs == 2  # a and b, computed once each
        assert matrix.shape == (4, 2)
        assert matrix.cost("a", "e") == 4.0
        assert matrix.costs[0] == matrix.costs[1] == matrix.costs[3]

    def test_unknown_zone_raises_at_call(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            skim(tiny_graph, ["a", "missing"])
        with pytest.raises(NodeNotFoundError):
            skim(tiny_graph, ["a"], ["e", "missing"])

    def test_cost_accessors_validate_membership(self, tiny_graph):
        matrix = skim(tiny_graph, ["a"], ["e"])
        with pytest.raises(NodeNotFoundError):
            matrix.cost("b", "e")
        with pytest.raises(NodeNotFoundError):
            matrix.cost("a", "b")
        assert matrix.row("a") == {"e": 4.0}


# ---------------------------------------------------------------------------
# skim: path retention
# ---------------------------------------------------------------------------
class TestSkimPaths:
    def test_tree_paths_are_the_point_query_routes(self):
        graph = make_paper_grid(7, "variance", seed=4)
        rng = random.Random(4)
        nodes = sorted(n.node_id for n in graph.nodes())
        origins = rng.sample(nodes, 4)
        destinations = rng.sample(nodes, 4)
        matrix = skim(graph, origins, destinations, retain_paths=True)
        for o in origins:
            for d in destinations:
                path = matrix.path(o, d)
                run = csr.uniform_cost(graph, o, d)
                assert path == run.path
                if o != d:
                    assert graph.path_cost(path) == matrix.cost(o, d)

    def test_path_without_retention_raises(self, tiny_graph):
        matrix = skim(tiny_graph, ["a"], ["e"])
        with pytest.raises(ValueError):
            matrix.path("a", "e")
        with pytest.raises(ValueError):
            list(matrix.routes())

    def test_unreachable_and_self_pairs(self, disconnected_graph):
        matrix = skim(
            disconnected_graph, ["a", "z"], ["a", "b", "z"],
            retain_paths=True,
        )
        assert matrix.path("a", "z") is None
        assert matrix.path("a", "a") == ["a"]
        assert matrix.cost("z", "b") == math.inf
        routes = list(matrix.routes())
        # Only reachable, non-self pairs yield route edges.
        assert {(o, d) for o, d, _ in routes} == {("a", "b")}
        assert routes[0][2] == (("a", "b"),)


# ---------------------------------------------------------------------------
# select-link
# ---------------------------------------------------------------------------
class TestSelectLink:
    def test_flows_match_path_membership(self, tiny_graph):
        matrix = skim(
            tiny_graph, ["a", "b"], ["d", "e"], retain_paths=True
        )
        demand = {
            ("a", "d"): 10.0,
            ("a", "e"): 20.0,
            ("b", "d"): 5.0,
            ("b", "e"): 2.0,
        }
        result = select_link(
            matrix, [("c", "d"), ("d", "e"), ("a", "c")], demand
        )
        # Every shortest path here runs a-b-c-d(-e) / b-c-d(-e).
        assert result.flow(("c", "d")).pairs == demand
        assert result.flow(("d", "e")).pairs == {
            ("a", "e"): 20.0,
            ("b", "e"): 2.0,
        }
        # a->c directly is never on a shortest path (a-b-c is cheaper):
        # the link is reported, with an empty table — never dropped.
        assert result.flow(("a", "c")).pairs == {}
        assert result.flow(("a", "c")).volume == 0.0
        assert result.flow(("c", "d")).volume == 37.0
        assert result.fingerprint == tiny_graph.fingerprint
        assert result.source == "skim"

    def test_missing_demand_defaults_to_unit_census(self, tiny_graph):
        matrix = skim(tiny_graph, ["a"], ["e"], retain_paths=True)
        result = select_link(matrix, [("d", "e")])
        assert result.flow(("d", "e")).pairs == {("a", "e"): 1.0}

    def test_unknown_link_lookup_raises(self, tiny_graph):
        matrix = skim(tiny_graph, ["a"], ["e"], retain_paths=True)
        result = select_link(matrix, [("d", "e")])
        with pytest.raises(KeyError):
            result.flow(("a", "b"))

    def test_link_flows_accepts_any_route_stream(self):
        routes = [
            ("o1", "d1", (("x", "y"), ("y", "z"))),
            ("o2", "d2", (("x", "y"),)),
        ]
        flows = link_flows(routes, [("x", "y"), ("q", "r")], {("o1", "d1"): 3.0})
        assert flows[("x", "y")].pairs == {("o1", "d1"): 3.0, ("o2", "d2"): 1.0}
        assert flows[("q", "r")].pairs == {}


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------
class TestServiceSkim:
    def make_grid_service(self):
        graph = make_paper_grid(6, "variance", seed=9)
        service = RouteService()
        feed = TrafficFeed(graph)
        feed.subscribe(service)
        return graph, service, feed

    def test_skim_reuse_and_epoch_drop(self):
        graph, service, feed = self.make_grid_service()
        rng = random.Random(9)
        nodes = sorted(n.node_id for n in graph.nodes())
        origins = rng.sample(nodes, 4)
        destinations = rng.sample(nodes, 4)
        first = service.skim(graph, origins, destinations, retain_paths=True)
        # A path-retaining matrix serves the cost-only ask as a hit.
        assert service.skim(graph, origins, destinations) is first
        assert service.skim_hits == 1
        assert service.skims_computed == 1
        apply_random_epoch(feed, seed=90)
        again = service.skim(graph, origins, destinations)
        assert again is not first
        assert again.fingerprint == graph.fingerprint
        assert again.fingerprint != first.fingerprint
        snap = service.snapshot()
        assert snap["skims_computed"] == 2
        assert snap["skim_hits"] == 1
        assert snap["skim_cells"] == 32

    def test_skim_agrees_with_plan_many(self):
        """The batch tier and the serving tier price pairs identically."""
        graph, service, _ = self.make_grid_service()
        rng = random.Random(10)
        nodes = sorted(n.node_id for n in graph.nodes())
        origins = rng.sample(nodes, 3)
        destinations = rng.sample(nodes, 3)
        matrix = service.skim(graph, origins, destinations)
        specs = [
            {"source": o, "destination": d, "algorithm": "dijkstra"}
            for o in origins
            for d in destinations
        ]
        answers = service.plan_many(graph, specs)
        for spec, answer in zip(specs, answers):
            expected = matrix.cost(spec["source"], spec["destination"])
            assert answer.cost == expected

    def test_select_link_sources_agree_on_served_pairs(self):
        """The cache's edge index and fresh trees tell the same story.

        For OD pairs that were actually *served* (so their routes sit
        in the cache), select-link from the inverted edge index must
        agree with select-link from a fresh path-retaining skim.
        """
        graph, service, _ = self.make_grid_service()
        rng = random.Random(11)
        nodes = sorted(n.node_id for n in graph.nodes())
        origins = rng.sample(nodes, 4)
        destinations = rng.sample(nodes, 4)
        demand = {
            (o, d): 7.0 for o in origins for d in destinations if o != d
        }
        # Serve every pair with a cost-optimal algorithm so the cache
        # holds provenance-bearing routes at the current fingerprint.
        for o, d in demand:
            service.plan(graph, o, d, algorithm="dijkstra")
        matrix = service.skim(graph, origins, destinations, retain_paths=True)
        links = sorted(
            {edge for _, _, edges in matrix.routes() for edge in edges}
        )[:6]
        via_skim = service.select_link(graph, links, demand=demand)
        via_cache = service.select_link(
            graph, links, demand=demand, source="cache"
        )
        assert via_skim.source == "skim" and via_cache.source == "cache"
        assert via_skim.fingerprint == via_cache.fingerprint
        for link in links:
            assert (
                via_skim.flow(link).pairs == via_cache.flow(link).pairs
            ), link
        assert service.cache.audit_index() == []

    def test_select_link_needs_zones_or_demand(self):
        graph, service, _ = self.make_grid_service()
        with pytest.raises(ValueError):
            service.select_link(graph, [((0, 0), (0, 1))])
        with pytest.raises(ValueError):
            service.select_link(graph, [], source="both")


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------
def two_route_network() -> Graph:
    """One OD pair, two parallel routes with different free-flow costs."""
    graph = Graph(name="two-route")
    graph.add_node("o", 0, 0)
    graph.add_node("a", 1, 1)
    graph.add_node("b", 1, -1)
    graph.add_node("d", 2, 0)
    graph.add_edge("o", "a", 5.0)
    graph.add_edge("a", "d", 5.0)
    graph.add_edge("o", "b", 6.0)
    graph.add_edge("b", "d", 6.0)
    return graph


class TestAssignment:
    def test_equilibrium_splits_flow_until_times_equalize(self):
        graph = two_route_network()
        demand = {("o", "d"): 100.0}
        result = assign(
            graph, demand, capacity=60.0, tolerance=1e-6,
            max_iterations=200,
        )
        assert result.converged
        assert result.relative_gap < 1e-6
        via_a = result.volumes[("o", "a")]
        via_b = result.volumes[("o", "b")]
        assert via_a + via_b == pytest.approx(100.0)
        assert via_a > via_b > 0  # both used; cheaper route carries more
        # Wardrop: used routes have (near-)equal congested times.
        time_a = result.costs[("o", "a")] + result.costs[("a", "d")]
        time_b = result.costs[("o", "b")] + result.costs[("b", "d")]
        assert time_a == pytest.approx(time_b, rel=1e-3)
        # Volumes are consistent along each route.
        assert result.volumes[("o", "a")] == pytest.approx(
            result.volumes[("a", "d")]
        )

    def test_msa_and_fw_agree_on_the_equilibrium(self):
        demand = {("o", "d"): 100.0}
        fw = assign(
            two_route_network(), demand, capacity=60.0,
            tolerance=1e-5, max_iterations=400,
        )
        msa = assign(
            two_route_network(), demand, capacity=60.0, method="msa",
            tolerance=1e-5, max_iterations=400,
        )
        assert fw.converged and msa.converged
        assert fw.volumes[("o", "a")] == pytest.approx(
            msa.volumes[("o", "a")], rel=1e-2
        )

    def test_volumes_conserve_demand_every_iteration(self):
        graph = make_paper_grid(6, "variance", seed=17)
        rng = random.Random(17)
        nodes = sorted(n.node_id for n in graph.nodes())
        zones = rng.sample(nodes, 5)
        demand = {
            (o, d): rng.uniform(10, 50)
            for o in zones
            for d in zones
            if o != d
        }
        result = assign(
            graph, demand, max_iterations=25, tolerance=1e-9,
            record_volumes=True,
        )
        total = sum(demand.values())
        for record in result.iterations:
            snapshot_volumes = record.volumes
            assert snapshot_volumes is not None
            probe = type(result)(
                graph_name=result.graph_name,
                method=result.method,
                converged=True,
                relative_gap=0.0,
                tolerance=1e-9,
                volumes=snapshot_volumes,
                costs={},
                free_flow={},
                capacity={},
                demand_total=total,
            )
            assert probe.conservation_residual(demand) < 1e-9 * max(1.0, total)

    def test_assignment_prices_flow_through_the_feed(self):
        """Congestion epochs reach feed subscribers like sensor updates."""
        graph = two_route_network()
        feed = TrafficFeed(graph)
        service = RouteService()
        feed.subscribe(service)
        before = service.epochs_applied
        result = assign(
            graph, {("o", "d"): 100.0}, feed=feed, capacity=60.0,
            tolerance=1e-4, max_iterations=100,
        )
        assert result.converged
        assert result.epochs_applied > 0
        assert service.epochs_applied - before == result.epochs_applied
        # The graph is left at the final congested prices the result
        # reports — a subscribed service now serves congested routes.
        for (u, v), cost in result.costs.items():
            assert graph.edge_cost(u, v) == cost

    def test_unreachable_demand_refuses_to_assign(self, disconnected_graph):
        with pytest.raises(ValueError, match="unreachable"):
            assign(disconnected_graph, {("a", "z"): 5.0})

    def test_validation_errors(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            assign(tiny_graph, {("a", "missing"): 1.0})
        with pytest.raises(ValueError):
            assign(tiny_graph, {("a", "e"): -1.0})
        with pytest.raises(ValueError):
            assign(tiny_graph, {("a", "e"): math.nan})
        with pytest.raises(ValueError):
            assign(tiny_graph, {("a", "e"): 1.0}, method="magic")
        with pytest.raises(ValueError):
            assign(tiny_graph, {("a", "e"): 1.0}, capacity=0.0)
        with pytest.raises(ValueError):
            assign(tiny_graph, {("a", "e"): 1.0}, max_iterations=0)
        with pytest.raises(ValueError):
            assign(tiny_graph, {("a", "e"): 1.0}, tolerance=0.0)
        with pytest.raises(ValueError):
            assign(
                tiny_graph, {("a", "e"): 1.0},
                capacity={("a", "b"): 10.0},  # does not cover every edge
            )

    def test_empty_and_zero_demand_is_trivially_converged(self, tiny_graph):
        result = assign(tiny_graph, {})
        assert result.converged
        assert result.iteration_count == 1
        assert result.demand_total == 0.0
        zero = assign(tiny_graph, {("a", "e"): 0.0, ("a", "a"): 9.0})
        assert zero.converged
        assert all(v == 0.0 for v in zero.volumes.values())

    def test_auditor_sees_every_iteration_and_can_abort(self):
        graph = two_route_network()
        seen = []

        def auditor(iteration, g, matrix, aon):
            seen.append(iteration)
            assert matrix.trees is not None
            assert sum(aon.values()) > 0

        result = assign(
            graph, {("o", "d"): 50.0}, capacity=60.0,
            max_iterations=30, tolerance=1e-4, auditor=auditor,
        )
        assert seen == [r.number for r in result.iterations][: len(seen)]
        assert len(seen) >= result.iteration_count - 1

        class Abort(RuntimeError):
            pass

        def bomb(iteration, g, matrix, aon):
            raise Abort()

        with pytest.raises(Abort):
            assign(
                two_route_network(), {("o", "d"): 50.0},
                capacity=60.0, auditor=bomb,
            )

    def test_bpr_curve_shape(self):
        params = BPRParams(alpha=0.15, beta=4.0)
        assert params.travel_time(10.0, 0.0, 100.0) == 10.0
        assert params.travel_time(10.0, 100.0, 100.0) == pytest.approx(11.5)
        assert params.travel_time(10.0, 200.0, 100.0) == pytest.approx(
            10.0 * (1 + 0.15 * 16)
        )

    def test_summary_and_repr_shapes(self, tiny_graph):
        matrix = skim(tiny_graph, ["a"], ["e"])
        assert "1x1" in repr(matrix)
        assert isinstance(matrix, SkimMatrix)
        result = assign(tiny_graph, {("a", "e"): 10.0}, capacity=20.0)
        summary = result.summary()
        assert summary["converged"] == 1.0
        assert summary["demand_total"] == 10.0
