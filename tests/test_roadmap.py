"""Tests for the synthetic Minneapolis road map generator.

These assert the structural properties the substitution argument in
DESIGN.md rests on: size, degree, directedness, geography (lake void,
river bridges, rotated downtown) and determinism.
"""

import hashlib
import math

import pytest

from repro.graphs.analysis import weakly_connected_components
from repro.graphs.roadmap import (
    LATTICE,
    PAPER_ROAD_QUERIES,
    SIDE_MILES,
    _LAKE_CENTER,
    _LAKE_RADIUS,
    make_minneapolis_map,
    road_queries,
)


class TestSize:
    def test_paper_node_count(self, minneapolis):
        assert minneapolis.graph.node_count == 1089

    def test_paper_edge_count(self, minneapolis):
        # "1089 nodes and 3300 edges"; the generator hits the budget
        # within one undirected segment.
        assert abs(minneapolis.graph.edge_count - 3300) <= 2

    def test_average_degree_is_roadlike(self, minneapolis):
        assert 2.5 <= minneapolis.graph.average_degree() <= 3.5


class TestConnectivityAndDirection:
    def test_weakly_connected(self, minneapolis):
        components = weakly_connected_components(minneapolis.graph)
        assert len(components) == 1

    def test_all_queries_reachable(self, minneapolis, planner):
        for label, (source, destination) in road_queries(minneapolis).items():
            result = planner.plan(minneapolis.graph, source, destination, "dijkstra")
            assert result.found, f"query {label} unreachable"

    def test_graph_is_directed(self, minneapolis):
        """One-way freeway segments exist: some edge lacks its reverse."""
        graph = minneapolis.graph
        one_way = [
            edge
            for edge in graph.edges()
            if not graph.has_edge(edge.target, edge.source)
        ]
        assert one_way, "expected one-way freeway segments"

    def test_one_way_segments_are_freeways(self, minneapolis):
        graph = minneapolis.graph
        for edge in graph.edges():
            if not graph.has_edge(edge.target, edge.source):
                attrs = minneapolis.segment_attributes(edge.source, edge.target)
                assert attrs.road_type == "freeway"


class TestGeography:
    def test_edge_costs_are_euclidean_distances(self, minneapolis):
        graph = minneapolis.graph
        for edge in list(graph.edges())[:200]:
            (ux, uy) = graph.coordinates(edge.source)
            (vx, vy) = graph.coordinates(edge.target)
            assert edge.cost == pytest.approx(math.hypot(ux - vx, uy - vy))

    def test_lake_region_is_empty(self, minneapolis):
        """No node sits strictly inside the lake disk."""
        cx, cy = _LAKE_CENTER
        for node in minneapolis.graph.nodes():
            assert math.hypot(node.x - cx, node.y - cy) >= _LAKE_RADIUS * 0.99

    def test_map_fits_declared_area(self, minneapolis):
        for node in minneapolis.graph.nodes():
            assert -0.5 <= node.x <= SIDE_MILES + 0.5
            assert -0.5 <= node.y <= SIDE_MILES + 0.5

    def test_downtown_streets_not_axis_aligned(self, minneapolis):
        """Near the center, some edges deviate well off the axes."""
        graph = minneapolis.graph
        center = SIDE_MILES / 2
        rotated = 0
        for edge in graph.edges():
            (ux, uy) = graph.coordinates(edge.source)
            if math.hypot(ux - center, uy - center) > 0.3:
                continue
            (vx, vy) = graph.coordinates(edge.target)
            angle = math.degrees(math.atan2(vy - uy, vx - ux)) % 90
            if 15 <= angle <= 75:
                rotated += 1
        assert rotated >= 5


class TestLandmarks:
    def test_all_seven_landmarks_exist(self, minneapolis):
        assert set(minneapolis.landmarks) == set("ABCDEFG")
        for node_id in minneapolis.landmarks.values():
            assert node_id in minneapolis.graph

    def test_unknown_landmark_raises(self, minneapolis):
        with pytest.raises(KeyError):
            minneapolis.landmark("Z")

    def test_paper_queries_resolve(self, minneapolis):
        queries = road_queries(minneapolis)
        assert list(queries) == [label for label, _a, _b in PAPER_ROAD_QUERIES]

    def test_short_queries_are_short(self, minneapolis, planner):
        graph = minneapolis.graph
        queries = road_queries(minneapolis)
        short = planner.plan(graph, *queries["G to D"], "dijkstra")
        long = planner.plan(graph, *queries["A to B"], "dijkstra")
        assert short.path_length < long.path_length / 4


class TestAttributesAndDeterminism:
    def test_every_segment_has_attributes(self, minneapolis):
        graph = minneapolis.graph
        for edge in graph.edges():
            attrs = minneapolis.segment_attributes(edge.source, edge.target)
            assert attrs.road_type in {"freeway", "downtown", "arterial"}
            assert attrs.speed_mph > 0
            assert 0.0 <= attrs.occupancy <= 1.0

    def test_deterministic_per_seed(self):
        a = make_minneapolis_map(seed=5)
        b = make_minneapolis_map(seed=5)
        assert a.graph.edge_count == b.graph.edge_count
        edges_a = {(e.source, e.target): e.cost for e in a.graph.edges()}
        edges_b = {(e.source, e.target): e.cost for e in b.graph.edges()}
        assert edges_a == edges_b

    def test_seed_1993_edge_list_is_pinned(self, minneapolis):
        # Every experiment on the road map reads this edge list; the
        # digest of its sorted (repr(u), repr(v), cost) tuples holds it
        # byte for byte across refactors of the generator.
        edges = sorted(
            (repr(e.source), repr(e.target), e.cost)
            for e in minneapolis.graph.edges()
        )
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == (
            "08377c5220fd60cd8130a98e61e35023a8e109daa0014a214e02c37fbf6def70"
        )

    def test_seed_changes_map(self, minneapolis):
        other = make_minneapolis_map(seed=7)
        edges_a = {(e.source, e.target) for e in minneapolis.graph.edges()}
        edges_b = {(e.source, e.target) for e in other.graph.edges()}
        assert edges_a != edges_b

    def test_lattice_constant(self):
        assert LATTICE * LATTICE == 1089
