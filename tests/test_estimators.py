"""Tests for the estimator functions (Section 5.3.2)."""

import math

import pytest

from repro.kernel import csr
from repro.core.estimators import (
    EuclideanEstimator,
    LandmarkEstimator,
    ManhattanEstimator,
    ScaledEstimator,
    ZeroEstimator,
    make_estimator,
)
from repro.graphs.grid import make_grid


class TestZero:
    def test_always_zero(self, tiny_graph):
        estimator = ZeroEstimator()
        estimator.prepare(tiny_graph, "e")
        assert estimator.estimate(tiny_graph, "a", "e") == 0.0


class TestEuclidean:
    def test_matches_geometry(self, tiny_graph):
        estimator = EuclideanEstimator()
        estimator.prepare(tiny_graph, "e")
        assert estimator.estimate(tiny_graph, "a", "e") == pytest.approx(4.0)

    def test_scaling(self, tiny_graph):
        estimator = EuclideanEstimator(cost_per_unit=0.5)
        estimator.prepare(tiny_graph, "e")
        assert estimator.estimate(tiny_graph, "a", "e") == pytest.approx(2.0)

    def test_zero_at_destination(self, tiny_graph):
        estimator = EuclideanEstimator()
        estimator.prepare(tiny_graph, "e")
        assert estimator.estimate(tiny_graph, "e", "e") == 0.0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            EuclideanEstimator(cost_per_unit=-1.0)

    def test_admissible_on_uniform_grid(self):
        """Euclidean never overestimates grid shortest paths."""
        graph = make_grid(8)
        destination = (7, 7)
        distances = csr.sssp(graph.reversed(), destination)
        estimator = EuclideanEstimator()
        estimator.prepare(graph, destination)
        for node in graph.nodes():
            h = estimator.estimate(graph, node.node_id, destination)
            assert h <= distances[node.node_id] + 1e-9


class TestManhattan:
    def test_matches_geometry(self):
        graph = make_grid(5)
        estimator = ManhattanEstimator()
        estimator.prepare(graph, (4, 4))
        assert estimator.estimate(graph, (0, 0), (4, 4)) == pytest.approx(8.0)

    def test_perfect_on_uniform_grid(self):
        """The paper: manhattan is a *perfect* estimate on uniform grids."""
        graph = make_grid(7)
        destination = (6, 6)
        distances = csr.sssp(graph.reversed(), destination)
        estimator = ManhattanEstimator()
        estimator.prepare(graph, destination)
        for node in graph.nodes():
            h = estimator.estimate(graph, node.node_id, destination)
            assert h == pytest.approx(distances[node.node_id])

    def test_dominates_euclidean(self):
        graph = make_grid(6)
        euclid = EuclideanEstimator()
        manhattan = ManhattanEstimator()
        euclid.prepare(graph, (5, 5))
        manhattan.prepare(graph, (5, 5))
        for node in graph.nodes():
            assert manhattan.estimate(graph, node.node_id, (5, 5)) >= (
                euclid.estimate(graph, node.node_id, (5, 5)) - 1e-12
            )

    def test_can_overestimate_on_road_map(self, minneapolis):
        """The paper's caveat: manhattan is NOT admissible on the map."""
        graph = minneapolis.graph
        destination = minneapolis.landmark("B")
        distances = csr.sssp(graph.reversed(), destination)
        estimator = ManhattanEstimator()
        estimator.prepare(graph, destination)
        overestimates = sum(
            1
            for node in graph.nodes()
            if node.node_id in distances
            and estimator.estimate(graph, node.node_id, destination)
            > distances[node.node_id] + 1e-9
        )
        assert overestimates > 0


class TestScaled:
    def test_weight_multiplies(self, tiny_graph):
        inner = EuclideanEstimator()
        scaled = ScaledEstimator(inner, 2.0)
        scaled.prepare(tiny_graph, "e")
        assert scaled.estimate(tiny_graph, "a", "e") == pytest.approx(8.0)

    def test_zero_weight_is_dijkstra(self, tiny_graph):
        scaled = ScaledEstimator(EuclideanEstimator(), 0.0)
        scaled.prepare(tiny_graph, "e")
        assert scaled.estimate(tiny_graph, "a", "e") == 0.0

    def test_name_records_weight(self):
        assert ScaledEstimator(ZeroEstimator(), 1.5).name == "zero*1.5"

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ScaledEstimator(ZeroEstimator(), -1.0)


class TestLandmark:
    def test_requires_landmarks(self):
        with pytest.raises(ValueError):
            LandmarkEstimator([])

    def test_admissible_on_grid(self):
        graph = make_grid(7)
        destination = (6, 6)
        distances = csr.sssp(graph.reversed(), destination)
        estimator = LandmarkEstimator([(0, 0), (6, 0), (0, 6)])
        estimator.prepare(graph, destination)
        for node in graph.nodes():
            h = estimator.estimate(graph, node.node_id, destination)
            assert h <= distances[node.node_id] + 1e-9

    def test_admissible_on_road_map(self, minneapolis):
        """Unlike manhattan, ALT stays admissible on the road map."""
        graph = minneapolis.graph
        destination = minneapolis.landmark("B")
        distances = csr.sssp(graph.reversed(), destination)
        estimator = LandmarkEstimator(
            [minneapolis.landmark("A"), minneapolis.landmark("D")]
        )
        estimator.prepare(graph, destination)
        for node in list(graph.nodes())[::7]:
            if node.node_id not in distances:
                continue
            h = estimator.estimate(graph, node.node_id, destination)
            assert h <= distances[node.node_id] + 1e-9

    def test_exact_at_landmark_destination(self):
        """With the destination itself as a landmark, h is exact."""
        graph = make_grid(6)
        destination = (5, 5)
        estimator = LandmarkEstimator([destination])
        estimator.prepare(graph, destination)
        distances = csr.sssp(graph.reversed(), destination)
        for node in graph.nodes():
            h = estimator.estimate(graph, node.node_id, destination)
            assert h == pytest.approx(distances[node.node_id])


class TestFarthestSeeding:
    """landmarks="farthest:k" — greedy farthest-point selection."""

    def test_selects_k_distinct_landmarks(self):
        graph = make_grid(8)
        estimator = LandmarkEstimator("farthest:5")
        estimator.preprocess(graph)
        assert len(estimator.landmarks) == 5
        assert len(set(estimator.landmarks)) == 5

    def test_deterministic(self):
        graph = make_grid(6)
        first = LandmarkEstimator("farthest:4")
        second = LandmarkEstimator("farthest:4")
        first.preprocess(graph)
        second.preprocess(graph)
        assert first.landmarks == second.landmarks

    def test_spreads_to_far_corners(self):
        """On a uniform grid the sweep lands on mutually distant nodes."""
        graph = make_grid(7)
        estimator = LandmarkEstimator("farthest:3")
        estimator.preprocess(graph)
        marks = estimator.landmarks
        for i, a in enumerate(marks):
            for b in marks[i + 1 :]:
                # Grid L1 distance between any two chosen landmarks is
                # at least the grid side: no two picks are neighbors.
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) >= 6

    def test_admissible_bounds(self):
        graph = make_grid(6)
        destination = (5, 5)
        estimator = LandmarkEstimator("farthest:4")
        estimator.prepare(graph, destination)
        distances = csr.sssp(graph.reversed(), destination)
        for node in graph.nodes():
            h = estimator.estimate(graph, node.node_id, destination)
            assert h <= distances[node.node_id] + 1e-9

    def test_reseeds_after_cost_change(self):
        graph = make_grid(5)
        estimator = LandmarkEstimator("farthest:3")
        estimator.preprocess(graph)
        before = graph.fingerprint
        graph.update_edge_cost((0, 0), (0, 1), 40.0)
        assert graph.fingerprint != before
        destination = (4, 4)
        estimator.prepare(graph, destination)
        distances = csr.sssp(graph.reversed(), destination)
        for node in graph.nodes():
            h = estimator.estimate(graph, node.node_id, destination)
            assert h <= distances[node.node_id] + 1e-9

    def test_explicit_lists_keep_working(self):
        estimator = LandmarkEstimator([(0, 0), (3, 3)])
        assert estimator.landmarks == [(0, 0), (3, 3)]

    def test_count_capped_at_node_count(self):
        graph = make_grid(2)
        estimator = LandmarkEstimator("farthest:50")
        estimator.preprocess(graph)
        assert 1 <= len(estimator.landmarks) <= 4

    @pytest.mark.parametrize(
        "spec", ["farthest:", "farthest:0", "farthest:-2", "farthest:x", "nearest:3"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            LandmarkEstimator(spec)

    def test_factory_accepts_spec(self):
        graph = make_grid(4)
        estimator = make_estimator("landmark", landmarks="farthest:2")
        estimator.preprocess(graph)
        assert len(estimator.landmarks) == 2


class TestFactory:
    @pytest.mark.parametrize("name", ["zero", "euclidean", "manhattan"])
    def test_known(self, name):
        assert make_estimator(name).name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_estimator("psychic")
