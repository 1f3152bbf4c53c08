"""Unit tests for the Graph substrate."""

import math

import pytest

from repro.exceptions import (
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NegativeEdgeCostError,
    NodeNotFoundError,
)
from repro.graphs.graph import CostDelta, Edge, Graph, Node, graph_from_edges


class TestNode:
    def test_euclidean_distance(self):
        a, b = Node("a", 0.0, 0.0), Node("b", 3.0, 4.0)
        assert a.euclidean_distance(b) == pytest.approx(5.0)

    def test_manhattan_distance(self):
        a, b = Node("a", 0.0, 0.0), Node("b", 3.0, 4.0)
        assert a.manhattan_distance(b) == pytest.approx(7.0)

    def test_distances_are_symmetric(self):
        a, b = Node("a", -1.0, 2.5), Node("b", 3.0, -4.0)
        assert a.euclidean_distance(b) == pytest.approx(b.euclidean_distance(a))
        assert a.manhattan_distance(b) == pytest.approx(b.manhattan_distance(a))


class TestEdge:
    def test_negative_cost_rejected(self):
        with pytest.raises(NegativeEdgeCostError):
            Edge("a", "b", -0.5)

    def test_zero_cost_allowed(self):
        assert Edge("a", "b", 0.0).cost == 0.0


class TestGraphConstruction:
    def test_add_node_and_contains(self):
        graph = Graph()
        graph.add_node("a", 1.0, 2.0)
        assert "a" in graph
        assert "b" not in graph
        assert graph.node("a").x == 1.0

    def test_duplicate_node_rejected(self):
        graph = Graph()
        graph.add_node("a")
        with pytest.raises(DuplicateNodeError):
            graph.add_node("a")

    def test_add_edge_requires_both_endpoints(self):
        graph = Graph()
        graph.add_node("a")
        with pytest.raises(NodeNotFoundError):
            graph.add_edge("a", "missing", 1.0)
        with pytest.raises(NodeNotFoundError):
            graph.add_edge("missing", "a", 1.0)

    def test_self_loop_rejected(self):
        graph = Graph()
        graph.add_node("a")
        with pytest.raises(GraphError):
            graph.add_edge("a", "a", 1.0)

    def test_negative_edge_cost_rejected(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("b")
        with pytest.raises(NegativeEdgeCostError):
            graph.add_edge("a", "b", -1.0)

    def test_undirected_edge_creates_both_directions(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_undirected_edge("a", "b", 2.0)
        assert graph.edge_cost("a", "b") == 2.0
        assert graph.edge_cost("b", "a") == 2.0
        assert graph.edge_count == 2

    def test_readding_edge_overwrites_cost_without_double_count(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_edge("a", "b", 1.0)
        graph.add_edge("a", "b", 7.0)
        assert graph.edge_cost("a", "b") == 7.0
        assert graph.edge_count == 1


class TestGraphMutation:
    def test_remove_edge(self, tiny_graph):
        tiny_graph.remove_edge("a", "b")
        assert not tiny_graph.has_edge("a", "b")
        with pytest.raises(EdgeNotFoundError):
            tiny_graph.remove_edge("a", "b")

    def test_remove_edge_updates_counts_and_reverse(self, tiny_graph):
        before = tiny_graph.edge_count
        tiny_graph.remove_edge("c", "d")
        assert tiny_graph.edge_count == before - 1
        assert ("c", 1.0) not in list(tiny_graph.predecessors("d"))

    def test_update_edge_cost(self, tiny_graph):
        tiny_graph.update_edge_cost("a", "b", 9.0)
        assert tiny_graph.edge_cost("a", "b") == 9.0

    def test_update_edge_cost_missing_edge(self, tiny_graph):
        with pytest.raises(EdgeNotFoundError):
            tiny_graph.update_edge_cost("e", "a", 1.0)

    def test_update_edge_cost_rejects_negative(self, tiny_graph):
        with pytest.raises(NegativeEdgeCostError):
            tiny_graph.update_edge_cost("a", "b", -2.0)


class TestCostDelta:
    def test_is_immutable(self):
        delta = CostDelta("a", "b", 2.0, 1.0)
        for name in ("source", "target", "old_cost", "new_cost", "decreased"):
            with pytest.raises(AttributeError):
                setattr(delta, name, 5.0)
        with pytest.raises(AttributeError):
            delta.extra = 1  # no per-instance attribute dict either
        assert delta == CostDelta("a", "b", 2.0, 1.0)

    def test_compares_and_hashes_by_value(self):
        delta = CostDelta("a", "b", 2.0, 1.0)
        same = CostDelta(source="a", target="b", old_cost=2.0, new_cost=1.0)
        assert delta == same and hash(delta) == hash(same)
        assert delta != CostDelta("a", "b", 2.0, 1.5)
        assert delta != CostDelta("b", "a", 2.0, 1.0)
        assert len({delta, same, CostDelta("a", "b", 1.0, 2.0)}) == 2
        assert repr(delta) == "CostDelta(source='a', target='b', old_cost=2.0, new_cost=1.0)"

    def test_decreased(self):
        assert CostDelta("a", "b", 2.0, 1.0).decreased
        assert not CostDelta("a", "b", 1.0, 2.0).decreased
        assert not CostDelta("a", "b", 1.0, 1.0).decreased

    def test_epoch_returns_the_effective_records(self, tiny_graph):
        old = tiny_graph.edge_cost("a", "b")
        deltas = tiny_graph.apply_cost_updates([("a", "b", old + 1.0), ("a", "b", old + 2.0)])
        assert deltas == [
            CostDelta("a", "b", old, old + 1.0),
            CostDelta("a", "b", old + 1.0, old + 2.0),
        ]


class TestGraphQueries:
    def test_neighbors_order_is_insertion_order(self, tiny_graph):
        assert [v for v, _ in tiny_graph.neighbors("a")] == ["b", "c"]

    def test_neighbors_missing_node(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            list(tiny_graph.neighbors("nope"))

    def test_neighbors_validates_eagerly(self, tiny_graph):
        # The call itself must raise — historically these were
        # generators, so the error was deferred until first iteration
        # and a never-consumed iterator for a missing node passed
        # silently.
        with pytest.raises(NodeNotFoundError):
            tiny_graph.neighbors("nope")

    def test_predecessors_validates_eagerly(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            tiny_graph.predecessors("nope")

    def test_predecessors(self, tiny_graph):
        predecessors = dict(tiny_graph.predecessors("d"))
        assert predecessors == {"b": 5.0, "c": 1.0}

    def test_degree(self, tiny_graph):
        assert tiny_graph.degree("a") == 2
        assert tiny_graph.degree("e") == 0

    def test_len_and_counts(self, tiny_graph):
        assert len(tiny_graph) == 5
        assert tiny_graph.node_count == 5
        assert tiny_graph.edge_count == 6

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree() == pytest.approx(6 / 5)

    def test_average_degree_empty_graph(self):
        assert Graph().average_degree() == 0.0

    def test_edges_iteration_total(self, tiny_graph):
        assert len(list(tiny_graph.edges())) == tiny_graph.edge_count

    def test_coordinates(self, tiny_graph):
        assert tiny_graph.coordinates("c") == (2.0, 0.0)


class TestPathHelpers:
    def test_path_cost(self, tiny_graph):
        assert tiny_graph.path_cost(["a", "b", "c", "d", "e"]) == pytest.approx(4.0)

    def test_path_cost_single_node(self, tiny_graph):
        assert tiny_graph.path_cost(["a"]) == 0.0

    def test_path_cost_missing_edge(self, tiny_graph):
        with pytest.raises(EdgeNotFoundError):
            tiny_graph.path_cost(["a", "e"])

    def test_is_valid_path(self, tiny_graph):
        assert tiny_graph.is_valid_path(["a", "b", "d"])
        assert not tiny_graph.is_valid_path(["a", "d"])
        assert not tiny_graph.is_valid_path([])
        assert not tiny_graph.is_valid_path(["a", "missing"])


class TestGraphTransforms:
    def test_copy_is_independent(self, tiny_graph):
        duplicate = tiny_graph.copy()
        duplicate.update_edge_cost("a", "b", 99.0)
        assert tiny_graph.edge_cost("a", "b") == 1.0
        assert duplicate.node_count == tiny_graph.node_count
        assert duplicate.edge_count == tiny_graph.edge_count

    def test_reversed_flips_every_edge(self, tiny_graph):
        flipped = tiny_graph.reversed()
        assert flipped.has_edge("b", "a")
        assert not flipped.has_edge("a", "b")
        assert flipped.edge_count == tiny_graph.edge_count

    def test_double_reverse_restores(self, tiny_graph):
        twice = tiny_graph.reversed().reversed()
        original = {(e.source, e.target, e.cost) for e in tiny_graph.edges()}
        restored = {(e.source, e.target, e.cost) for e in twice.edges()}
        assert original == restored

    def test_subgraph_keeps_internal_edges_only(self, tiny_graph):
        sub = tiny_graph.subgraph(["a", "b", "c"])
        assert sub.node_count == 3
        assert sub.has_edge("a", "b")
        assert sub.has_edge("b", "c")
        assert not sub.has_edge("c", "d")

    def test_subgraph_copies_coordinates_and_costs(self, tiny_graph):
        sub = tiny_graph.subgraph(["a", "b", "c"])
        assert sub.coordinates("b") == tiny_graph.coordinates("b")
        assert sub.edge_cost("a", "c") == tiny_graph.edge_cost("a", "c")

    def test_subgraph_has_fresh_uid_and_is_independent(self, tiny_graph):
        sub = tiny_graph.subgraph(["a", "b", "c"])
        assert sub.uid != tiny_graph.uid
        assert sub.fingerprint != tiny_graph.fingerprint
        sub.update_edge_cost("a", "b", 42.0)
        assert tiny_graph.edge_cost("a", "b") == 1.0

    def test_subgraph_accepts_name_and_defaults_to_suffix(self, tiny_graph):
        assert tiny_graph.subgraph(["a"], name="shard0").name == "shard0"
        assert tiny_graph.subgraph(["a"]).name == "tiny-sub"

    def test_subgraph_unknown_node_raises(self, tiny_graph):
        with pytest.raises(NodeNotFoundError):
            tiny_graph.subgraph(["a", "missing"])

    def test_subgraph_keeps_parent_insertion_order(self, tiny_graph):
        # Membership order in the argument must not matter: nodes come
        # out in parent insertion order, so repeated cuts are identical.
        sub = tiny_graph.subgraph(["c", "a", "b"])
        assert list(sub.node_ids()) == ["a", "b", "c"]

    def test_subgraph_tolerates_duplicate_ids(self, tiny_graph):
        sub = tiny_graph.subgraph(["a", "a", "b"])
        assert sub.node_count == 2


class TestGraphFromEdges:
    def test_builds_nodes_on_first_sight(self):
        graph = graph_from_edges([("x", "y", 1.0), ("y", "z", 2.0)])
        assert graph.node_count == 3
        assert graph.edge_cost("y", "z") == 2.0

    def test_applies_coordinates(self):
        graph = graph_from_edges(
            [("x", "y", 1.0)], coordinates={"x": (5.0, 6.0)}
        )
        assert graph.coordinates("x") == (5.0, 6.0)
        assert graph.coordinates("y") == (0.0, 0.0)
