"""Tests for the dense skim trees and the all-or-nothing load over them.

A path-retaining :func:`~repro.demand.skim.skim` keeps each origin's
predecessor list over the dense node indexes of its CSR snapshot;
``SkimMatrix.trees`` materializes the ``{node: predecessor}`` dicts only
when read. These tests hold the dense form to the dict form and to the
independent :func:`~repro.kernel.reference_sssp`, and check that
:func:`~repro.demand.assign` loads volumes onto the right edges however
``Graph.edges()`` orders them against the CSR slots.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.demand import assign, select_link, skim
from repro.graphs.graph import Graph
from repro.kernel import reference_sssp

pytestmark = pytest.mark.demand


def _digraph(nodes: int, edges: int, seed: int) -> Graph:
    """A random digraph sparse enough to leave some pairs unreachable."""
    rng = random.Random(seed)
    graph = Graph(name=f"dense-skim-{seed}")
    for i in range(nodes):
        graph.add_node(i, rng.uniform(0, 10), rng.uniform(0, 10))
    while graph.edge_count < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, float(rng.randint(1, 9)))
    return graph


def _tree_walk(tree, origin, destination):
    path = [destination]
    while path[-1] != origin:
        path.append(tree[path[-1]])
    path.reverse()
    return path


def _reference_route(graph, origin, destination):
    dist, pred = reference_sssp(graph, origin)
    if destination not in dist:
        return None
    return _tree_walk(pred, origin, destination)


class TestDenseTrees:
    def test_path_equals_the_walk_of_the_materialized_trees(self):
        graph = _digraph(30, 60, seed=4)
        origins = [0, 5, 11, 17, 29]
        matrix = skim(graph, origins, retain_paths=True)
        unreachable = 0
        for i, origin in enumerate(origins):
            tree = matrix.trees[origin]
            for j, destination in enumerate(matrix.destinations):
                path = matrix.path(origin, destination)
                if matrix.costs[i][j] == math.inf:
                    unreachable += 1
                    assert path is None and destination not in tree
                elif origin == destination:
                    assert path == [origin]
                else:
                    assert path == _tree_walk(tree, origin, destination)
                    assert path == _reference_route(graph, origin, destination)
        assert unreachable  # the case is exercised

    def test_trees_materialize_once(self):
        graph = _digraph(20, 45, seed=8)
        matrix = skim(graph, [0, 3, 3, 7], retain_paths=True)
        trees = matrix.trees
        assert matrix.trees is trees
        assert set(trees) == {0, 3, 7}
        for origin, tree in trees.items():
            assert tree == reference_sssp(graph, origin)[1]
        assert skim(graph, [0, 3]).trees is None

    def test_no_retained_paths_still_refuses_path_queries(self):
        graph = _digraph(10, 20, seed=1)
        matrix = skim(graph, [0])
        with pytest.raises(ValueError):
            matrix.path(0, 1)
        with pytest.raises(ValueError):
            list(matrix.routes())

    def test_routes_and_select_link_match_reference_routes(self):
        graph = _digraph(25, 55, seed=12)
        origins = [0, 4, 9, 16]
        destinations = [2, 4, 13, 21, 24]
        demand = {(o, d): float(1 + o + d) for o in origins for d in destinations}
        matrix = skim(graph, origins, destinations, retain_paths=True)
        expected = []
        for o in origins:
            for d in destinations:
                route = _reference_route(graph, o, d)
                if o != d and route is not None:
                    expected.append((o, d, tuple(zip(route, route[1:]))))
        assert list(matrix.routes()) == expected
        links = sorted({edge for _, _, edges in expected for edge in edges})[:12]
        result = select_link(matrix, links, demand)
        for link in links:
            assert result.flow(link).pairs == {
                (o, d): demand[o, d] for o, d, edges in expected if link in edges
            }
        assert result.routes_seen == len(expected)


class TestDenseAllOrNothing:
    def test_volumes_land_on_their_edges_whatever_the_edge_order(self):
        """``assign`` maps CSR slots to ``graph.edges()`` positions, so a
        graph listing its edges in another order loads the same volume
        on every edge. MSA steps and per-edge arithmetic do not depend
        on the order, so the volumes are equal to the last bit."""

        def solve(reorder: bool):
            graph = _digraph(18, 50, seed=21)
            if reorder:
                listed = list(reversed(list(Graph.edges(graph))))
                graph.edges = lambda: iter(listed)
            demand = {(0, 9): 40.0, (3, 14): 25.0, (9, 0): 30.0, (5, 17): 15.0}
            demand = {
                pair: q for pair, q in demand.items()
                if reference_sssp(graph, pair[0])[0].get(pair[1]) is not None
            }
            return assign(graph, demand, method="msa", capacity=20.0,
                          max_iterations=6, tolerance=1e-15)

        plain, reordered = solve(False), solve(True)
        assert plain.iteration_count == reordered.iteration_count == 6
        assert plain.volumes == reordered.volumes
        assert plain.costs == reordered.costs
        assert any(volume > 0 for volume in plain.volumes.values())

    def test_auditor_receives_volumes_keyed_by_edge(self):
        graph = _digraph(15, 40, seed=6)
        dist = reference_sssp(graph, 0)[0]
        target = max(dist, key=dist.get)
        route = _reference_route(graph, 0, target)
        seen = []

        def auditor(iteration, g, matrix, aon):
            seen.append(aon)

        assign(graph, {(0, target): 10.0}, capacity=50.0, max_iterations=1,
               auditor=auditor)
        assert len(seen) == 1
        assert set(seen[0]) == {(e.source, e.target) for e in graph.edges()}
        loaded = {edge for edge, volume in seen[0].items() if volume}
        assert loaded == set(zip(route, route[1:]))
        assert all(seen[0][edge] == 10.0 for edge in loaded)
