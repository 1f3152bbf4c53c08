"""``assign()`` refuses bad inputs before it applies any epoch.

A capacity that is not a positive number, or a feed that re-prices a
different graph, must fail up front with a ``ValueError`` that names
the argument, and leave both the graph and the feed as they were.
"""

import math

import pytest

from repro.demand import assign
from repro.graphs.graph import Graph
from repro.traffic.feed import TrafficFeed

pytestmark = pytest.mark.demand

DEMAND = {("o", "d"): 100.0}


def two_route_network(name="two-route"):
    graph = Graph(name=name)
    for node, x in (("o", 0), ("a", 1), ("b", 1), ("d", 2)):
        graph.add_node(node, x, 0)
    graph.add_edge("o", "a", 5.0)
    graph.add_edge("a", "d", 5.0)
    graph.add_edge("o", "b", 6.0)
    graph.add_edge("b", "d", 6.0)
    return graph


def congested_feed():
    """A feed whose graph is off free flow: any epoch of ``assign``
    (its first one re-prices to free flow) would change a cost."""
    graph = two_route_network()
    feed = TrafficFeed(graph)
    feed.apply([("o", "a", 50.0)])
    return graph, feed


def assert_untouched(graph, feed):
    assert feed.epoch_count == 1
    assert graph.edge_cost("o", "a") == 50.0


@pytest.mark.parametrize(
    "capacity", [math.nan, -1.0, 0, True, "60"], ids=repr
)
def test_bad_scalar_capacity_is_rejected_before_any_epoch(capacity):
    graph, feed = congested_feed()
    fingerprint = graph.fingerprint
    with pytest.raises(ValueError, match="capacity must be a positive number"):
        assign(graph, DEMAND, feed=feed, capacity=capacity)
    assert graph.fingerprint == fingerprint
    assert_untouched(graph, feed)


@pytest.mark.parametrize("bad", [math.nan, 0.0, False, None], ids=repr)
def test_bad_capacity_mapping_entry_is_rejected_before_any_epoch(bad):
    graph, feed = congested_feed()
    capacity = {(e.source, e.target): 60.0 for e in graph.edges()}
    capacity[("b", "d")] = bad
    fingerprint = graph.fingerprint
    with pytest.raises(ValueError, match=r"bad entry for \('b', 'd'\)"):
        assign(graph, DEMAND, feed=feed, capacity=capacity)
    assert graph.fingerprint == fingerprint
    assert_untouched(graph, feed)


def test_valid_capacities_still_assign():
    graph = two_route_network()
    scalar = assign(graph, DEMAND, capacity=60, tolerance=1e-4)
    mapping = assign(
        two_route_network(), DEMAND, tolerance=1e-4,
        capacity={(e.source, e.target): 60.0 for e in graph.edges()},
    )
    assert scalar.converged and mapping.converged
    assert scalar.volumes == mapping.volumes
    assert set(scalar.capacity.values()) == {60.0}


def test_feed_over_another_graph_is_rejected_before_any_epoch():
    graph = two_route_network("assigned")
    other, feed = congested_feed()
    before = (graph.fingerprint, other.fingerprint)
    with pytest.raises(ValueError, match="feed re-prices graph"):
        assign(graph, DEMAND, feed=feed, capacity=60.0)
    assert (graph.fingerprint, other.fingerprint) == before
    assert_untouched(other, feed)
