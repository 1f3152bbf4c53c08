"""The exactness oracle: one verdict per answer, and a stateful machine
that holds a serving stack to it across plans, batches and epochs."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.audit import Oracle
from repro.graphs.graph import Graph
from repro.graphs.grid import make_paper_grid
from repro.service import RouteService
from repro.traffic import TrafficFeed


def triangle() -> Graph:
    """a -> b -> c costs 2, the direct a -> c costs 3; d is isolated."""
    graph = Graph(name="triangle")
    for name, x, y in (("a", 0, 0), ("b", 1, 0), ("c", 2, 0), ("d", 1, 1)):
        graph.add_node(name, x, y)
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 1.0)
    graph.add_edge("a", "c", 3.0)
    return graph


def answer(cost=2.0, path=("a", "b", "c"), found=True, **flags):
    return SimpleNamespace(found=found, cost=cost, path=list(path), **flags)


@pytest.mark.parametrize(
    "epoch, destination, served, kind, detail",
    [
        (None, "c", answer(), "exact", ""),
        (None, "c", answer(found=False, cost=math.inf, path=(), shed=True),
         "flagged", ""),
        (None, "c", answer(cost=9.0, degraded=True), "flagged", ""),
        # a -> b went up to 5: the 2.0 route is optimal only before it.
        (("a", "b", 5.0), "c", answer(), "stale", "STALE"),
        (None, "c", answer(cost=3.0, path=("a", "c")), "inexact", "optimal"),
        (None, "c", answer(path=("a", "d", "c")), "inexact", "missing edge"),
        (None, "c", answer(path=("a", "c")), "inexact", "walks"),
        (None, "d", answer(path=("a", "d")), "inexact", "found=True"),
        (None, "c", None, "dropped", "no answer"),
    ],
    ids=[
        "exact", "flagged-shed", "flagged-degraded", "stale",
        "inexact-cost", "inexact-missing-edge", "inexact-walk",
        "inexact-found", "dropped",
    ],
)
def test_verdicts(epoch, destination, served, kind, detail):
    graph = triangle()
    oracle = Oracle(graph)
    if epoch is not None:
        graph.update_edge_cost(*epoch)
        oracle.observe_epoch()
    verdict = oracle.check("a", destination, served)
    assert verdict.kind == kind
    assert detail in verdict.detail


def test_trees_are_memoized_per_epoch_and_paths_follow_them():
    graph = triangle()
    oracle = Oracle(graph)
    assert oracle.tree("a") is oracle.tree("a")
    assert oracle.path("a", "c") == ["a", "b", "c"]
    assert oracle.path("a", "d") is None
    graph.update_edge_cost("a", "b", 5.0)
    assert oracle.path("a", "c") == ["a", "b", "c"]  # copy, not the live graph
    oracle.observe_epoch()
    assert oracle.path("a", "c") == ["a", "c"]
    assert oracle.tree("a", previous=True)[0]["c"] == 2.0


_GRID = 4
_NODES = [(row, col) for row in range(_GRID) for col in range(_GRID)]
_PAIRS = st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES))
_ALGORITHMS = st.sampled_from(["astar", "dijkstra"])
#: Epoch prices as multiples of an edge's unit length; most are below it.
_FACTORS = [0.2, 0.3, 0.5, 0.8, 1.0, 1.5, 2.5]


class ServingMachine(RuleBasedStateMachine):
    """Plans, batches and epochs interleaved on one cached CCH service.

    Epochs re-price up to half the edges to 0.2-2.5x their unit
    straight-line length, so the A* estimator has to scale and the
    cache's decrease bound has to hold below free flow. The cache holds four answers, so eviction
    runs throughout. Planned queries are asked again after later epochs,
    so answers that survived an epoch in the cache are served and
    audited too.
    """

    queries = Bundle("queries")

    @initialize()
    def start(self):
        self.graph = make_paper_grid(_GRID, "variance")
        self.service = RouteService(accelerator="cch", cache_capacity=4)
        self.feed = TrafficFeed(self.graph)
        self.feed.subscribe(self.service)
        self.oracle = Oracle(self.graph)
        self.edges = sorted((e.source, e.target) for e in self.graph.edges())
        #: Answers served since the last epoch, with their queries.
        self.served = []

    @rule(target=queries, pair=_PAIRS, algorithm=_ALGORITHMS)
    def plan(self, pair, algorithm):
        result = self.service.plan(self.graph, *pair, algorithm=algorithm)
        self.served.append((pair, result))
        return pair, algorithm

    @rule(query=queries)
    def replan(self, query):
        self.plan(*query)

    @rule(pairs=st.lists(_PAIRS, min_size=1, max_size=6), algorithm=_ALGORITHMS)
    def plan_many(self, pairs, algorithm):
        specs = [
            {"source": s, "destination": d, "algorithm": algorithm}
            for s, d in pairs
        ]
        self.served.extend(zip(pairs, self.service.plan_many(self.graph, specs)))

    @rule(
        data=st.data(),
        count=st.integers(min_value=1, max_value=24),
    )
    def apply(self, data, count):
        edges = data.draw(
            st.lists(st.sampled_from(self.edges), min_size=count,
                     max_size=count, unique=True)
        )
        factors = data.draw(
            st.lists(st.sampled_from(_FACTORS), min_size=count, max_size=count)
        )
        self.feed.apply(
            (u, v, factor) for (u, v), factor in zip(edges, factors)
        )
        self.oracle.observe_epoch()
        self.served = []

    @invariant()
    def every_answer_exact(self):
        for (source, destination), result in self.served:
            verdict = self.oracle.check(source, destination, result)
            assert verdict.kind == "exact", verdict.detail

    @invariant()
    def cache_index_mirrors_entries(self):
        assert self.service.cache.audit_index() == []


TestServingMachine = ServingMachine.TestCase
TestServingMachine.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
