"""Tests for PathResult, SearchStats and path reconstruction."""

import pytest

from repro.exceptions import PathNotFoundError
from repro.kernel.result import PathResult, SearchStats, reconstruct_path


class TestSearchStats:
    def test_observe_frontier_tracks_peak(self):
        stats = SearchStats()
        for size in (3, 7, 2):
            stats.observe_frontier(size)
        assert stats.max_frontier_size == 7

    def test_merged_with_sums_counters(self):
        a = SearchStats(iterations=2, nodes_expanded=2, max_frontier_size=5)
        b = SearchStats(iterations=3, nodes_expanded=3, max_frontier_size=4)
        merged = a.merged_with(b)
        assert merged.iterations == 5
        assert merged.nodes_expanded == 5
        assert merged.max_frontier_size == 5


class TestPathResult:
    def test_defaults_are_not_found(self):
        result = PathResult(source="a", destination="b")
        assert not result.found
        assert result.cost == float("inf")
        assert result.path_length == 0

    def test_path_length_counts_edges(self):
        result = PathResult(
            source="a", destination="c", path=["a", "b", "c"], found=True
        )
        assert result.path_length == 2

    def test_edge_sequence(self):
        result = PathResult(
            source="a", destination="c", path=["a", "b", "c"], found=True
        )
        assert result.edge_sequence() == [("a", "b"), ("b", "c")]

    def test_raise_if_not_found(self):
        result = PathResult(source="a", destination="b")
        with pytest.raises(PathNotFoundError):
            result.raise_if_not_found()

    def test_raise_if_not_found_passthrough(self):
        result = PathResult(source="a", destination="b", path=["a", "b"], found=True)
        assert result.raise_if_not_found() is result

    def test_iterations_shortcut(self):
        result = PathResult(
            source="a", destination="b", stats=SearchStats(iterations=42)
        )
        assert result.iterations == 42


class TestReconstructPath:
    def test_simple_chain(self):
        predecessor = {"b": "a", "c": "b"}
        assert reconstruct_path(predecessor, "a", "c") == ["a", "b", "c"]

    def test_source_equals_destination(self):
        assert reconstruct_path({}, "a", "a") == ["a"]

    def test_unreachable_destination(self):
        assert reconstruct_path({"b": "a"}, "a", "z") is None

    def test_cycle_detected(self):
        predecessor = {"b": "c", "c": "b"}
        with pytest.raises(ValueError):
            reconstruct_path(predecessor, "a", "b")

    def test_walk_that_never_reaches_source(self):
        # Chain ends at a node that thinks its predecessor is itself's
        # ancestor outside the map -> cycle/overflow must raise.
        predecessor = {"c": "b", "b": "c"}
        with pytest.raises(ValueError):
            reconstruct_path(predecessor, "a", "c")
