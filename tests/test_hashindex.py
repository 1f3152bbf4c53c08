"""Tests for the static hash index (non-unique keys)."""

import pytest

from repro.exceptions import IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.hashindex import HashIndex, _stable_hash
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics
from repro.storage.schema import ANY, FLOAT, Field, Schema


def make_indexed_heap(rows, bucket_count=0, bucket_capacity=128):
    stats = IOStatistics()
    pool = BufferPool(stats, capacity=0)
    schema = Schema(
        "s", [Field("begin", ANY, 8), Field("end", ANY, 8), Field("c", FLOAT, 8)]
    )
    heap = HeapFile("s", schema, pool, stats)
    for begin, end, cost in rows:
        heap.insert({"begin": begin, "end": end, "c": cost})
    index = HashIndex(
        heap, "begin", stats,
        bucket_count=bucket_count, bucket_capacity=bucket_capacity,
    )
    index.build()
    return heap, index, stats


ADJACENCY = [(u, (u + d) % 10, 1.0) for u in range(10) for d in (1, 2, 3)]


class TestProbe:
    def test_multi_match_adjacency(self):
        _heap, index, _stats = make_indexed_heap(ADJACENCY)
        matches = index.fetch_all(4)
        assert len(matches) == 3
        assert all(m["begin"] == 4 for m in matches)

    def test_probe_equals_scan(self):
        heap, index, _stats = make_indexed_heap(ADJACENCY)
        for key in range(10):
            by_scan = sorted(
                (v["end"]) for _r, v in heap.scan() if v["begin"] == key
            )
            by_index = sorted(m["end"] for m in index.fetch_all(key))
            assert by_index == by_scan

    def test_missing_key(self):
        _heap, index, _stats = make_indexed_heap(ADJACENCY)
        assert index.probe(99) == []

    def test_probe_charges_chain_reads(self):
        _heap, index, stats = make_indexed_heap(
            ADJACENCY, bucket_count=1, bucket_capacity=8
        )
        stats.reset()
        index.probe(4)
        # 30 entries in 1 bucket at 8/page -> 4 chain pages read.
        assert stats.block_reads == 4

    def test_tuple_keys(self):
        rows = [((0, 0), (0, 1), 1.0), ((0, 0), (1, 0), 1.0)]
        _heap, index, _stats = make_indexed_heap(rows)
        assert len(index.fetch_all((0, 0))) == 2

    @pytest.mark.parametrize("bucket_count, expected", [(1, [0, 1]), (3, [0])])
    def test_probe_matches_within_the_bucket(self, bucket_count, expected):
        # 1 and 1.0 are equal, but file in different buckets of three.
        assert _stable_hash(1) % 3 != _stable_hash(1.0) % 3
        rows = [(1, "a", 1.0), (1.0, "b", 1.0), (2, "c", 1.0)]
        _heap, index, _stats = make_indexed_heap(rows, bucket_count=bucket_count)
        assert [rid[1] for rid in index.probe(1)] == expected

    def test_locate_matches_across_buckets_and_charges_nothing(self):
        rows = [(1, "a", 1.0), (2, "b", 1.0), (1.0, "c", 1.0), (3, "d", 1.0)]
        _heap, index, stats = make_indexed_heap(rows, bucket_count=3)
        stats.reset()
        assert index.locate([3, True]) == [(0, 0), (0, 2), (0, 3)]
        assert index.locate([]) == [] and index.locate([7]) == []
        assert stats.cost == 0.0

    def test_unhashable_probe_key_matches_nothing(self):
        _heap, index, stats = make_indexed_heap(ADJACENCY, bucket_count=1)
        stats.reset()
        assert index.probe([4]) == []
        assert stats.block_reads == index.page_count

    def test_unhashable_keys_are_refused(self):
        with pytest.raises(IndexError_, match="unhashable"):
            make_indexed_heap([([0], 1, 1.0)])
        heap, index, _stats = make_indexed_heap(ADJACENCY)
        rid = heap.insert({"begin": [4], "end": 9, "c": 2.0})
        with pytest.raises(IndexError_, match="unhashable"):
            index.insert([4], rid)
        assert index.page_count == 1 and len(index.fetch_all(4)) == 3


class TestBuild:
    def test_unbuilt_raises(self):
        stats = IOStatistics()
        pool = BufferPool(stats, capacity=0)
        schema = Schema("s", [Field("begin", ANY, 8), Field("c", FLOAT, 8)])
        heap = HeapFile("s", schema, pool, stats)
        index = HashIndex(heap, "begin", stats)
        with pytest.raises(IndexError_):
            index.probe(1)

    def test_bucket_capacity_validated(self):
        stats = IOStatistics()
        pool = BufferPool(stats, capacity=0)
        schema = Schema("s", [Field("begin", ANY, 8), Field("c", FLOAT, 8)])
        heap = HeapFile("s", schema, pool, stats)
        with pytest.raises(IndexError_):
            HashIndex(heap, "begin", stats, bucket_capacity=0)

    def test_keys_are_distinct(self):
        _heap, index, _stats = make_indexed_heap(ADJACENCY)
        assert sorted(index.keys()) == list(range(10))

    def test_insert_post_build(self):
        heap, index, _stats = make_indexed_heap(ADJACENCY)
        rid = heap.insert({"begin": 4, "end": 9, "c": 2.0})
        index.insert(4, rid)
        assert len(index.fetch_all(4)) == 4


class TestStableHash:
    def test_ints_hash_to_themselves(self):
        assert _stable_hash(7) == 7

    def test_strings_are_deterministic(self):
        assert _stable_hash("abc") == _stable_hash("abc")

    def test_tuples_are_deterministic(self):
        assert _stable_hash((1, 2)) == _stable_hash((1, 2))
        assert _stable_hash((1, 2)) != _stable_hash((2, 1))
