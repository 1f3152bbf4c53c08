"""Tests for the ISAM index."""

import pytest

from repro.exceptions import IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics
from repro.storage.isam import ISAMIndex
from repro.storage.schema import ANY, FLOAT, Field, Schema


def make_indexed_heap(keys, fanout=10):
    stats = IOStatistics()
    pool = BufferPool(stats, capacity=0)
    schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
    heap = HeapFile("t", schema, pool, stats, block_size=4096)
    for key in keys:
        heap.insert({"k": key, "v": float(hash(str(key)) % 100)})
    index = ISAMIndex(heap, "k", stats, fanout=fanout)
    index.build()
    return heap, index, stats


class TestBuild:
    def test_levels_match_table_4a(self):
        _heap, index, _stats = make_indexed_heap(range(900), fanout=10)
        assert index.levels == 3  # 900 -> 90 -> 9 -> 1: I_l = 3

    def test_single_page_index(self):
        _heap, index, _stats = make_indexed_heap(range(5), fanout=10)
        assert index.levels == 1

    def test_empty_heap_builds(self):
        _heap, index, _stats = make_indexed_heap([], fanout=10)
        assert index.probe("anything") is None

    def test_duplicate_keys_rejected(self):
        with pytest.raises(IndexError_):
            make_indexed_heap([1, 1, 2])

    def test_unbuilt_probe_raises(self):
        stats = IOStatistics()
        pool = BufferPool(stats, capacity=0)
        schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
        heap = HeapFile("t", schema, pool, stats)
        index = ISAMIndex(heap, "k", stats)
        with pytest.raises(IndexError_):
            index.probe(1)

    def test_fanout_validated(self):
        stats = IOStatistics()
        pool = BufferPool(stats, capacity=0)
        schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
        heap = HeapFile("t", schema, pool, stats)
        with pytest.raises(IndexError_):
            ISAMIndex(heap, "k", stats, fanout=1)


class TestProbe:
    def test_probe_finds_every_key(self):
        heap, index, _stats = make_indexed_heap(range(0, 200, 3))
        for key in range(0, 200, 3):
            rid = index.probe(key)
            assert rid is not None
            assert heap.read(rid)["k"] == key

    def test_probe_missing_key(self):
        _heap, index, _stats = make_indexed_heap(range(10))
        assert index.probe(999) is None

    def test_probe_equals_scan_results(self):
        """Index retrieval must agree with a full scan."""
        heap, index, _stats = make_indexed_heap([5, 1, 9, 3, 7])
        by_scan = {v["k"]: rid for rid, v in heap.scan()}
        for key, rid in by_scan.items():
            assert index.probe(key) == rid

    def test_probe_charges_one_read_per_level(self):
        _heap, index, stats = make_indexed_heap(range(900))
        stats.reset()
        index.probe(450)
        assert stats.block_reads == index.levels

    def test_fetch_returns_tuple(self):
        _heap, index, _stats = make_indexed_heap(range(20))
        assert index.fetch(7)["k"] == 7
        assert index.fetch(999) is None

    def test_tuple_keys_supported(self):
        """Grid node ids are (row, col) tuples."""
        keys = [(r, c) for r in range(5) for c in range(5)]
        _heap, index, _stats = make_indexed_heap(keys)
        assert index.fetch((3, 4))["k"] == (3, 4)


class TestUpdateInsert:
    def test_overflow_insert_and_probe(self):
        heap, index, _stats = make_indexed_heap(range(0, 100, 2))
        rid = heap.insert({"k": 75, "v": 0.0})
        index.insert(75, rid)
        assert index.probe(75) == rid

    def test_overflow_duplicate_rejected(self):
        heap, index, _stats = make_indexed_heap(range(10))
        rid = heap.insert({"k": 5, "v": 0.0})
        with pytest.raises(IndexError_):
            index.insert(5, rid)

    def test_keys_sorted(self):
        _heap, index, _stats = make_indexed_heap([9, 2, 7, 1])
        assert index.keys() == [1, 2, 7, 9]
