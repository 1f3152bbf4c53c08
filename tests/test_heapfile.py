"""Tests for heap files."""

import pytest

from repro.exceptions import SchemaError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics
from repro.storage.schema import ANY, FLOAT, Field, INT, Schema


def make_heap(block_size=64):
    stats = IOStatistics()
    pool = BufferPool(stats, capacity=0)
    schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
    return HeapFile("t", schema, pool, stats, block_size=block_size), stats


class TestInsertRead:
    def test_insert_returns_record_id(self):
        heap, _ = make_heap()
        rid = heap.insert({"k": 1, "v": 2.0})
        assert heap.read(rid) == {"k": 1, "v": 2.0}

    def test_insert_validates_schema(self):
        heap, _ = make_heap()
        with pytest.raises(SchemaError):
            heap.insert({"k": 1})

    def test_blocking_factor_from_block_size(self):
        heap, _ = make_heap(block_size=64)
        assert heap.blocking_factor == 4  # 64 / 16

    def test_pages_fill_sequentially(self):
        heap, _ = make_heap(block_size=64)
        for i in range(9):
            heap.insert({"k": i, "v": 0.0})
        assert heap.block_count == 3
        assert heap.tuple_count == 9
        assert heap.blocks_needed() == 3

    def test_read_deleted_raises(self):
        heap, _ = make_heap()
        rid = heap.insert({"k": 1, "v": 2.0})
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.read(rid)

    def test_single_insert_charges_one_write(self):
        heap, stats = make_heap()
        reads_before = stats.block_reads
        heap.insert({"k": 1, "v": 2.0})
        assert stats.block_writes == 1
        assert stats.block_reads == reads_before


class TestBulkLoad:
    def test_charges_per_page_not_per_tuple(self):
        heap, stats = make_heap(block_size=64)  # bf = 4
        heap.bulk_load({"k": i, "v": 0.0} for i in range(10))
        assert heap.tuple_count == 10
        assert stats.block_writes == 3  # ceil(10 / 4)

    def test_empty_bulk_load_charges_nothing(self):
        heap, stats = make_heap()
        assert heap.bulk_load(iter([])) == 0
        assert stats.block_writes == 0

    def test_appending_to_open_tail_counts_that_page(self):
        heap, stats = make_heap(block_size=64)
        heap.insert({"k": 0, "v": 0.0})  # 1 write, tail open
        stats.reset()
        heap.bulk_load({"k": i, "v": 0.0} for i in range(1, 4))  # fills tail
        assert stats.block_writes == 1


class TestUpdateDelete:
    def test_update_charges_tuple_update(self):
        heap, stats = make_heap()
        rid = heap.insert({"k": 1, "v": 2.0})
        stats.reset()
        heap.update(rid, {"k": 1, "v": 9.0})
        assert stats.tuple_updates == 1
        assert heap.read(rid)["v"] == 9.0

    def test_delete_reduces_count_but_not_blocks(self):
        heap, _ = make_heap(block_size=64)
        rids = [heap.insert({"k": i, "v": 0.0}) for i in range(4)]
        heap.delete(rids[0])
        assert heap.tuple_count == 3
        assert heap.block_count == 1  # tombstones keep their page

    def test_truncate_charges_delete_cost(self):
        heap, stats = make_heap()
        heap.insert({"k": 1, "v": 2.0})
        heap.truncate()
        assert heap.tuple_count == 0
        assert stats.relations_deleted == 1


class TestScan:
    def test_scan_charges_per_allocated_page(self):
        heap, stats = make_heap(block_size=64)
        heap.bulk_load({"k": i, "v": 0.0} for i in range(8))  # 2 pages
        stats.reset()
        assert len(list(heap.scan())) == 8
        assert stats.block_reads == 2

    def test_scan_filter(self):
        heap, _ = make_heap()
        for i in range(6):
            heap.insert({"k": i, "v": float(i)})
        evens = list(heap.scan_filter(lambda t: t["k"] % 2 == 0))
        assert [values["k"] for _rid, values in evens] == [0, 2, 4]

    def test_scan_skips_tombstones(self):
        heap, _ = make_heap()
        rid = heap.insert({"k": 1, "v": 0.0})
        heap.insert({"k": 2, "v": 0.0})
        heap.delete(rid)
        assert [v["k"] for _r, v in heap.scan()] == [2]


class TestBatchUpdate:
    def test_applies_updater_and_counts(self):
        heap, _ = make_heap()
        for i in range(5):
            heap.insert({"k": i, "v": 0.0})

        k = heap.schema.position("k")

        def bump_even(row):
            # The updater reads the positional row, returns a mapping.
            if row[k] % 2 == 0:
                return {"k": row[k], "v": 1.0}
            return None

        assert heap.batch_update(bump_even) == 3
        values = [v["v"] for _r, v in heap.scan()]
        assert values == [1.0, 0.0, 1.0, 0.0, 1.0]

    def test_charges_block_level_updates(self):
        heap, stats = make_heap(block_size=64)  # bf 4
        heap.bulk_load({"k": i, "v": 0.0} for i in range(8))  # 2 pages
        stats.reset()
        k = heap.schema.position("k")
        assert heap.batch_update(lambda row: {"k": row[k], "v": 1.0}) == 8
        # 2 page reads + 2 updates per modified page (2 pages).
        assert stats.block_reads == 2
        assert stats.tuple_updates == 4

    def test_untouched_pages_charge_no_updates(self):
        heap, stats = make_heap(block_size=64)
        heap.bulk_load({"k": i, "v": 0.0} for i in range(8))
        stats.reset()
        heap.batch_update(lambda t: None)
        assert stats.tuple_updates == 0
