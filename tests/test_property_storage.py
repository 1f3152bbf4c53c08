"""Property-based tests for the storage stack.

Each storage structure is run against a plain-dict reference model
under random operation sequences (the classic model-based testing
pattern): whatever sequence of inserts, updates, deletes and probes is
applied, the structure and the model must agree — and the I/O ledger
must only ever grow.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.frontier import StatusAttributeFrontier
from repro.storage.buffer import BufferPool
from repro.storage.database import Database
from repro.storage.hashindex import HashIndex
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics
from repro.storage.isam import ISAMIndex
from repro.storage.schema import (
    ANY,
    FLOAT,
    STATUS_NULL,
    STATUS_OPEN,
    Field,
    Schema,
    node_schema,
)


def fresh_heap(block_size=256):
    stats = IOStatistics()
    pool = BufferPool(stats, capacity=0)
    schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
    return HeapFile("t", schema, pool, stats, block_size=block_size), stats


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50), st.floats(0, 9, allow_nan=False)),
        st.tuples(st.just("update"), st.integers(0, 30), st.floats(0, 9, allow_nan=False)),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just(0.0)),
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(operations=_OPS)
def test_heapfile_agrees_with_dict_model(operations):
    heap, stats = fresh_heap()
    model = {}  # rid -> value
    rids = []
    for op, key, value in operations:
        if op == "insert":
            rid = heap.insert({"k": key, "v": value})
            rids.append(rid)
            model[rid] = {"k": key, "v": value}
        elif op == "update" and rids:
            rid = rids[key % len(rids)]
            if rid in model:
                heap.update(rid, {"k": model[rid]["k"], "v": value})
                model[rid] = {"k": model[rid]["k"], "v": value}
        elif op == "delete" and rids:
            rid = rids[key % len(rids)]
            if rid in model:
                heap.delete(rid)
                del model[rid]
    scanned = {rid: dict(values) for rid, values in heap.scan()}
    assert scanned == model
    assert heap.tuple_count == len(model)
    assert stats.cost >= 0


@settings(max_examples=50, deadline=None)
@given(
    operations=_OPS,
    capacity=st.integers(0, 4),
    rescans=st.integers(1, 3),
)
def test_scan_rows_and_scan_agree_row_and_charge(operations, capacity, rescans):
    """The positional scan and its dict view yield the same tuples and
    leave the same ledger: the same page accesses in the same order."""
    heaps = []
    for _ in range(2):
        stats = IOStatistics()
        pool = BufferPool(stats, capacity=capacity)
        schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
        heap = HeapFile("t", schema, pool, stats, block_size=64)
        rids = []
        for op, key, value in operations:
            if op == "insert":
                rids.append(heap.insert({"k": key, "v": value}))
            elif op == "update" and rids:
                rid = rids[key % len(rids)]
                if heap.pages[rid[0]].slots[rid[1]] is not None:
                    heap.update(rid, {"k": key, "v": value})
            elif op == "delete" and rids:
                rid = rids[key % len(rids)]
                if heap.pages[rid[0]].slots[rid[1]] is not None:
                    heap.delete(rid)
        heaps.append(heap)
    positional, named = heaps
    for _ in range(rescans):
        rows = list(positional.scan_rows())
        dicts = list(named.scan())
        assert [rid for rid, _row in rows] == [rid for rid, _values in dicts]
        assert [positional.schema.as_dict(row) for _rid, row in rows] == [
            values for _rid, values in dicts
        ]
    assert positional.stats.snapshot() == named.stats.snapshot()
    def counters(pool):
        return pool.hits, pool.misses, pool.evictions

    assert counters(positional.buffer_pool) == counters(named.buffer_pool)


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(0, 500), min_size=1, max_size=80, unique=True),
    probes=st.lists(st.integers(0, 500), max_size=20),
    fanout=st.integers(2, 12),
)
def test_isam_probe_agrees_with_model(keys, probes, fanout):
    heap, stats = fresh_heap()
    model = {}
    for key in keys:
        rid = heap.insert({"k": key, "v": float(key)})
        model[key] = rid
    index = ISAMIndex(heap, "k", stats, fanout=fanout)
    index.build()
    for probe in probes + keys:
        assert index.probe(probe) == model.get(probe)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 12), st.floats(0, 9, allow_nan=False)),
        max_size=80,
    ),
    probes=st.lists(st.integers(0, 15), max_size=10),
    bucket_count=st.integers(1, 8),
)
def test_hash_index_agrees_with_model(rows, probes, bucket_count):
    heap, stats = fresh_heap()
    model = {}
    for key, value in rows:
        heap.insert({"k": key, "v": value})
        model.setdefault(key, []).append(value)
    index = HashIndex(heap, "k", stats, bucket_count=bucket_count, bucket_capacity=4)
    index.build()
    for probe in probes + [k for k, _v in rows]:
        found = sorted(m["v"] for m in index.fetch_all(probe))
        assert found == sorted(model.get(probe, []))


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(0, 6),
    accesses=st.lists(
        st.tuples(st.integers(0, 9), st.booleans()), max_size=50
    ),
)
def test_buffer_pool_invariants(capacity, accesses):
    from repro.storage.page import Page

    stats = IOStatistics()
    pool = BufferPool(stats, capacity=capacity)
    pages = {i: Page(i, 4) for i in range(10)}
    for page_no, for_write in accesses:
        pool.access("f", pages[page_no], for_write=for_write)
    # Conservation: every access is a hit or a miss.
    assert pool.hits + pool.misses == len(accesses)
    # Reads charged equal misses exactly.
    assert stats.block_reads == pool.misses
    if capacity == 0:
        assert pool.hits == 0
    # The pool never holds more than its capacity.
    assert len(pool._frames) <= max(capacity, 0)


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(1, 6),
    accesses=st.lists(
        st.tuples(st.integers(0, 9), st.booleans()), max_size=60
    ),
)
def test_buffer_pool_write_charges_match_dirty_pages(capacity, accesses):
    """Every write charged is a dirty page leaving the pool.

    A reference LRU model predicts exactly which evictions write (the
    victim was dirty) and how many pages a flush finds dirty; the pool's
    ledger must match the model write for write, and a second flush must
    be a free no-op.
    """
    from collections import OrderedDict

    from repro.storage.page import Page

    stats = IOStatistics()
    pool = BufferPool(stats, capacity=capacity)
    pages = {i: Page(i, 4) for i in range(10)}

    frames = OrderedDict()  # page_no -> dirty (the reference model)
    expected_reads = expected_writes = expected_hits = 0
    for page_no, for_write in accesses:
        pool.access("f", pages[page_no], for_write=for_write)
        if page_no in frames:
            expected_hits += 1
            frames.move_to_end(page_no)
        else:
            expected_reads += 1
            frames[page_no] = False
            if len(frames) > capacity:
                _victim, victim_dirty = frames.popitem(last=False)
                if victim_dirty:
                    expected_writes += 1
        if for_write:
            frames[page_no] = True

    assert pool.hits == expected_hits
    assert stats.block_reads == expected_reads
    # Eviction writes: exactly the dirty victims, no more, no less.
    assert stats.block_writes == expected_writes

    # Flush writes exactly the pages the model says are dirty...
    dirty_remaining = sum(1 for dirty in frames.values() if dirty)
    flushed = pool.flush()
    assert sum(flushed.values()) == dirty_remaining
    assert flushed == ({"f": dirty_remaining} if dirty_remaining else {})
    assert stats.block_writes == expected_writes + dirty_remaining
    # ...and is idempotent: a second flush finds nothing and is free.
    assert pool.flush() == {}
    assert stats.block_writes == expected_writes + dirty_remaining


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(0, 4),
    fault_seed=st.integers(0, 1000),
    accesses=st.lists(
        st.tuples(st.integers(0, 9), st.booleans()), max_size=50
    ),
)
def test_buffer_pool_invariants_hold_under_fault_injection(
    capacity, fault_seed, accesses
):
    """With a FaultInjector attached, only successful accesses count.

    A faulted access must charge nothing and move no counter (injection
    happens before accounting), torn pages must be restored after
    detection, and replaying the same access sequence under the same
    seed must reproduce the identical fault schedule.
    """
    from repro.exceptions import FaultError
    from repro.faults import FaultInjector, FaultPlan
    from repro.storage.page import Page

    def drive(plan):
        stats = IOStatistics()
        injector = FaultInjector(plan, stats)
        pool = BufferPool(stats, capacity=capacity, injector=injector)
        pages = {i: Page(i, 4) for i in range(10)}
        succeeded = 0
        for page_no, for_write in accesses:
            before = list(pages[page_no].slots)
            try:
                pool.access("f", pages[page_no], for_write=for_write)
                succeeded += 1
            except FaultError:
                # Torn pages are restored after detection; nothing else
                # about the page changes on a failed access.
                assert pages[page_no].slots == before
        return pool, stats, injector, succeeded

    plan = FaultPlan(
        seed=fault_seed,
        read_error_rate=0.15,
        write_error_rate=0.15,
        torn_page_rate=0.10,
        latency_rate=0.20,
    )
    pool, stats, injector, succeeded = drive(plan)

    # Conservation holds over *successful* accesses only.
    assert pool.hits + pool.misses == succeeded
    assert stats.block_reads == pool.misses
    assert len(pool._frames) <= max(capacity, 0)
    # The only stalls billed are the latency faults themselves
    # (protect() was never involved, so no backoff).
    assert stats.latency_units == pytest.approx(
        injector.faults_by_kind.get("latency", 0) * plan.latency_units
    )

    # Same seed, same access sequence -> identical fault schedule.
    first_schedule = list(plan.schedule)
    plan.reset()
    drive(plan)
    assert plan.schedule == first_schedule


@settings(max_examples=30, deadline=None)
@given(
    tuples=st.lists(
        st.tuples(st.integers(0, 100), st.floats(0, 9, allow_nan=False)),
        max_size=60,
    )
)
def test_batch_update_equals_per_tuple_updates(tuples):
    """batch_update and a per-tuple loop must produce identical data
    (only the charges differ)."""
    heap_a, _ = fresh_heap()
    heap_b, _ = fresh_heap()
    for key, value in tuples:
        heap_a.insert({"k": key, "v": value})
        heap_b.insert({"k": key, "v": value})

    k, v = heap_a.schema.position("k"), heap_a.schema.position("v")

    def bump(row):
        if row[v] > 4.0:
            return {"k": row[k], "v": row[v] + 1.0}
        return None

    modified = heap_a.batch_update(bump)
    expected = 0
    for rid, row in list(heap_b.scan_rows()):
        replacement = bump(row)
        if replacement is not None:
            heap_b.update(rid, replacement)
            expected += 1
    assert modified == expected
    assert [v for _r, v in heap_a.scan()] == [v for _r, v in heap_b.scan()]


@settings(max_examples=60, deadline=None)
@given(
    tuples=st.lists(
        st.tuples(st.integers(0, 100), st.floats(0, 9, allow_nan=False)),
        max_size=40,
    ),
    extra=st.lists(st.integers(0, 39), max_size=10),
    block_size=st.sampled_from([64, 256]),
    with_wal=st.booleans(),
)
def test_batch_update_over_given_rows_equals_the_all_rows_pass(
    tuples, extra, block_size, with_wal
):
    """Offered only the rows it changes (plus any others, repeats
    included), batch_update writes, journals and charges exactly what
    the pass offering every row does."""
    from repro.wal import InMemoryStableStore, WriteAheadLog

    heaps = []
    for _ in range(2):
        heap, stats = fresh_heap(block_size=block_size)
        for key, value in tuples:
            heap.insert({"k": key, "v": value})
        if with_wal:
            heap.wal = WriteAheadLog(store=InMemoryStableStore())
            heap.wal.bind(stats)
        stats.reset()
        heaps.append((heap, stats))

    k, v = heaps[0][0].schema.position("k"), heaps[0][0].schema.position("v")

    def bump(row):
        if row[v] > 4.0:
            return {"k": row[k], "v": row[v] + 1.0}
        return None

    (given_heap, given_stats), (all_heap, all_stats) = heaps
    rids = [rid for rid, row in given_heap.scan_rows() if bump(row) is not None]
    live = [rid for rid, _row in given_heap.scan_rows()]
    offered = rids + [live[i % len(live)] for i in extra if live]
    given_stats.reset()
    with given_stats.phase("iterate"), all_stats.phase("iterate"):
        modified = given_heap.batch_update(bump, offered)
        assert modified == all_heap.batch_update(bump)
    assert [p.slots for p in given_heap.pages] == [p.slots for p in all_heap.pages]
    assert given_stats.snapshot() == all_stats.snapshot()
    assert given_stats.phase_costs == all_stats.phase_costs
    if with_wal:
        assert list(given_heap.wal.records(charge=False)) == list(
            all_heap.wal.records(charge=False)
        )


class _ScanFrontier(StatusAttributeFrontier):
    """The selection as a full positional scan of R with strict ``<``:
    the rule the open-row heap must reproduce, row for row and charge
    for charge. Labels are written by the inherited methods."""

    def select_best(self):
        position = self.R.schema.position
        status, node_id = position("status"), position("node_id")
        path_cost = position("path_cost")
        best_row, best_key, best_rid = None, math.inf, None
        for rid, row in self.R.heap.scan_rows():
            if row[status] != STATUS_OPEN:
                continue
            key = self.key_of(row[node_id], row[path_cost])
            if key < best_key:
                best_row, best_key, best_rid = row, key, rid
        if best_row is None:
            return None
        best = self.R.schema.as_dict(best_row)
        best["_rid"] = best_rid
        return best


# Costs and estimates from a small set, so equal keys are common, and
# inf among them, so some open rows are never selectable.
_FRONTIER_VALUES = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])


@settings(max_examples=60, deadline=None)
@given(
    node_count=st.integers(1, 14),
    dropped=st.sets(st.integers(0, 13), max_size=4),
    estimates=st.lists(_FRONTIER_VALUES, min_size=14, max_size=14),
    operations=st.lists(
        st.tuples(
            st.sampled_from(["open", "relax", "relax", "close"]),
            st.integers(0, 13),
            _FRONTIER_VALUES,
        ),
        max_size=40,
    ),
    capacity=st.integers(0, 4),
)
def test_status_frontier_heap_equals_positional_scan(
    node_count, dropped, estimates, operations, capacity
):
    """The status frontier's open-row heap selects exactly the row a
    strict-``<`` scan of R selects, after every open, relax and close,
    and its charged pass leaves the same ledger and pool counters."""
    live = [i for i in range(node_count) if i not in dropped] or [0]

    def key_of(node_id, path_cost):
        return path_cost + estimates[node_id]

    twins = []
    for kind in (StatusAttributeFrontier, _ScanFrontier):
        db = Database(name="frontier", buffer_capacity=capacity, block_size=64)
        R = db.create_relation(node_schema(), name="R")  # bf 4
        rids = [
            R.insert(
                {
                    "node_id": i,
                    "x": 0.0,
                    "y": 0.0,
                    "status": STATUS_NULL,
                    "path": None,
                    "path_cost": math.inf,
                }
            )
            for i in range(node_count)
        ]
        for i in range(node_count):
            if i not in live:
                R.delete(rids[i])  # tombstones the scans must skip
        R.create_isam_index("node_id")
        twins.append((db, kind(R, db.stats, key_of)))

    def step(frontier, name, node, cost):
        if name == "open":
            outcome = frontier.open_node(node, cost, None)
        elif name == "relax":
            outcome = frontier.relax(node, cost, live[0])
        else:
            outcome = frontier.select_best()
            if outcome is not None:
                frontier.close(outcome)
        return outcome, frontier.select_best()

    def pool_counters(db):
        pool = db.buffer_pool
        return pool.hits, pool.misses, pool.evictions

    (db, ours), (ref_db, reference) = twins
    status = reference.R.schema.position("status")
    for name, index, cost in operations:
        node = live[index % len(live)]
        assert step(ours, name, node, cost) == step(reference, name, node, cost)
        pages = [page.slots for page in reference.R.heap.pages]
        assert [page.slots for page in ours.R.heap.pages] == pages
        assert ours.size() == sum(
            1
            for slots in pages
            for row in slots
            if row is not None and row[status] == STATUS_OPEN
        )
        assert db.stats.snapshot() == ref_db.stats.snapshot()
        assert pool_counters(db) == pool_counters(ref_db)


_WAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50), st.floats(0, 9, allow_nan=False)),
        st.tuples(st.just("update"), st.integers(0, 30), st.floats(0, 9, allow_nan=False)),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just(0.0)),
        st.tuples(st.just("checkpoint"), st.just(0), st.just(0.0)),
    ),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(operations=_WAL_OPS)
def test_wal_replay_is_idempotent_and_complete(operations):
    """Whatever mutation sequence ran (checkpoints included), recovery
    from the stable store alone rebuilds exactly the live state — and
    recovering the same store twice is byte-identical (redo replays
    from a fresh database every time, so it cannot compound)."""
    from repro.wal import InMemoryStableStore, WriteAheadLog

    store = InMemoryStableStore()
    schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
    db = Database(wal=WriteAheadLog(store=store))
    relation = db.create_relation(schema, name="t")
    model = {}
    rids = []
    for op, key, value in operations:
        if op == "insert":
            rid = relation.insert({"k": key, "v": value})
            rids.append(rid)
            model[rid] = {"k": key, "v": value}
        elif op == "update" and rids:
            rid = rids[key % len(rids)]
            if rid in model:
                relation.update(rid, {"k": model[rid]["k"], "v": value})
                model[rid] = {"k": model[rid]["k"], "v": value}
        elif op == "delete" and rids:
            rid = rids[key % len(rids)]
            if rid in model:
                relation.delete(rid)
                del model[rid]
        elif op == "checkpoint":
            db.checkpoint()

    recovered = Database.recover(WriteAheadLog(store=store))
    scanned = {
        rid: dict(values) for rid, values in recovered.relation("t").scan()
    }
    assert scanned == model
    # Idempotence: same store, second recovery, byte-identical state.
    again = Database.recover(WriteAheadLog(store=store))
    assert repr(again.state_snapshot()) == repr(recovered.state_snapshot())
    # And the recovered database's own snapshot equals the live one's.
    assert repr(recovered.state_snapshot()) == repr(db.state_snapshot())


@settings(max_examples=20, deadline=None)
@given(buffer_capacity=st.integers(0, 6))
def test_recover_from_empty_store_is_a_no_op(buffer_capacity):
    from repro.wal import InMemoryStableStore, WriteAheadLog

    recovered = Database.recover(
        WriteAheadLog(store=InMemoryStableStore()),
        buffer_capacity=buffer_capacity,
    )
    assert list(recovered.relation_names()) == []
    assert not recovered.last_recovery.snapshot_loaded
    assert recovered.last_recovery.records_replayed == 0
    assert recovered.stats.cost == 0.0


@settings(max_examples=30, deadline=None)
@given(capacities=st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_database_cost_monotonically_increases(capacities):
    db = Database()
    schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
    previous_cost = 0.0
    for index, capacity in enumerate(capacities):
        relation = db.create_relation(schema, name=f"r{index}")
        for key in range(capacity * 3):
            relation.insert({"k": key, "v": 0.0})
        assert db.stats.cost >= previous_cost
        previous_cost = db.stats.cost
