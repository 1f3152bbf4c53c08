"""Index-located join rows against the full-scan loops, charge for charge.

A hash or nested-loop join whose inner has a hash index on the join key
charges the inner's full pass but reads only the rows the index locates.
These properties hold every strategy's output rows, their order and the
whole ledger (counters, phase costs, buffer-pool hits, misses and
evictions) equal to the loops below, which read every row of every pass.
Keys mix types that compare equal across types (1, 1.0, True; 0, -0.0)
so the located rows must match the way a dict lookup of each row does.
"""

import math
from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.joins import (
    HashJoin,
    NestedLoopJoin,
    PrimaryKeyJoin,
    SortMergeJoin,
    make_inputs,
)
from repro.storage.database import Database
from repro.storage.hashindex import HashIndex, _stable_hash
from repro.storage.schema import ANY, FLOAT, Field, Schema


def _merge(left, right):
    merged = dict(left)
    for key, value in right.items():
        if key in merged:
            merged[f"inner.{key}"] = value
        else:
            merged[key] = value
    return merged


def scan_nested_loop(outer, outer_key, inner, inner_key, inputs, stats):
    stats.charge_read(inputs.outer_blocks)
    key = inner.schema.position(inner_key)
    result = []
    outer_block_count = max(1, inputs.outer_blocks)
    per_block = max(1, -(-len(outer) // outer_block_count))
    for start in range(0, max(len(outer), 1), per_block):
        chunk = outer[start : start + per_block]
        if not chunk and start > 0:
            break
        block = {}
        for outer_values in chunk:
            block.setdefault(outer_values[outer_key], []).append(outer_values)
        for _rid, row in inner.heap.scan_rows():
            matches = block.get(row[key])
            if matches:
                inner_values = inner.schema.as_dict(row)
                for outer_values in matches:
                    result.append(_merge(outer_values, inner_values))
    stats.charge_write(inputs.result_blocks)
    return result


def scan_hash(outer, outer_key, inner, inner_key, inputs, stats):
    stats.charge_read(inputs.outer_blocks)
    table = {}
    for outer_values in outer:
        table.setdefault(outer_values[outer_key], []).append(outer_values)
    key = inner.schema.position(inner_key)
    result = []
    for _rid, row in inner.heap.scan_rows():
        matches = table.get(row[key])
        if matches:
            inner_values = inner.schema.as_dict(row)
            for outer_values in matches:
                result.append(_merge(outer_values, inner_values))
    stats.charge_write(inputs.result_blocks)
    return result


def scan_sort_merge(outer, outer_key, inner, inner_key, inputs, stats):
    for blocks in (inputs.outer_blocks, inputs.inner_blocks):
        if blocks > 1:
            stats.charge_update(int(round(blocks * math.log2(blocks))))
    stats.charge_read(inputs.outer_blocks)
    key = inner.schema.position(inner_key)
    runs = {}
    for _rid, row in inner.heap.scan_rows():
        runs.setdefault(repr(row[key]), []).append(row)
    result = []
    ordered = sorted(outer, key=lambda t: repr(t[outer_key]))
    for marker, group in groupby(ordered, key=lambda t: repr(t[outer_key])):
        for outer_values in group:
            for row in runs.get(marker, ()):
                result.append(_merge(outer_values, inner.schema.as_dict(row)))
    stats.charge_write(inputs.result_blocks)
    return result


def bucket_chains(inner, inner_key, bucket_count, capacity):
    """The index's bucket chains as pages of ``(key, rid)`` entries, in
    entry order (the heap's order here: rows inserted after the build
    were appended to both)."""
    key = inner.schema.position(inner_key)
    chains = [[[]] for _ in range(bucket_count)]
    for page in inner.heap.pages:
        for slot, row in page.rows():
            chain = chains[_stable_hash(row[key]) % bucket_count]
            if len(chain[-1]) >= capacity:
                chain.append([])
            chain[-1].append((row[key], (page.page_no, slot)))
    return chains


def probe_primary_key(outer, outer_key, inner, inner_key, inputs, stats):
    """Index nested loops, each probe comparing its bucket chain's
    entries page by page."""
    index = inner.hash_index
    chains = bucket_chains(inner, inner_key, index.bucket_count, index.bucket_capacity)
    stats.charge_read(inputs.outer_blocks)
    result = []
    for outer_values in outer:
        wanted = outer_values[outer_key]
        rids = []
        for page in chains[_stable_hash(wanted) % index.bucket_count]:
            stats.charge_read()
            rids.extend(rid for k, rid in page if k == wanted)
        for rid in rids:
            result.append(_merge(outer_values, dict(inner.heap.read(rid))))
    stats.charge_write(inputs.result_blocks)
    return result


REFERENCES = {
    NestedLoopJoin: scan_nested_loop,
    HashJoin: scan_hash,
    SortMergeJoin: scan_sort_merge,
    PrimaryKeyJoin: probe_primary_key,
}

KEYS = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([1.0, 2.5, -0.0, 0.0, True, False, "a", "b", (0, 1), (1, 1), (1.0, 1), None]),
)


def build(inner_rows, late_rows, index_field, bucket_count, capacity):
    db = Database(buffer_capacity=capacity, block_size=96)  # 3 rows a page
    schema = Schema(
        "s",
        [Field("begin", ANY, 12), Field("end", ANY, 12), Field("cost", FLOAT, 8)],
    )
    relation = db.create_relation(schema)
    relation.bulk_load(
        {"begin": key, "end": n, "cost": float(n)} for n, key in enumerate(inner_rows)
    )
    if index_field is not None:
        # Two entries a chain page: chains of several pages.
        relation.hash_index = HashIndex(
            relation.heap, index_field, db.stats, bucket_count, bucket_capacity=2
        )
        relation.hash_index.build()
    for n, key in enumerate(late_rows, start=len(inner_rows)):
        relation.insert({"begin": key, "end": n, "cost": float(n)})
    db.stats.reset()
    return db, relation


def ledger(db):
    pool = db.buffer_pool
    return (
        db.stats.snapshot(),
        dict(db.stats.phase_costs),
        (pool.hits, pool.misses, pool.evictions),
    )


@settings(max_examples=150, deadline=None)
@given(
    inner_rows=st.lists(KEYS, max_size=14),
    late_rows=st.lists(KEYS, max_size=5),
    outer_keys=st.lists(KEYS, max_size=7),
    index_field=st.sampled_from([None, "begin", "end"]),
    bucket_count=st.sampled_from([0, 1, 3]),
    capacity=st.sampled_from([0, 2]),
    outer_blocking_factor=st.integers(1, 3),
    expected=st.integers(0, 9),
)
def test_every_strategy_equals_its_full_scan_loop(
    inner_rows,
    late_rows,
    outer_keys,
    index_field,
    bucket_count,
    capacity,
    outer_blocking_factor,
    expected,
):
    outer = [{"node_id": key, "g": float(n)} for n, key in enumerate(outer_keys)]
    for strategy, reference in REFERENCES.items():
        if strategy is PrimaryKeyJoin and index_field != "begin":
            continue
        runs = []
        for execute in (strategy().execute, reference):
            db, relation = build(inner_rows, late_rows, index_field, bucket_count, capacity)
            inputs = make_inputs(outer, outer_blocking_factor, relation, expected, 2)
            with db.stats.phase("iterate"):
                rows = execute(outer, "node_id", relation, "begin", inputs, db.stats)
            runs.append((rows, ledger(db)))
        (rows, charged), (expected_rows, expected_charges) = runs
        # By repr: -0.0 == 0.0, but a row must carry the key it stored.
        assert repr(rows) == repr(expected_rows), strategy.name
        assert charged == expected_charges, strategy.name
