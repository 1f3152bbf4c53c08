"""The indexes' lookups against the walks they replace, charge for charge.

``ISAMIndex`` resolves a built key without walking its levels, and
``HashIndex`` keeps each filed key's bucket. Both must return and
charge exactly what the walk does: the loops below are that walk, run
on the same index's pages. Each example applies one random sequence of
post-build inserts (overflow entries), rebuilds, probes and fetches to
two identical indexes, one through its methods and one through the
loops, and holds every answer (or error) and the whole ledger
(counters and phase costs, bit for bit) equal after every step.

Keys mix values that compare equal but hash or sort apart (``1``,
``1.0``, ``True``; ``0.0`` and ``-0.0``; ``(0, 1)`` and ``(0.0, 1)``),
NaN, keys no index key compares with, and unhashable keys.
"""

from bisect import bisect_right

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.hashindex import HashIndex, _stable_hash
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics
from repro.storage.isam import ISAMIndex
from repro.storage.schema import ANY, FLOAT, Field, Schema

NAN = float("nan")

NUMBERS = st.one_of(
    st.integers(-3, 30),
    st.sampled_from([1.0, 2.5, -0.0, 0.0, True, False, NAN, float("inf")]),
    st.floats(allow_nan=True, allow_infinity=False, width=16),
)
PAIRS = st.tuples(
    st.sampled_from([0, 1, 0.0, 1.0, True, 2]), st.sampled_from([1, 1.0, -0.0, 0, 3])
)
LISTS = st.lists(st.integers(0, 3), min_size=1, max_size=2)
#: Keys no member of the family compares with, or that cannot be hashed.
STRANGERS = st.sampled_from(["a", None, (0, 1), 1, [1], {"k": 1}])


def make_heap():
    stats = IOStatistics()
    schema = Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])
    # 4 rows a page, so the heap spans several pages.
    heap = HeapFile("t", schema, BufferPool(stats, capacity=0), stats, block_size=64)
    return heap, stats


def ledger(stats):
    return stats.snapshot(), [(phase, units.hex()) for phase, units in stats.phase_costs.items()]


def outcome(call):
    try:
        return ("ok", repr(call()))
    except (TypeError, IndexError_) as exc:
        return (type(exc).__name__, str(exc))


def replay(make_index, built, operations, calls):
    """Build an index over ``built``, apply ``operations`` through
    ``calls`` (op name -> function of the index and a key, plus a
    record id for ``insert``) and return each step's outcome and
    ledger."""
    heap, stats = make_heap()
    for key in built:
        heap.insert({"k": key, "v": 0.0})
    index = make_index(heap, stats)
    index.build()
    stats.reset()
    steps = []
    with stats.phase("iterate"):
        for op, key in operations:
            if op == "rebuild":
                result = outcome(index.build)
            elif op == "insert":
                rid = heap.insert({"k": key, "v": 0.0})
                result = outcome(lambda: calls["insert"](index, key, rid))
            else:
                result = outcome(lambda: calls[op](index, key))
            steps.append((result, ledger(stats)))
    return steps


# ----------------------------------------------------------------------
# ISAM
# ----------------------------------------------------------------------
def walk_descend(index, key):
    page_no = 0
    for level in reversed(index._levels[1:]):
        index.stats.charge_read()
        child = max(bisect_right(level[page_no], key) - 1, 0)
        page_no = page_no * index.fanout + child
    index.stats.charge_read()
    return min(page_no, len(index._levels[0]) - 1)


def walk_probe(index, key):
    leaf_no = walk_descend(index, key)
    for i, k in enumerate(index._levels[0][leaf_no]):
        if k == key:
            return index._leaf_rids[leaf_no][i]
    spill = index._overflow.get(leaf_no)
    if spill:
        index.stats.charge_read()
        for k, rid in spill:
            if k == key:
                return rid
    return None


def walk_fetch(index, key):
    rid = walk_probe(index, key)
    return None if rid is None else dict(index.heap.read(rid))


def walk_insert(index, key, rid):
    leaf_no = walk_descend(index, key)
    if walk_probe(index, key) is not None:
        raise IndexError_(f"duplicate key {key!r} in ISAM on {index.heap.name!r}")
    index._overflow.setdefault(leaf_no, []).append((key, rid))
    index.stats.charge_write()


def isam_ops(keys):
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["probe", "fetch", "insert"]), st.one_of(keys, STRANGERS)),
            st.tuples(st.just("rebuild"), st.none()),
        ),
        max_size=25,
    )


@st.composite
def isam_cases(draw):
    keys = draw(st.sampled_from([NUMBERS, PAIRS, LISTS]))
    built = draw(st.lists(keys, max_size=40, unique_by=repr))
    fanout = draw(st.sampled_from([2, 3, 10]))
    return built, fanout, draw(isam_ops(keys))


@settings(max_examples=300, deadline=None)
@given(case=isam_cases())
# A lone NaN: nothing to sort it against, and no scan finds it.
@example(case=([NAN], 10, [("probe", NAN), ("fetch", NAN)]))
def test_isam_probe_and_fetch_equal_the_walk(case):
    built, fanout, operations = case
    walks = {"probe": walk_probe, "fetch": walk_fetch, "insert": walk_insert}
    methods = {"probe": ISAMIndex.probe, "fetch": ISAMIndex.fetch, "insert": ISAMIndex.insert}

    def make(heap, stats):
        return ISAMIndex(heap, "k", stats, fanout=fanout)

    assert replay(make, built, operations, methods) == replay(make, built, operations, walks)


# ----------------------------------------------------------------------
# hash index
# ----------------------------------------------------------------------
def chain_probe(index, key):
    bucket = _stable_hash(key) % len(index._bucket_sizes)
    for _page in range(index._chain_pages(bucket)):
        index.stats.charge_read()
    try:
        group = index._by_key.get(key, ())
    except TypeError:
        return []
    return [rid for b, k, rid in group if b == bucket and k == key]


def chain_fetch_all(index, key):
    return [index.heap.read(rid) for rid in chain_probe(index, key)]


HASH_KEYS = st.one_of(
    NUMBERS,
    PAIRS,
    st.sampled_from(["a", "b", None, (0, (1, 2.0)), (0, (1, 2))]),
)


@settings(max_examples=300, deadline=None)
@given(
    built=st.lists(HASH_KEYS, max_size=30),
    bucket_count=st.sampled_from([0, 1, 3, 7]),
    operations=st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["probe", "fetch", "insert"]),
                st.one_of(HASH_KEYS, st.sampled_from([[1], {"k": 1}])),
            ),
            st.tuples(st.just("rebuild"), st.none()),
        ),
        max_size=25,
    ),
)
def test_hash_probe_and_fetch_all_equal_the_chain_walk(built, bucket_count, operations):
    walks = {"probe": chain_probe, "fetch": chain_fetch_all, "insert": HashIndex.insert}
    methods = {"probe": HashIndex.probe, "fetch": HashIndex.fetch_all, "insert": HashIndex.insert}

    def make(heap, stats):
        # Two entries a chain page: chains of several pages.
        return HashIndex(heap, "k", stats, bucket_count, bucket_capacity=2)

    assert replay(make, built, operations, methods) == replay(make, built, operations, walks)
