"""Static hash index on a heap file field (possibly non-unique keys).

The paper's edge relation S "has a primary index (random hash) on the
field S.Begin-node", which is what makes adjacency-list fetches cheap:
all edges leaving a node hash to one bucket, so ``fetch(u.adjacencyList)``
costs roughly one bucket read plus the data pages.

The index is static: a fixed number of buckets chosen at build time,
each bucket a chain of index pages holding ``(key, record_id)`` entries.
Probing charges one read per page of the key's bucket chain.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import IndexError_
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.iostats import IOStatistics

#: (key, record id) entries per bucket page.
DEFAULT_BUCKET_CAPACITY = 128


def _stable_hash(key: object) -> int:
    """Deterministic hash across runs (PYTHONHASHSEED-independent).

    Uses the repr for strings/tuples so experiment traces never depend
    on interpreter hash randomization.
    """
    if isinstance(key, int):
        return key
    return sum((i + 1) * b for i, b in enumerate(repr(key).encode()))


class HashIndex:
    """Static hash index mapping keys to one or more record ids.

    Entries are kept grouped by key (keys equal as in a dict share one
    list of ``(bucket, key, record id)`` in entry order), so a lookup
    compares only a key's own entries. What a probe is charged for is
    the bucket's chain of index pages, which grows a page each time its
    last page fills: a bucket of ``n`` entries has ``max(1, ceil(n /
    bucket_capacity))`` pages.

    Each filed key's bucket is computed once per build. A non-int
    key's ``_stable_hash`` is a function of its repr, so the buckets
    are kept by repr: keys equal as in a dict but with distinct reprs
    (``1.0`` and ``1``, ``(0.0, 0)`` and ``(0, 0)``) keep distinct
    buckets, as ``1`` and ``True`` keep one.
    """

    def __init__(
        self,
        heap: HeapFile,
        key_field: str,
        stats: IOStatistics,
        bucket_count: int = 0,
        bucket_capacity: int = DEFAULT_BUCKET_CAPACITY,
        injector: Optional[object] = None,
    ) -> None:
        if bucket_capacity < 1:
            raise IndexError_("bucket capacity must be at least 1")
        self.heap = heap
        self.key_field = key_field
        self.stats = stats
        self.bucket_capacity = bucket_capacity
        self.injector = injector
        self._requested_buckets = bucket_count
        #: Entries per bucket.
        self._bucket_sizes: List[int] = []
        self._by_key: Dict[object, List[Tuple[int, object, RecordId]]] = {}
        #: repr of each filed non-int key -> its bucket.
        self._bucket_of: Dict[str, int] = {}
        self._built = False

    def build(self) -> None:
        """Scan the heap and hash every tuple into its bucket chain."""
        key = self.heap.schema.position(self.key_field)
        entries: List[Tuple[object, RecordId]] = [
            (row[key], record_id) for record_id, row in self.heap.scan_rows()
        ]
        bucket_count = self._requested_buckets
        if bucket_count <= 0:
            # Aim for ~one page per bucket at build time.
            bucket_count = max(1, len(entries) // self.bucket_capacity + 1)
        self._bucket_sizes = [0] * bucket_count
        self._by_key = {}
        self._bucket_of = {}
        for key, record_id in entries:
            self._file(key, record_id)
        self._built = True
        self.stats.charge_write(self.page_count)

    def _bucket(self, key: object, remember: bool = False) -> int:
        """The bucket ``_stable_hash`` puts ``key`` in, looked up by repr
        for a filed key; ``remember`` records it for a key being filed."""
        if isinstance(key, int):
            return key % len(self._bucket_sizes)
        marker = repr(key)
        bucket = self._bucket_of.get(marker)
        if bucket is None:
            bucket = _stable_hash(key) % len(self._bucket_sizes)
            if remember:
                self._bucket_of[marker] = bucket
        return bucket

    def _file(self, key: object, record_id: RecordId) -> None:
        bucket = self._bucket(key, remember=True)
        try:
            group = self._by_key.setdefault(key, [])
        except TypeError:
            raise IndexError_(
                f"hash index on {self.heap.name!r}.{self.key_field}: "
                f"key {key!r} is unhashable"
            ) from None
        group.append((bucket, key, record_id))
        self._bucket_sizes[bucket] += 1

    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        self._require_built()
        return len(self._bucket_sizes)

    def _chain_pages(self, bucket: int) -> int:
        return max(1, -(-self._bucket_sizes[bucket] // self.bucket_capacity))

    @property
    def page_count(self) -> int:
        self._require_built()
        return sum(map(self._chain_pages, range(len(self._bucket_sizes))))

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_(
                f"hash index on {self.heap.name!r}.{self.key_field} not "
                "built; call build() first"
            )

    # ------------------------------------------------------------------
    def probe(self, key: object) -> List[RecordId]:
        """All record ids for ``key``: the entries of its bucket whose
        key ``== key``, in entry order. Charges one read per page of
        the bucket's chain, matches or not."""
        self._require_built()
        if self.injector is not None:
            # Before any chain-page read is charged.
            self.injector.on_read(f"hash:{self.heap.name}")
        bucket = self._bucket(key)
        self.stats.charge_reads(self._chain_pages(bucket))
        try:
            group = self._by_key.get(key, ())
        except TypeError:  # an unhashable key equals no indexed key
            return []
        return [rid for b, k, rid in group if b == bucket and k == key]

    def fetch_all(self, key: object) -> List[dict]:
        """Probe and materialise the matching tuples.

        This is the paper's ``fetch(u.adjacencyList)``: bucket read(s)
        plus the data-page accesses for the matching tuples.
        """
        return [self.heap.read(rid) for rid in self.probe(key)]

    def insert(self, key: object, record_id: RecordId) -> None:
        """Add one entry post-build (extends the chain when full)."""
        self._require_built()
        self._file(key, record_id)
        self.stats.charge_write()

    def locate(self, keys: Iterable[object]) -> List[RecordId]:
        """Record ids of the entries whose key equals one of ``keys``,
        in (page, slot) order, charging nothing.

        Keys match as in a dict lookup, whatever bucket they hash to
        (1 and 1.0 match). This is for a caller that has already charged
        a full pass over the heap and reads only the rows it returns.
        """
        self._require_built()
        by_key = self._by_key
        located = [rid for key in keys for _b, _k, rid in by_key.get(key, ())]
        located.sort()
        return located

    def verify(self) -> bool:
        """Audit the index against the heap (no I/O charge: a sweep).

        Checks, raising :class:`IndexError_` on the first violation:

        * every entry sits in the bucket its key hashes to, and each
          bucket's size counts its entries;
        * the multiset of ``(key, rid)`` entries equals the multiset of
          live heap tuples' ``(key field, record id)`` pairs.

        Run by the crash matrix after every recovery; bills nothing.
        """
        self._require_built()
        bucket_count = len(self._bucket_sizes)
        sizes = [0] * bucket_count
        index_entries: Dict[Tuple[str, RecordId], int] = {}
        for group in self._by_key.values():
            for bucket_no, key, rid in group:
                if _stable_hash(key) % bucket_count != bucket_no:
                    raise IndexError_(
                        f"hash index on {self.heap.name!r}: key {key!r} "
                        f"filed in bucket {bucket_no}, hashes elsewhere"
                    )
                sizes[bucket_no] += 1
                marker = (repr(key), rid)
                index_entries[marker] = index_entries.get(marker, 0) + 1
        if sizes != self._bucket_sizes:
            raise IndexError_(
                f"hash index on {self.heap.name!r}: bucket sizes disagree "
                "with its entries"
            )
        heap_entries: Dict[Tuple[str, RecordId], int] = {}
        key = self.heap.schema.position(self.key_field)
        for page in self.heap.pages:
            for slot, row in page.rows():
                marker = (repr(row[key]), (page.page_no, slot))
                heap_entries[marker] = heap_entries.get(marker, 0) + 1
        if index_entries != heap_entries:
            missing = set(heap_entries) - set(index_entries)
            extra = set(index_entries) - set(heap_entries)
            raise IndexError_(
                f"hash index on {self.heap.name!r} disagrees with the "
                f"heap: {len(missing)} unindexed, {len(extra)} dangling"
            )
        return True

    def keys(self) -> Iterator[object]:
        """All distinct keys, in entry order (metadata; no I/O charge)."""
        self._require_built()
        seen = set()
        for group in self._by_key.values():
            for _bucket, key, _rid in group:
                marker = repr(key)
                if marker not in seen:
                    seen.add(marker)
                    yield key

    def __repr__(self) -> str:
        built = (
            f"buckets={len(self._bucket_sizes)}" if self._built else "unbuilt"
        )
        return f"HashIndex({self.heap.name!r}.{self.key_field}, {built})"
