"""Static hash index on a heap file field (possibly non-unique keys).

The paper's edge relation S "has a primary index (random hash) on the
field S.Begin-node", which is what makes adjacency-list fetches cheap:
all edges leaving a node hash to one bucket, so ``fetch(u.adjacencyList)``
costs roughly one bucket read plus the data pages.

The index is static: a fixed number of buckets chosen at build time,
each bucket a chain of index pages holding ``(key, record_id)`` entries.
Probing charges one read per chain page traversed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

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
    """Static hash index mapping keys to one or more record ids."""

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
        self._buckets: List[List[List[Tuple[object, RecordId]]]] = []
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
        chains: List[List[List[Tuple[object, RecordId]]]] = [
            [[]] for _ in range(bucket_count)
        ]
        for key, record_id in entries:
            chain = chains[_stable_hash(key) % bucket_count]
            if len(chain[-1]) >= self.bucket_capacity:
                chain.append([])
            chain[-1].append((key, record_id))
        self._buckets = chains
        self._built = True
        self.stats.charge_write(self.page_count)

    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        self._require_built()
        return len(self._buckets)

    @property
    def page_count(self) -> int:
        self._require_built()
        return sum(len(chain) for chain in self._buckets)

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_(
                f"hash index on {self.heap.name!r}.{self.key_field} not "
                "built; call build() first"
            )

    # ------------------------------------------------------------------
    def probe(self, key: object) -> List[RecordId]:
        """All record ids for ``key`` (charges one read per chain page
        up to and including the last page containing a match, or the
        whole chain when the key is absent)."""
        self._require_built()
        if self.injector is not None:
            # Before any chain-page read is charged.
            self.injector.on_read(f"hash:{self.heap.name}")
        chain = self._buckets[_stable_hash(key) % len(self._buckets)]
        matches: List[RecordId] = []
        for page in chain:
            self.stats.charge_read()
            matches.extend(rid for k, rid in page if k == key)
        return matches

    def fetch_all(self, key: object) -> List[dict]:
        """Probe and materialise the matching tuples.

        This is the paper's ``fetch(u.adjacencyList)``: bucket read(s)
        plus the data-page accesses for the matching tuples.
        """
        return [dict(self.heap.read(rid)) for rid in self.probe(key)]

    def insert(self, key: object, record_id: RecordId) -> None:
        """Add one entry post-build (extends the chain when full)."""
        self._require_built()
        chain = self._buckets[_stable_hash(key) % len(self._buckets)]
        if len(chain[-1]) >= self.bucket_capacity:
            chain.append([])
        chain[-1].append((key, record_id))
        self.stats.charge_write()

    def verify(self) -> bool:
        """Audit the index against the heap (no I/O charge: a sweep).

        Checks, raising :class:`IndexError_` on the first violation:

        * every entry sits in the bucket its key hashes to;
        * no bucket page exceeds its capacity;
        * the multiset of ``(key, rid)`` entries equals the multiset of
          live heap tuples' ``(key field, record id)`` pairs.

        Run by the crash matrix after every recovery; bills nothing.
        """
        self._require_built()
        bucket_count = len(self._buckets)
        index_entries: Dict[Tuple[str, RecordId], int] = {}
        for bucket_no, chain in enumerate(self._buckets):
            for page in chain:
                if len(page) > self.bucket_capacity:
                    raise IndexError_(
                        f"hash index on {self.heap.name!r}: bucket "
                        f"{bucket_no} page overflows its capacity"
                    )
                for key, rid in page:
                    if _stable_hash(key) % bucket_count != bucket_no:
                        raise IndexError_(
                            f"hash index on {self.heap.name!r}: key {key!r} "
                            f"filed in bucket {bucket_no}, hashes elsewhere"
                        )
                    marker = (repr(key), rid)
                    index_entries[marker] = index_entries.get(marker, 0) + 1
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
        """All distinct keys (metadata; no I/O charge)."""
        self._require_built()
        seen = set()
        for chain in self._buckets:
            for page in chain:
                for key, _rid in page:
                    marker = repr(key)
                    if marker not in seen:
                        seen.add(marker)
                        yield key

    def __repr__(self) -> str:
        built = (
            f"buckets={len(self._buckets)}" if self._built else "unbuilt"
        )
        return f"HashIndex({self.heap.name!r}.{self.key_field}, {built})"
