"""Relations: heap file + optional indexes + statistics.

A :class:`Relation` bundles the pieces the query layer needs: the paged
tuple store, a primary index (ISAM or hash), and the size metadata
(tuple counts, block counts, blocking factors) that both the query
optimizer and the analytical cost model consume.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.hashindex import HashIndex
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.iostats import IOStatistics
from repro.storage.page import DEFAULT_BLOCK_SIZE
from repro.storage.schema import Schema


class Relation:
    """One named relation of the simulated database."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        buffer_pool: BufferPool,
        stats: IOStatistics,
        block_size: int = DEFAULT_BLOCK_SIZE,
        wal: Optional[object] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.stats = stats
        self.heap = HeapFile(name, schema, buffer_pool, stats, block_size, wal=wal)
        self.isam = None  # set by create_isam_index
        self.hash_index: Optional[HashIndex] = None

    @property
    def wal(self) -> Optional[object]:
        """The attached write-ahead log (lives on the heap file)."""
        return self.heap.wal

    # ------------------------------------------------------------------
    # size metadata (the cost model's vocabulary)
    # ------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        return self.heap.tuple_count

    @property
    def block_count(self) -> int:
        return self.heap.blocks_needed()

    @property
    def blocking_factor(self) -> int:
        return self.heap.blocking_factor

    @property
    def tuple_size(self) -> int:
        return self.schema.tuple_size

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def create_isam_index(self, key_field: str, fanout: int = 10):
        """Build a primary ISAM index (the paper's index on R.node-id)."""
        from repro.storage.isam import ISAMIndex

        self.schema.field(key_field)  # validates the field exists
        index = ISAMIndex(
            self.heap,
            key_field,
            self.stats,
            fanout=fanout,
            injector=self.heap.buffer_pool.injector,
        )
        index.build()
        self.isam = index
        if self.wal is not None:
            self.wal.log_index(self.name, "isam", key_field, fanout)
        return index

    def create_hash_index(
        self, key_field: str, bucket_count: int = 0
    ) -> HashIndex:
        """Build a primary hash index (the paper's index on S.Begin-node)."""
        self.schema.field(key_field)
        index = HashIndex(
            self.heap,
            key_field,
            self.stats,
            bucket_count=bucket_count,
            injector=self.heap.buffer_pool.injector,
        )
        index.build()
        self.hash_index = index
        if self.wal is not None:
            self.wal.log_index(self.name, "hash", key_field, bucket_count)
        return index

    # ------------------------------------------------------------------
    # tuple operations (delegate to the heap, keeping indexes honest)
    # ------------------------------------------------------------------
    def insert(self, values: Mapping[str, object]) -> RecordId:
        record_id = self.heap.insert(values)
        if self.isam is not None:
            self.isam.insert(values[self.isam.key_field], record_id)
        if self.hash_index is not None:
            self.hash_index.insert(
                values[self.hash_index.key_field], record_id
            )
        return record_id

    def insert_many(self, rows) -> int:
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def bulk_load(self, rows) -> int:
        """Sequential bulk load (block-level write charges).

        Only valid before indexes exist — build indexes afterwards, as
        a 1993 DBA would.
        """
        if self.isam is not None or self.hash_index is not None:
            raise StorageError(
                f"bulk_load on {self.name!r} requires building indexes "
                "after loading"
            )
        return self.heap.bulk_load(rows)

    def scan(self) -> Iterator[Tuple[RecordId, Mapping[str, object]]]:
        return self.heap.scan()

    def scan_filter(
        self, predicate: Callable[[Mapping[str, object]], bool]
    ) -> Iterator[Tuple[RecordId, Mapping[str, object]]]:
        return self.heap.scan_filter(predicate)

    def read(self, record_id: RecordId) -> Mapping[str, object]:
        return self.heap.read(record_id)

    def update(self, record_id: RecordId, values: Mapping[str, object]) -> None:
        old = self.heap.read(record_id)
        changed = self.changed_key(old, values)
        if changed is not None:
            raise StorageError(f"cannot change {changed} via update")
        self.heap.update(record_id, values)

    def changed_key(
        self, old: Mapping[str, object], values: Mapping[str, object]
    ) -> Optional[str]:
        """The indexed key field that ``values`` would change in ``old``.

        Indexes are static: an entry stays filed under the key its row
        had when it was indexed, so an in-place update must keep every
        indexed key. Returns a description such as ``"ISAM key field
        'node_id'"``, or None when no indexed key changes. Compares
        against a row the caller has already read, so it charges nothing.
        """
        for kind, index in (("ISAM", self.isam), ("hash", self.hash_index)):
            if index is not None and old[index.key_field] != values.get(
                index.key_field
            ):
                return f"{kind} key field {index.key_field!r}"
        return None

    def replace_by_key(self, key: object, values: Mapping[str, object]) -> bool:
        """Keyed REPLACE through the ISAM index (QUEL's REPLACE).

        Returns False when the key is absent. Indexes are static (see
        :meth:`changed_key`), so ``values`` must keep every indexed
        key: a changed ISAM key is refused before the probe, as the
        probed key is the row's; a changed hash key is refused against
        the old row, read uncharged (:meth:`HeapFile.peek`) because the
        update's ``t_update`` already charges reading the tuple. Either
        refusal writes nothing, and the charge stays the paper's
        ``(I_l + S_r) * t_update`` shape: index traversal reads plus one
        tuple update.
        """
        if self.isam is None:
            raise StorageError(
                f"relation {self.name!r} has no ISAM index for keyed replace"
            )
        field = self.isam.key_field
        if values.get(field) != key:
            raise StorageError(f"cannot change ISAM key field {field!r} via replace")
        rid = self.isam.probe(key)
        if rid is None:
            return False
        changed = self.changed_key(self.heap.peek(rid), values)
        if changed is not None:
            raise StorageError(f"cannot change {changed} via replace")
        self.heap.update(rid, values)
        return True

    def fetch_by_key(self, key: object) -> Optional[dict]:
        """Keyed fetch through the ISAM index."""
        if self.isam is None:
            raise StorageError(
                f"relation {self.name!r} has no ISAM index for keyed fetch"
            )
        return self.isam.fetch(key)

    def delete(self, record_id: RecordId) -> None:
        """Tombstone one tuple (indexes, if any, must be unaffected)."""
        if self.isam is not None or self.hash_index is not None:
            raise StorageError(
                f"delete on indexed relation {self.name!r} is not "
                "supported; 1993-era indexes are static"
            )
        self.heap.delete(record_id)

    def truncate(self) -> None:
        self.heap.truncate()
        self.isam = None
        self.hash_index = None

    def all_tuples(self) -> List[dict]:
        """Materialise every live tuple (scan charges apply)."""
        return [dict(values) for _rid, values in self.scan()]

    def __len__(self) -> int:
        return self.heap.tuple_count

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, tuples={self.tuple_count}, "
            f"blocks={self.block_count})"
        )
