"""Heap files: unordered paged tuple storage.

A heap file is a list of pages sharing one schema. Scans read every
page through the buffer pool; point accesses (by record id) read one
page; in-place updates charge the paper's ``t_update`` (a read plus a
write of the tuple) rather than separate block charges, matching how
Tables 2-3 charge REPLACE-style operations per tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStatistics
from repro.storage.page import DEFAULT_BLOCK_SIZE, Page, Row, blocks_for
from repro.storage.schema import Schema

#: A record id: (page number, slot number).
RecordId = Tuple[int, int]


class HeapFile:
    """Paged storage for one relation's tuples."""

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
        self.buffer_pool = buffer_pool
        self.stats = stats
        self.block_size = block_size
        self.blocking_factor = schema.blocking_factor(block_size)
        #: Optional write-ahead log (duck-types WriteAheadLog). Every
        #: mutation appends a redo record *after* it is applied and
        #: charged — the record's presence is the commit.
        self.wal = wal
        self.pages: List[Page] = []
        self._tuple_count = 0

    # ------------------------------------------------------------------
    # size arithmetic
    # ------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        """Live tuples, |T|."""
        return self._tuple_count

    @property
    def block_count(self) -> int:
        """Allocated blocks (includes pages holding only tombstones)."""
        return len(self.pages)

    def blocks_needed(self) -> int:
        """Minimal blocks for the live tuples — the model's B value."""
        return blocks_for(self._tuple_count, self.blocking_factor)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _check_write_fault(self) -> None:
        """Consult the fault injector (if any) before mutating.

        Raised faults happen *before* any page or counter changes, so a
        failed mutation leaves the file exactly as it was and a retry
        starts clean.
        """
        injector = self.buffer_pool.injector
        if injector is not None:
            injector.on_write(f"heap:{self.name}")

    def insert(self, values: Mapping[str, object]) -> RecordId:
        """Validate and append a tuple; returns its record id.

        A single APPEND charges one block write — the write-through of
        the modified tail page. (This is what makes the paper's
        APPEND+DELETE frontier management dearer than REPLACE: 0.05 +
        0.085 units per node transition versus a single 0.085 update.)
        """
        self._check_write_fault()
        record_id, row = self._append(values)
        self.stats.charge_write()
        if self.wal is not None:
            self.wal.log_insert(self.name, record_id, row)
        return record_id

    def _append(self, values: Mapping[str, object]) -> Tuple[RecordId, Row]:
        row = self.schema.validate(values)
        return self._place(row), row

    def _place(self, row: Row) -> RecordId:
        if not self.pages or self.pages[-1].is_full:
            self.pages.append(Page(len(self.pages), self.blocking_factor))
        page = self.pages[-1]
        slot = page.insert(row)
        self._tuple_count += 1
        return (page.page_no, slot)

    def insert_many(self, rows: Iterator[Mapping[str, object]]) -> int:
        """Insert tuples one by one (per-tuple write charges)."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def bulk_load(self, rows: Iterable[Mapping[str, object]]) -> int:
        """Sequential bulk load charging one write per *page* filled.

        This is the loading pattern behind the model's initialization
        term C2 = B_s * t_read + B_r * t_write: the source is scanned
        and the result written out block by block. Each mapping is
        validated as it is loaded (see :meth:`load_rows`).
        """
        return self.load_rows(map(self.schema.validate, rows))

    def load_rows(self, rows: Iterable[Row]) -> int:
        """:meth:`bulk_load` for positional rows this schema has already
        validated, such as the rows of an earlier load: the same pages,
        charges and log record, without checking each row again."""
        self._check_write_fault()
        pages_before = len(self.pages)
        tail_was_open = bool(self.pages) and not self.pages[-1].is_full
        count = 0
        loaded: List[Row] = []
        for row in rows:
            self._place(row)
            if self.wal is not None:
                loaded.append(row)
            count += 1
        if count:
            new_pages = len(self.pages) - pages_before
            touched = new_pages + (1 if tail_was_open else 0)
            self.stats.charge_write(max(1, touched))
            if self.wal is not None:
                self.wal.log_load(self.name, loaded)
        return count

    def read(self, record_id: RecordId) -> Mapping[str, object]:
        """Fetch one tuple by record id (one buffered page access)."""
        page = self._page(record_id[0])
        self.buffer_pool.access(self.name, page)
        row = page.read(record_id[1])
        if row is None:
            raise StorageError(
                f"record {record_id} in {self.name!r} was deleted"
            )
        return self.schema.as_dict(row)

    def peek(self, record_id: RecordId) -> Mapping[str, object]:
        """One tuple by record id, charging nothing and bypassing the
        buffer pool: for a caller about to :meth:`update` the tuple,
        whose ``t_update`` already charges reading it."""
        row = self._page(record_id[0]).read(record_id[1])
        if row is None:
            raise StorageError(
                f"record {record_id} in {self.name!r} was deleted"
            )
        return self.schema.as_dict(row)

    def update(self, record_id: RecordId, values: Mapping[str, object]) -> None:
        """Overwrite one tuple in place — the QUEL REPLACE operation.

        Charges one ``t_update`` (the paper's read-tuple + write-tuple
        unit), not a whole-block read/write pair.
        """
        self._check_write_fault()
        row = self.schema.validate(values)
        page = self._page(record_id[0])
        page.update(record_id[1], row)
        self.stats.charge_update()
        if self.wal is not None:
            self.wal.log_update(self.name, record_id, row)

    def delete(self, record_id: RecordId) -> None:
        """Tombstone one tuple (charged as an update)."""
        self._check_write_fault()
        page = self._page(record_id[0])
        page.delete(record_id[1])
        self._tuple_count -= 1
        self.stats.charge_update()
        if self.wal is not None:
            self.wal.log_delete(self.name, record_id)

    def truncate(self) -> None:
        """Drop all tuples (the model's D_t fixed charge)."""
        self.pages.clear()
        self._tuple_count = 0
        self.buffer_pool.invalidate(self.name)
        self.stats.charge_delete()
        if self.wal is not None:
            self.wal.log_truncate(self.name)

    def batch_update(
        self,
        updater: Callable[[Row], Optional[Mapping[str, object]]],
        record_ids: Optional[Iterable[RecordId]] = None,
    ) -> int:
        """Set-oriented update pass over the whole file.

        ``updater`` receives each live tuple as its positional row (read
        fields with :meth:`Schema.position`) and returns the replacement
        values as a mapping, or None to leave the tuple untouched; every
        replacement is validated against the schema. Charges one read
        per page scanned and ``2 * t_update`` per *modified page* — the
        block-level batch-REPLACE cost the paper's Table 2 charges as
        C7 = 2 * B_r * t_update, an order cheaper than per-tuple keyed
        replaces and the reason the Iterative algorithm's waves are
        cheap despite touching many labels.

        A caller that knows which rows it may change passes their
        ``record_ids``: every page is still read and charged, in order,
        but ``updater`` sees only those rows, in (page, slot) order.

        Returns the number of tuples modified.
        """
        slots_of: Optional[Dict[int, List[int]]] = None
        if record_ids is not None:
            slots_of = {}
            for page_no, slot in sorted(set(record_ids)):
                slots_of.setdefault(page_no, []).append(slot)
        modified = 0
        journal: List[Tuple[RecordId, Row]] = []
        for page in self.scan_pages():
            page_modified = False
            rows = page.slots
            # In-place overwrites keep the slot list's length, so each
            # slot is read before it is replaced.
            for slot in (
                range(len(rows)) if slots_of is None
                else slots_of.get(page.page_no, ())
            ):
                row = rows[slot]
                if row is None:
                    continue
                new_values = updater(row)
                if new_values is not None:
                    new_row = self.schema.validate(new_values)
                    page.update(slot, new_row)
                    page_modified = True
                    modified += 1
                    if self.wal is not None:
                        journal.append(((page.page_no, slot), new_row))
            if page_modified:
                self.stats.charge_update(2)
        if self.wal is not None and journal:
            self.wal.log_batch(self.name, journal)
        return modified

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def scan_pages(self) -> Iterator[Page]:
        """Full pass: reads every allocated page through the pool.

        This is the heap's one page loop: each allocated page, in
        order, is one buffered access, charged before the page is
        yielded, whatever the caller then reads of it. A caller that
        already knows which rows it needs pays the paper's full scan
        here and reads only those rows.
        """
        for page in self.pages:
            self.buffer_pool.access(self.name, page)
            yield page

    def scan_rows(self) -> Iterator[Tuple[RecordId, Row]]:
        """Full scan yielding ``(record_id, row)`` in (page, slot) order.

        Rows are positional; read fields with :meth:`Schema.position`.
        Pages are charged by :meth:`scan_pages`.
        """
        for page in self.scan_pages():
            page_no = page.page_no
            for slot, row in enumerate(page.slots):
                if row is not None:
                    yield (page_no, slot), row

    def scan(self) -> Iterator[Tuple[RecordId, Mapping[str, object]]]:
        """Full scan yielding field-name mappings (see :meth:`scan_rows`)."""
        as_dict = self.schema.as_dict
        for record_id, row in self.scan_rows():
            yield record_id, as_dict(row)

    def scan_filter(
        self, predicate: Callable[[Mapping[str, object]], bool]
    ) -> Iterator[Tuple[RecordId, Mapping[str, object]]]:
        """Full scan keeping tuples that satisfy ``predicate``."""
        for record_id, values in self.scan():
            if predicate(values):
                yield record_id, values

    def _page(self, page_no: int) -> Page:
        if not 0 <= page_no < len(self.pages):
            raise StorageError(
                f"{self.name!r} has no page {page_no} "
                f"({len(self.pages)} pages)"
            )
        return self.pages[page_no]

    def __len__(self) -> int:
        return self._tuple_count

    def __repr__(self) -> str:
        return (
            f"HeapFile({self.name!r}, tuples={self._tuple_count}, "
            f"blocks={self.block_count}, bf={self.blocking_factor})"
        )
