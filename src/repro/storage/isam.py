"""ISAM index: static multi-level index on a heap file's key field.

The paper's node relation R "has a primary index (ISAM) on node-id"
with index level ``I_l`` (3 in Table 4A). Probing descends one page per
level, then touches the data page — so a keyed lookup charges
``I_l`` index-page reads plus the data-page access, and a keyed update
charges the same traversal plus one ``t_update``, exactly the
``(I_l + S_r) * t_update``-style terms the cost tables use.

ISAM is *static*: it is built once over the sorted keys and later
insertions land in per-leaf overflow lists (each probe that spills into
an overflow list charges one extra read). Nothing moves a built key, so
the build records where each one resolves and a probe for it charges
the same ``I_l`` reads without walking the levels again.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import lt
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import IndexError_
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.iostats import IOStatistics

#: Index entries per index page. Chosen so a 900-key relation gets the
#: Table 4A index depth (I_l = 3) : 900 keys -> 90 leaf pages -> 9 -> 1.
DEFAULT_FANOUT = 10


class ISAMIndex:
    """Static multi-level index mapping unique keys to record ids."""

    def __init__(
        self,
        heap: HeapFile,
        key_field: str,
        stats: IOStatistics,
        fanout: int = DEFAULT_FANOUT,
        injector: Optional[object] = None,
    ) -> None:
        if fanout < 2:
            raise IndexError_("ISAM fanout must be at least 2")
        self.heap = heap
        self.key_field = key_field
        self.stats = stats
        self.fanout = fanout
        self.injector = injector
        # Each level is a list of pages; a page is a list of keys. Level 0
        # is the leaf level, whose parallel list carries the record ids.
        self._levels: List[List[List[object]]] = []
        self._leaf_rids: List[List[RecordId]] = []
        self._overflow: Dict[int, List[Tuple[object, RecordId]]] = {}
        #: Built key -> the record id a walk and leaf scan resolve it to.
        self._resolved: Dict[object, RecordId] = {}
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Scan the heap and build the static index over current keys."""
        key = self.heap.schema.position(self.key_field)
        entries: List[Tuple[object, RecordId]] = [
            (row[key], record_id) for record_id, row in self.heap.scan_rows()
        ]
        entries.sort(key=lambda pair: pair[0])
        keys = [k for k, _ in entries]
        if len(set(map(repr, keys))) != len(keys):
            raise IndexError_(
                f"ISAM on {self.heap.name!r}.{self.key_field} requires "
                "unique keys"
            )
        # Leaf level.
        leaf_keys: List[List[object]] = []
        leaf_rids: List[List[RecordId]] = []
        for start in range(0, len(entries), self.fanout):
            chunk = entries[start : start + self.fanout]
            leaf_keys.append([k for k, _ in chunk])
            leaf_rids.append([r for _, r in chunk])
        if not leaf_keys:
            leaf_keys, leaf_rids = [[]], [[]]
        levels = [leaf_keys]
        # Interior levels: first key of each child page.
        while len(levels[-1]) > 1:
            children = levels[-1]
            parent: List[List[object]] = []
            for start in range(0, len(children), self.fanout):
                parent.append([page[0] for page in children[start : start + self.fanout] if page])
            levels.append(parent)
        self._levels = levels
        self._leaf_rids = leaf_rids
        self._overflow = {}
        self._resolved = {}
        # When the sorted keys strictly increase, each key's walk ends
        # at the leaf it was filed in, whose scan finds the key itself.
        # Otherwise (NaN, keys equal with distinct reprs such as 1 and
        # 1.0, unhashable keys) every probe walks.
        if all(map(lt, keys, keys[1:])):
            try:
                self._resolved = {k: rid for k, rid in entries if k == k}
            except TypeError:
                pass
        self._built = True
        # Building charges: the sort of the data file (the paper's C3 =
        # 2 * (B_r * log(B_r) + B_r) * t_update) plus one write per
        # index page created.
        import math as _math

        data_blocks = max(1, self.heap.blocks_needed())
        sort_updates = int(
            round(2 * (data_blocks * _math.log2(max(2, data_blocks)) + data_blocks))
        )
        self.stats.charge_update(sort_updates)
        self.stats.charge_write(self.page_count)

    @property
    def levels(self) -> int:
        """Index depth I_l: pages read to reach a leaf (>= 1)."""
        self._require_built()
        return len(self._levels)

    @property
    def page_count(self) -> int:
        self._require_built()
        return sum(len(level) for level in self._levels)

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_(
                f"ISAM on {self.heap.name!r}.{self.key_field} not built; "
                "call build() first"
            )

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def _descend(self, key: object) -> int:
        """Walk root -> leaf; charge one read per level; return leaf no."""
        page_no = 0
        for level in reversed(self._levels[1:]):
            self.stats.charge_read()
            page = level[page_no]
            child = bisect_right(page, key) - 1
            child = max(child, 0)
            page_no = page_no * self.fanout + child
        self.stats.charge_read()  # the leaf page itself
        return min(page_no, len(self._levels[0]) - 1)

    def probe(self, key: object) -> Optional[RecordId]:
        """Find the record id for ``key`` (None if absent)."""
        self._require_built()
        if self.injector is not None:
            # Consulted before the descent charges anything, so a
            # faulted probe charges no index-page reads.
            self.injector.on_read(f"isam:{self.heap.name}")
        try:
            rid = self._resolved.get(key)
        except TypeError:  # unhashable: the walk decides
            rid = None
        if rid is not None:
            self.stats.charge_reads(len(self._levels))  # the descent's I_l
            return rid
        leaf_no = self._descend(key)
        keys = self._levels[0][leaf_no]
        for i, k in enumerate(keys):
            if k == key:
                return self._leaf_rids[leaf_no][i]
        spill = self._overflow.get(leaf_no)
        if spill:
            self.stats.charge_read()
            for k, rid in spill:
                if k == key:
                    return rid
        return None

    def fetch(self, key: object) -> Optional[dict]:
        """Probe and read the tuple itself (index reads + data access)."""
        rid = self.probe(key)
        if rid is None:
            return None
        return self.heap.read(rid)

    def insert(self, key: object, record_id: RecordId) -> None:
        """Post-build insertion into the overflow area of the leaf."""
        self._require_built()
        leaf_no = self._descend(key)
        existing = self.probe(key)
        if existing is not None:
            raise IndexError_(
                f"duplicate key {key!r} in ISAM on {self.heap.name!r}"
            )
        self._overflow.setdefault(leaf_no, []).append((key, record_id))
        self.stats.charge_write()

    def verify(self) -> bool:
        """Audit the index against the heap (no I/O charge: a sweep).

        Checks, raising :class:`IndexError_` on the first violation:

        * every index entry (leaf or overflow) resolves to a live heap
          tuple whose key field matches the entry's key;
        * no key is indexed twice;
        * leaf keys are in sorted order within and across leaf pages;
        * every live heap tuple's key is indexed, pointing back at it.

        The crash matrix runs this after every recovery; it is an
        integrity audit, not a storage operation, so nothing is billed.
        """
        self._require_built()
        entries: List[Tuple[object, RecordId]] = []
        previous_key = None
        for leaf_no, (keys, rids) in enumerate(
            zip(self._levels[0], self._leaf_rids)
        ):
            for key, rid in zip(keys, rids):
                if previous_key is not None and not (previous_key < key):
                    raise IndexError_(
                        f"ISAM on {self.heap.name!r}: leaf {leaf_no} key "
                        f"{key!r} out of order after {previous_key!r}"
                    )
                previous_key = key
                entries.append((key, rid))
        for spill in self._overflow.values():
            entries.extend(spill)
        seen: Dict[str, RecordId] = {}
        for key, rid in entries:
            marker = repr(key)
            if marker in seen:
                raise IndexError_(
                    f"ISAM on {self.heap.name!r}: key {key!r} indexed twice"
                )
            seen[marker] = rid
        heap_keys: Dict[str, RecordId] = {}
        key = self.heap.schema.position(self.key_field)
        for page in self.heap.pages:
            for slot, row in page.rows():
                heap_keys[repr(row[key])] = (page.page_no, slot)
        for marker, rid in seen.items():
            if marker not in heap_keys:
                raise IndexError_(
                    f"ISAM on {self.heap.name!r}: entry {marker} points at "
                    "no live tuple"
                )
            if heap_keys[marker] != rid:
                raise IndexError_(
                    f"ISAM on {self.heap.name!r}: entry {marker} points at "
                    f"{rid}, heap has it at {heap_keys[marker]}"
                )
        for marker in heap_keys:
            if marker not in seen:
                raise IndexError_(
                    f"ISAM on {self.heap.name!r}: heap key {marker} is "
                    "not indexed"
                )
        return True

    def keys(self) -> List[object]:
        """All indexed keys in sorted order (no I/O charge: metadata)."""
        self._require_built()
        result: List[object] = []
        for page in self._levels[0]:
            result.extend(page)
        for spill in self._overflow.values():
            result.extend(k for k, _ in spill)
        return result

    def __repr__(self) -> str:
        built = f"levels={len(self._levels)}" if self._built else "unbuilt"
        return f"ISAMIndex({self.heap.name!r}.{self.key_field}, {built})"
