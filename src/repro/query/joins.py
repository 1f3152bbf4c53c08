"""Join strategies and their algebraic costs.

The paper's optimizer simulation "was able to choose between several
Select and Join strategies"; its join function ``F(B1, B2, B3)`` picks
the cheapest of four plans given the block counts of the two inputs and
of the result:

1. **Nested-loop join** — for every block of the outer, scan the inner:
   ``B1*t_read + B1*B2*t_read + B3*t_write`` (the paper's Section 4.3
   example instantiates exactly this formula);
2. **Hash join** — read both inputs once, build a hash table on the
   smaller: ``(B1 + B2)*t_read + B3*t_write``;
3. **Sort-merge join** — sort both then merge:
   ``(B1*log B1 + B2*log B2)*t_update + (B1 + B2)*t_read + B3*t_write``;
4. **Primary-key join** — probe the inner's primary index once per
   outer *tuple*: ``B1*t_read + |outer| * (probe + data reads) + B3*t_write``.

In this engine the outer input is always a small materialised set of
"current node" tuples (one tuple for Dijkstra/A*, a frontier wave for
Iterative) and the inner is the edge relation S, so the primary-key
join through S's hash index usually wins — but every strategy is fully
implemented and the optimizer really compares their costs.

Hash and nested-loop joins charge the inner's full pass (per outer
block for nested loops) whatever they read. When the inner has a hash
index on the join key they read only the rows the index locates for
the outer keys, in (page, slot) order, the rows a full scan would have
matched; without one they read every row of the pass.

All strategies produce identical results (equi-join on
``left_key = right_key``, merged field dicts, right-relation fields
winning name clashes are prefixed by the caller's schema if needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.exceptions import QueryError
from repro.storage.iostats import IOStatistics
from repro.storage.page import Row, blocks_for
from repro.storage.relation import Relation


@dataclass(frozen=True)
class JoinCostInputs:
    """Block counts feeding F(B1, B2, B3), plus outer tuple count."""

    outer_blocks: int
    inner_blocks: int
    result_blocks: int
    outer_tuples: int

    def __post_init__(self) -> None:
        if min(self.outer_blocks, self.inner_blocks, self.result_blocks) < 0:
            raise QueryError("block counts must be non-negative")
        if self.outer_tuples < 0:
            raise QueryError("tuple counts must be non-negative")


def _merge(left: Mapping[str, object], right: Mapping[str, object]) -> Dict[str, object]:
    merged = dict(left)
    for key, value in right.items():
        if key in merged:
            merged[f"inner.{key}"] = value
        else:
            merged[key] = value
    return merged


def _inner_rows(inner: Relation, inner_key: str, keys: Iterable[object]) -> Iterator[Row]:
    """One full pass over the inner, yielding rows in (page, slot) order.

    Every page is charged, by :meth:`HeapFile.scan_pages`, whatever the
    pass yields. With a hash index on the join key the pass yields only
    the rows whose key equals one of ``keys``, located through the
    index without a charge; without one it yields every row.
    """
    index = inner.hash_index
    if index is None or index.key_field != inner_key:
        for _rid, row in inner.heap.scan_rows():
            yield row
        return
    located = index.locate(keys)
    for _page in inner.heap.scan_pages():
        pass
    pages = inner.heap.pages
    for page_no, slot in located:
        row = pages[page_no].slots[slot]
        if row is not None:
            yield row


class JoinStrategy:
    """Base join strategy. Subclasses implement cost and execution."""

    name = "abstract"

    @staticmethod
    def estimated_cost(inputs: JoinCostInputs, stats: IOStatistics) -> float:
        raise NotImplementedError

    def execute(
        self,
        outer: Sequence[Mapping[str, object]],
        outer_key: str,
        inner: Relation,
        inner_key: str,
        inputs: JoinCostInputs,
        stats: IOStatistics,
    ) -> List[Dict[str, object]]:
        raise NotImplementedError


class NestedLoopJoin(JoinStrategy):
    """Block nested loops: rescan the inner per outer block."""

    name = "nested-loop"

    @staticmethod
    def estimated_cost(inputs: JoinCostInputs, stats: IOStatistics) -> float:
        return (
            inputs.outer_blocks * stats.t_read
            + inputs.outer_blocks * inputs.inner_blocks * stats.t_read
            + inputs.result_blocks * stats.t_write
        )

    def execute(self, outer, outer_key, inner, inner_key, inputs, stats):
        stats.charge_read(inputs.outer_blocks)
        key = inner.schema.position(inner_key)
        as_dict = inner.schema.as_dict
        result: List[Dict[str, object]] = []
        outer_block_count = max(1, inputs.outer_blocks)
        per_block = max(1, -(-len(outer) // outer_block_count))
        for start in range(0, max(len(outer), 1), per_block):
            chunk = outer[start : start + per_block]
            if not chunk and start > 0:
                break
            # The block's tuples by key, in outer order: each inner row
            # meets its matches with one lookup instead of a comparison
            # with every outer tuple.
            block: Dict[object, List[Mapping[str, object]]] = {}
            for outer_values in chunk:
                block.setdefault(outer_values[outer_key], []).append(outer_values)
            # One full pass over the inner per outer block.
            for row in _inner_rows(inner, inner_key, block):
                matches = block.get(row[key])
                if matches:
                    inner_values = as_dict(row)
                    for outer_values in matches:
                        result.append(_merge(outer_values, inner_values))
        stats.charge_write(inputs.result_blocks)
        return result


class HashJoin(JoinStrategy):
    """Classic hash join: build on the outer, probe with the inner."""

    name = "hash"

    @staticmethod
    def estimated_cost(inputs: JoinCostInputs, stats: IOStatistics) -> float:
        return (
            (inputs.outer_blocks + inputs.inner_blocks) * stats.t_read
            + inputs.result_blocks * stats.t_write
        )

    def execute(self, outer, outer_key, inner, inner_key, inputs, stats):
        stats.charge_read(inputs.outer_blocks)
        table: Dict[object, List[Mapping[str, object]]] = {}
        for outer_values in outer:
            table.setdefault(outer_values[outer_key], []).append(outer_values)
        key = inner.schema.position(inner_key)
        result: List[Dict[str, object]] = []
        for row in _inner_rows(inner, inner_key, table):
            matches = table.get(row[key])
            if matches:
                inner_values = inner.schema.as_dict(row)
                for outer_values in matches:
                    result.append(_merge(outer_values, inner_values))
        stats.charge_write(inputs.result_blocks)
        return result


class SortMergeJoin(JoinStrategy):
    """Sort both inputs on the join key, then merge."""

    name = "sort-merge"

    @staticmethod
    def estimated_cost(inputs: JoinCostInputs, stats: IOStatistics) -> float:
        def sort_cost(blocks: int) -> float:
            if blocks <= 1:
                return 0.0
            return blocks * math.log2(blocks) * stats.t_update

        return (
            sort_cost(inputs.outer_blocks)
            + sort_cost(inputs.inner_blocks)
            + (inputs.outer_blocks + inputs.inner_blocks) * stats.t_read
            + inputs.result_blocks * stats.t_write
        )

    @staticmethod
    def _sort_charge(blocks: int, stats: IOStatistics) -> None:
        if blocks > 1:
            stats.charge_update(int(round(blocks * math.log2(blocks))))

    def execute(self, outer, outer_key, inner, inner_key, inputs, stats):
        self._sort_charge(inputs.outer_blocks, stats)
        self._sort_charge(inputs.inner_blocks, stats)
        stats.charge_read(inputs.outer_blocks)
        key = inner.schema.position(inner_key)
        outer_sorted = sorted(outer, key=lambda t: repr(t[outer_key]))
        inner_sorted = sorted(
            (row for _rid, row in inner.heap.scan_rows()),
            key=lambda row: repr(row[key]),
        )
        result: List[Dict[str, object]] = []
        i = j = 0
        while i < len(outer_sorted) and j < len(inner_sorted):
            left_key = repr(outer_sorted[i][outer_key])
            right_key = repr(inner_sorted[j][key])
            if left_key < right_key:
                i += 1
            elif left_key > right_key:
                j += 1
            else:
                # Gather the full run of equal keys on both sides.
                i_end = i
                while (
                    i_end < len(outer_sorted)
                    and repr(outer_sorted[i_end][outer_key]) == left_key
                ):
                    i_end += 1
                j_end = j
                while (
                    j_end < len(inner_sorted)
                    and repr(inner_sorted[j_end][key]) == left_key
                ):
                    j_end += 1
                inner_run = [inner.schema.as_dict(row) for row in inner_sorted[j:j_end]]
                for oi in range(i, i_end):
                    for inner_values in inner_run:
                        result.append(_merge(outer_sorted[oi], inner_values))
                i, j = i_end, j_end
        stats.charge_write(inputs.result_blocks)
        return result


class PrimaryKeyJoin(JoinStrategy):
    """Index nested loops through the inner's primary (hash) index."""

    name = "primary-key"

    #: Average charge per probe: one bucket page + one data page.
    PROBE_COST_BLOCKS = 2

    @classmethod
    def estimated_cost(cls, inputs: JoinCostInputs, stats: IOStatistics) -> float:
        return (
            inputs.outer_blocks * stats.t_read
            + inputs.outer_tuples * cls.PROBE_COST_BLOCKS * stats.t_read
            + inputs.result_blocks * stats.t_write
        )

    def execute(self, outer, outer_key, inner, inner_key, inputs, stats):
        if inner.hash_index is None or inner.hash_index.key_field != inner_key:
            raise QueryError(
                f"primary-key join needs a hash index on "
                f"{inner.name!r}.{inner_key}"
            )
        stats.charge_read(inputs.outer_blocks)
        result: List[Dict[str, object]] = []
        for outer_values in outer:
            # fetch_all charges bucket reads + data-page reads itself.
            for inner_values in inner.hash_index.fetch_all(outer_values[outer_key]):
                result.append(_merge(outer_values, inner_values))
        stats.charge_write(inputs.result_blocks)
        return result


ALL_STRATEGIES = (NestedLoopJoin, HashJoin, SortMergeJoin, PrimaryKeyJoin)


def make_inputs(
    outer: Sequence[Mapping[str, object]],
    outer_blocking_factor: int,
    inner: Relation,
    expected_result_tuples: int,
    result_blocking_factor: int,
) -> JoinCostInputs:
    """Assemble F's inputs from live sizes.

    ``result_blocking_factor`` is the paper's Bf_rs (result tuples are
    outer+inner concatenations); ``expected_result_tuples`` comes from
    the optimizer's join-selectivity estimate.
    """
    return JoinCostInputs(
        outer_blocks=blocks_for(len(outer), outer_blocking_factor),
        inner_blocks=inner.block_count,
        result_blocks=blocks_for(expected_result_tuples, result_blocking_factor),
        outer_tuples=len(outer),
    )
