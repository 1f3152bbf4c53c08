"""Tests for the four join strategies and the optimizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError
from repro.query.joins import (
    ALL_STRATEGIES,
    HashJoin,
    JoinCostInputs,
    NestedLoopJoin,
    PrimaryKeyJoin,
    SortMergeJoin,
    make_inputs,
)
from repro.query import optimizer
from repro.query.optimizer import (
    applicable_strategies,
    choose_strategy,
    execute_join,
)
from repro.storage.database import Database
from repro.storage.iostats import IOStatistics
from repro.storage.schema import ANY, FLOAT, Field, Schema


def make_edge_relation(edges, with_hash=True, **database_options):
    db = Database(**database_options)
    schema = Schema(
        "s",
        [Field("begin", ANY, 12), Field("end", ANY, 12), Field("cost", FLOAT, 8)],
    )
    relation = db.create_relation(schema)
    relation.bulk_load(
        {"begin": u, "end": v, "cost": c} for u, v, c in edges
    )
    if with_hash:
        relation.create_hash_index("begin")
    return relation, db.stats


EDGES = [(u, (u + d) % 8, float(d)) for u in range(8) for d in (1, 2)]
OUTER = [{"node_id": 2, "g": 0.0}, {"node_id": 5, "g": 1.0}]


def expected_join_pairs(outer, edges):
    result = []
    for row in outer:
        for u, v, c in edges:
            if u == row["node_id"]:
                result.append((row["node_id"], v, c))
    return sorted(result)


def run_strategy(strategy_cls, with_hash=True):
    relation, stats = make_edge_relation(EDGES, with_hash=with_hash)
    inputs = make_inputs(OUTER, 256, relation, 4, 86)
    rows = strategy_cls().execute(OUTER, "node_id", relation, "begin", inputs, stats)
    return rows, stats


class TestStrategyEquivalence:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_all_strategies_produce_identical_results(self, strategy):
        rows, _stats = run_strategy(strategy)
        pairs = sorted((r["node_id"], r["end"], r["cost"]) for r in rows)
        assert pairs == expected_join_pairs(OUTER, EDGES)

    def test_merged_tuples_contain_both_sides(self):
        rows, _ = run_strategy(HashJoin)
        row = rows[0]
        assert {"node_id", "g", "begin", "end", "cost"} <= set(row)

    def test_name_clash_prefixed(self):
        relation, stats = make_edge_relation([(1, 2, 1.0)])
        outer = [{"begin": 1, "mine": True}]  # clashes with S.begin
        inputs = make_inputs(outer, 256, relation, 1, 86)
        rows = HashJoin().execute(outer, "begin", relation, "begin", inputs, stats)
        assert rows[0]["begin"] == 1
        assert rows[0]["inner.begin"] == 1

    def test_primary_key_requires_hash_index(self):
        relation, stats = make_edge_relation(EDGES, with_hash=False)
        inputs = make_inputs(OUTER, 256, relation, 4, 86)
        with pytest.raises(QueryError):
            PrimaryKeyJoin().execute(
                OUTER, "node_id", relation, "begin", inputs, stats
            )

    def test_empty_outer(self):
        relation, stats = make_edge_relation(EDGES)
        inputs = make_inputs([], 256, relation, 0, 86)
        for strategy in (NestedLoopJoin, HashJoin, SortMergeJoin):
            assert strategy().execute([], "node_id", relation, "begin", inputs, stats) == []


    def test_nested_loop_keeps_block_scan_order_and_charges(self):
        """Several outer blocks, duplicate outer keys within and across
        blocks, an inner whose keys interleave: the join returns the
        rows of a comparison of every inner row with every outer tuple,
        in its order (per outer block, inner scan order, then outer
        order), and charges the same reads and writes."""
        edges = [(u, (3 * u + d) % 8, float(d)) for d in (1, 2, 3) for u in range(8)]
        outer = [
            {"node_id": key, "g": float(i)}
            for i, key in enumerate([3, 3, 1, 6, 1, 3, 0])
        ]

        def nested_comparison(relation, inputs, stats):
            stats.charge_read(inputs.outer_blocks)
            key = relation.schema.position("begin")
            per_block = -(-len(outer) // inputs.outer_blocks)
            result = []
            for start in range(0, len(outer), per_block):
                for _rid, row in relation.heap.scan_rows():
                    for values in outer[start : start + per_block]:
                        if values["node_id"] == row[key]:
                            result.append(
                                (values["g"], *relation.schema.as_dict(row).values())
                            )
            stats.charge_write(inputs.result_blocks)
            return result

        relation, stats = make_edge_relation(edges, with_hash=False, block_size=256)
        inputs = make_inputs(outer, 2, relation, 21, 86)  # 4 outer blocks
        assert inputs.outer_blocks == 4 and relation.block_count == 3
        rows = NestedLoopJoin().execute(
            outer, "node_id", relation, "begin", inputs, stats
        )
        reference_relation, reference_stats = make_edge_relation(
            edges, with_hash=False, block_size=256
        )
        expected = nested_comparison(reference_relation, inputs, reference_stats)
        assert len(expected) == 21
        assert [
            (row["g"], row["begin"], row["end"], row["cost"]) for row in rows
        ] == expected
        assert stats.snapshot() == reference_stats.snapshot()
        assert stats.block_reads == 4 + 4 * relation.block_count


class TestCosts:
    def test_nested_loop_cost_formula(self):
        stats = IOStatistics()
        inputs = JoinCostInputs(2, 10, 1, 300)
        expected = 2 * 0.035 + 2 * 10 * 0.035 + 1 * 0.05
        assert NestedLoopJoin.estimated_cost(inputs, stats) == pytest.approx(expected)

    def test_hash_cost_formula(self):
        stats = IOStatistics()
        inputs = JoinCostInputs(2, 10, 1, 300)
        assert HashJoin.estimated_cost(inputs, stats) == pytest.approx(
            12 * 0.035 + 0.05
        )

    def test_primary_key_cost_scales_with_outer_tuples(self):
        stats = IOStatistics()
        small = JoinCostInputs(1, 10, 1, 1)
        large = JoinCostInputs(1, 10, 1, 100)
        assert PrimaryKeyJoin.estimated_cost(
            small, stats
        ) < PrimaryKeyJoin.estimated_cost(large, stats)

    def test_negative_blocks_rejected(self):
        with pytest.raises(QueryError):
            JoinCostInputs(-1, 0, 0, 0)


class TestOptimizer:
    def test_single_tuple_outer_prefers_primary_key(self):
        stats = IOStatistics()
        inputs = JoinCostInputs(1, 28, 1, 1)
        plan = choose_strategy(inputs, stats)
        assert plan.strategy_name == "primary-key"

    def test_large_outer_avoids_primary_key(self):
        stats = IOStatistics()
        inputs = JoinCostInputs(4, 28, 5, 1000)
        plan = choose_strategy(inputs, stats)
        assert plan.strategy_name == "hash"

    def test_alternatives_recorded(self):
        stats = IOStatistics()
        plan = choose_strategy(JoinCostInputs(1, 5, 1, 1), stats)
        assert set(plan.alternatives) == {
            "nested-loop", "hash", "sort-merge", "primary-key",
        }
        assert plan.estimated_cost == min(plan.alternatives.values())

    def test_applicable_strategies_without_hash_index(self):
        relation, _stats = make_edge_relation(EDGES, with_hash=False)
        names = {s.name for s in applicable_strategies(relation, "begin")}
        assert "primary-key" not in names

    def test_execute_join_end_to_end(self):
        relation, stats = make_edge_relation(EDGES)
        rows, plan = execute_join(
            OUTER, "node_id", 256, relation, "begin", 4, 86, stats
        )
        pairs = sorted((r["node_id"], r["end"], r["cost"]) for r in rows)
        assert pairs == expected_join_pairs(OUTER, EDGES)
        assert plan.strategy_name in plan.alternatives

    def test_plan_memo_reuses_plans_for_equal_inputs_and_rates(self):
        relation, stats = make_edge_relation(EDGES)
        plans = {}
        first = execute_join(OUTER, "node_id", 256, relation, "begin", 4, 86, stats, plans=plans)
        again = execute_join(OUTER, "node_id", 256, relation, "begin", 4, 86, stats, plans=plans)
        bare = execute_join(OUTER, "node_id", 256, relation, "begin", 4, 86, stats)
        assert again[1] is first[1] and len(plans) == 1
        assert again[1] == bare[1] and again[0] == bare[0]
        # Another rate is another plan: a memo outlives no rate change.
        stats.t_read = 0.5
        dear = execute_join(OUTER, "node_id", 256, relation, "begin", 4, 86, stats, plans=plans)
        assert dear[1] is not first[1] and len(plans) == 2
        assert dear[1] == choose_strategy(dear[1].inputs, stats, applicable_strategies(relation, "begin"))

    def test_plan_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(optimizer, "PLAN_MEMO_LIMIT", 2)
        relation, stats = make_edge_relation(EDGES)
        plans = {}
        for size in (1, 2, 3):
            outer = [{"node_id": n, "g": 0.0} for n in range(size)]
            execute_join(outer, "node_id", 1, relation, "begin", 4, 86, stats, plans=plans)
            assert len(plans) <= 2
        assert len(plans) == 1

    def test_forced_strategy(self):
        relation, stats = make_edge_relation(EDGES)
        rows, plan = execute_join(
            OUTER, "node_id", 256, relation, "begin", 4, 86, stats,
            forced_strategy=SortMergeJoin,
        )
        assert plan.strategy_name == "sort-merge"
        assert len(rows) == 4

    def test_no_candidates_rejected(self):
        stats = IOStatistics()
        with pytest.raises(ValueError):
            choose_strategy(JoinCostInputs(1, 1, 1, 1), stats, candidates=())


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 6), st.integers(0, 6),
            st.floats(0.1, 9.9, allow_nan=False),
        ),
        max_size=25,
    ),
    outer_keys=st.lists(st.integers(0, 6), max_size=5),
)
def test_property_strategies_agree(edges, outer_keys):
    """All four strategies return the same multiset on random inputs."""
    relation, stats = make_edge_relation(edges)
    outer = [{"node_id": k, "tag": i} for i, k in enumerate(outer_keys)]
    inputs = make_inputs(outer, 256, relation, max(1, len(edges)), 86)
    results = []
    for strategy in ALL_STRATEGIES:
        rows = strategy().execute(outer, "node_id", relation, "begin", inputs, stats)
        results.append(
            sorted((r["tag"], r["end"], r["cost"]) for r in rows)
        )
    assert all(result == results[0] for result in results)
