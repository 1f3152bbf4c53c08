"""The join optimizer — the paper's F(B1, B2, B3) chooser.

"The function uses the input parameters to choose the cheapest join
strategy from among four viable choices: (1) Hash Join, (2) Nested-Loop
Join, (3) Sort-Merge Join, and (4) Primary Key Join."

:func:`choose_strategy` evaluates each strategy's algebraic cost on the
given block counts and returns the cheapest applicable one;
:func:`execute_join` runs it and returns both the joined tuples and the
plan that was picked (for EXPLAIN-style traces and the ablation
benchmarks). A plan is a pure function of F's inputs, the candidates
and the unit rates, so a caller that joins repeatedly passes a memo of
the plans already chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.query.joins import (
    ALL_STRATEGIES,
    HashJoin,
    JoinCostInputs,
    JoinStrategy,
    NestedLoopJoin,
    PrimaryKeyJoin,
    SortMergeJoin,
    make_inputs,
)
from repro.storage.iostats import IOStatistics
from repro.storage.relation import Relation

#: Plans a join memo holds before it is emptied and refilled.
PLAN_MEMO_LIMIT = 4096


@dataclass
class JoinPlan:
    """The optimizer's decision record."""

    strategy: Type[JoinStrategy]
    inputs: JoinCostInputs
    estimated_cost: float
    alternatives: Dict[str, float]

    @property
    def strategy_name(self) -> str:
        return self.strategy.name


def applicable_strategies(
    inner: Relation, inner_key: str
) -> Tuple[Type[JoinStrategy], ...]:
    """Strategies that can run on this inner relation.

    Primary-key join requires the inner's hash index on the join key;
    the other three always apply.
    """
    strategies: List[Type[JoinStrategy]] = [NestedLoopJoin, HashJoin, SortMergeJoin]
    if inner.hash_index is not None and inner.hash_index.key_field == inner_key:
        strategies.append(PrimaryKeyJoin)
    return tuple(strategies)


def choose_strategy(
    inputs: JoinCostInputs,
    stats: IOStatistics,
    candidates: Sequence[Type[JoinStrategy]] = ALL_STRATEGIES,
) -> JoinPlan:
    """Evaluate F over the candidates and pick the cheapest.

    Ties resolve in the candidate order given (deterministic plans).
    """
    if not candidates:
        raise ValueError("at least one candidate strategy is required")
    costs = {
        strategy.name: strategy.estimated_cost(inputs, stats)
        for strategy in candidates
    }
    best = min(candidates, key=lambda s: costs[s.name])
    return JoinPlan(
        strategy=best,
        inputs=inputs,
        estimated_cost=costs[best.name],
        alternatives=costs,
    )


def execute_join(
    outer: Sequence[Mapping[str, object]],
    outer_key: str,
    outer_blocking_factor: int,
    inner: Relation,
    inner_key: str,
    expected_result_tuples: int,
    result_blocking_factor: int,
    stats: IOStatistics,
    forced_strategy: Optional[Type[JoinStrategy]] = None,
    plans: Optional[Dict[tuple, JoinPlan]] = None,
) -> Tuple[List[Dict[str, object]], JoinPlan]:
    """Optimize and execute one equi-join; return (tuples, plan).

    ``forced_strategy`` bypasses the optimizer — used by the ablation
    benchmarks that compare plans the optimizer would not pick.
    ``plans``, a memo owned by the caller, reuses the plan chosen for
    equal inputs, candidates and rates; it holds at most
    :data:`PLAN_MEMO_LIMIT` plans.
    """
    inputs = make_inputs(
        outer,
        outer_blocking_factor,
        inner,
        expected_result_tuples,
        result_blocking_factor,
    )
    if forced_strategy is not None:
        plan = JoinPlan(
            strategy=forced_strategy,
            inputs=inputs,
            estimated_cost=forced_strategy.estimated_cost(inputs, stats),
            alternatives={
                forced_strategy.name: forced_strategy.estimated_cost(inputs, stats)
            },
        )
    else:
        candidates = applicable_strategies(inner, inner_key)
        if plans is None:
            plan = choose_strategy(inputs, stats, candidates)
        else:
            key = (inputs, candidates, stats.t_read, stats.t_write, stats.t_update)
            plan = plans.get(key)
            if plan is None:
                if len(plans) >= PLAN_MEMO_LIMIT:
                    plans.clear()
                plan = plans[key] = choose_strategy(inputs, stats, candidates)
    rows = plan.strategy().execute(
        outer, outer_key, inner, inner_key, inputs, stats
    )
    return rows, plan
