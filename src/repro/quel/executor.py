"""Mini-QUEL execution over the simulated database.

A :class:`QuelSession` holds the range-variable bindings and routes
each parsed statement to the storage/query layers:

* single-variable RETRIEVE uses the selection strategies of
  :mod:`repro.query.select` (index probe when the qualification pins an
  indexed field to a literal, full scan otherwise);
* two-variable RETRIEVE locates an equi-join comparison in the
  qualification and runs it through the cost-based optimizer — the same
  F(B1, B2, B3) machinery the engine's algorithms use;
* REPLACE with a keyed qualification goes through the ISAM index (the
  cheap REPLACE the paper contrasts with APPEND + DELETE);
* all I/O lands on the session database's statistics ledger.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError
from repro.query.optimizer import execute_join
from repro.query.predicates import FieldEquals
from repro.query.select import select as select_rows
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.schema import ANY, Field, Schema
from repro.quel.parser import (
    AppendStmt,
    BinaryOp,
    BoolOp,
    Comparison,
    DeleteStmt,
    Expr,
    FieldRef,
    Literal,
    NotOp,
    Qual,
    RangeStmt,
    ReplaceStmt,
    RetrieveStmt,
    Statement,
    parse_statement,
)


class QuelError(QueryError):
    """Raised for semantic errors (unknown variables, bad joins, ...)."""


Row = Dict[str, object]
Env = Dict[str, Row]

_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _evaluate(expr: Expr, env: Env) -> object:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, FieldRef):
        row = env.get(expr.variable)
        if row is None:
            raise QuelError(f"range variable {expr.variable!r} not in scope")
        if expr.field not in row:
            raise QuelError(
                f"{expr.variable}.{expr.field}: no such field "
                f"(has {sorted(row)})"
            )
        return row[expr.field]
    if isinstance(expr, BinaryOp):
        left = _evaluate(expr.left, env)
        right = _evaluate(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
    raise QuelError(f"cannot evaluate expression {expr!r}")


def _holds(qual: Qual, env: Env) -> bool:
    if isinstance(qual, Comparison):
        left = _evaluate(qual.left, env)
        right = _evaluate(qual.right, env)
        try:
            return _COMPARATORS[qual.op](left, right)
        except TypeError:
            # Mixed-type ordering: only (in)equality is meaningful.
            if qual.op == "=":
                return left == right
            if qual.op == "!=":
                return left != right
            raise QuelError(
                f"cannot order {left!r} against {right!r}"
            ) from None
    if isinstance(qual, BoolOp):
        if qual.op == "and":
            return all(_holds(part, env) for part in qual.parts)
        return any(_holds(part, env) for part in qual.parts)
    if isinstance(qual, NotOp):
        return not _holds(qual.part, env)
    raise QuelError(f"cannot evaluate qualification {qual!r}")


def _variables_in_expr(expr: Expr) -> set:
    if isinstance(expr, FieldRef):
        return {expr.variable}
    if isinstance(expr, BinaryOp):
        return _variables_in_expr(expr.left) | _variables_in_expr(expr.right)
    return set()


def _variables_in_qual(qual: Optional[Qual]) -> set:
    if qual is None:
        return set()
    if isinstance(qual, Comparison):
        return _variables_in_expr(qual.left) | _variables_in_expr(qual.right)
    if isinstance(qual, BoolOp):
        result = set()
        for part in qual.parts:
            result |= _variables_in_qual(part)
        return result
    if isinstance(qual, NotOp):
        return _variables_in_qual(qual.part)
    return set()


def _conjuncts(qual: Optional[Qual]) -> List[Qual]:
    if qual is None:
        return []
    if isinstance(qual, BoolOp) and qual.op == "and":
        result: List[Qual] = []
        for part in qual.parts:
            result.extend(_conjuncts(part))
        return result
    return [qual]


def _check_keys_kept(relation: Relation, old: Row, new: Row) -> None:
    changed = relation.changed_key(old, new)
    if changed is not None:
        raise QuelError(
            f"REPLACE cannot change the {changed} of {relation.name!r}"
        )


class QuelSession:
    """Executes mini-QUEL statements against a database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._ranges: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def execute(self, statement: "str | Statement"):
        """Parse (if needed) and run one statement.

        RANGE returns None; RETRIEVE returns the result rows (and the
        temporary relation name for INTO); APPEND/REPLACE/DELETE return
        the number of tuples affected.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if isinstance(statement, RangeStmt):
            return self._run_range(statement)
        if isinstance(statement, RetrieveStmt):
            return self._run_retrieve(statement)
        if isinstance(statement, AppendStmt):
            return self._run_append(statement)
        if isinstance(statement, ReplaceStmt):
            return self._run_replace(statement)
        if isinstance(statement, DeleteStmt):
            return self._run_delete(statement)
        raise QuelError(f"unsupported statement {statement!r}")

    def execute_script(self, script: str) -> List[object]:
        """Run a newline-separated sequence of statements."""
        results = []
        for line in script.splitlines():
            line = line.strip()
            if not line or line.startswith("--"):
                continue
            results.append(self.execute(line))
        return results

    # ------------------------------------------------------------------
    def _relation_for(self, variable: str) -> Relation:
        try:
            relation_name = self._ranges[variable]
        except KeyError:
            raise QuelError(
                f"no RANGE declared for variable {variable!r}"
            ) from None
        return self.database.relation(relation_name)

    def _run_range(self, statement: RangeStmt) -> None:
        self.database.relation(statement.relation)  # must exist
        self._ranges[statement.variable] = statement.relation
        return None

    # -- RETRIEVE -------------------------------------------------------
    def _run_retrieve(self, statement: RetrieveStmt):
        variables = set()
        for target in statement.targets:
            variables |= _variables_in_expr(target.expr)
        variables |= _variables_in_qual(statement.where)
        if not variables:
            raise QuelError("RETRIEVE must reference at least one variable")
        if len(variables) == 1:
            rows = self._retrieve_single(next(iter(variables)), statement)
        elif len(variables) == 2:
            rows = self._retrieve_join(tuple(sorted(variables)), statement)
        else:
            raise QuelError(
                "RETRIEVE supports at most two range variables, got "
                f"{sorted(variables)}"
            )
        if statement.into:
            name = self._materialize(statement.into, statement.targets, rows)
            return name
        return rows

    def _keyed_literal(
        self, variable: str, qual: Optional[Qual], relation: Relation
    ) -> Optional[Tuple[str, object]]:
        """Find ``variable.field = literal`` over an indexed field."""
        for part in _conjuncts(qual):
            if not isinstance(part, Comparison) or part.op != "=":
                continue
            sides = [part.left, part.right]
            for this, other in (sides, sides[::-1]):
                if (
                    isinstance(this, FieldRef)
                    and this.variable == variable
                    and isinstance(other, Literal)
                ):
                    indexed = (
                        relation.isam is not None
                        and relation.isam.key_field == this.field
                    ) or (
                        relation.hash_index is not None
                        and relation.hash_index.key_field == this.field
                    )
                    if indexed:
                        return (this.field, other.value)
        return None

    def _candidate_rows(
        self, variable: str, qual: Optional[Qual], relation: Relation
    ) -> List[Row]:
        keyed = self._keyed_literal(variable, qual, relation)
        if keyed is not None:
            field_name, value = keyed
            return select_rows(relation, FieldEquals(field_name, value))
        return [dict(values) for _rid, values in relation.scan()]

    def _retrieve_single(self, variable: str, statement: RetrieveStmt) -> List[Row]:
        relation = self._relation_for(variable)
        output: List[Row] = []
        for row in self._candidate_rows(variable, statement.where, relation):
            env = {variable: row}
            if statement.where is None or _holds(statement.where, env):
                output.append(
                    {t.name: _evaluate(t.expr, env) for t in statement.targets}
                )
        return output

    def _join_comparison(
        self, variables: Tuple[str, str], qual: Optional[Qual]
    ) -> Optional[Tuple[FieldRef, FieldRef]]:
        for part in _conjuncts(qual):
            if not isinstance(part, Comparison) or part.op != "=":
                continue
            if isinstance(part.left, FieldRef) and isinstance(part.right, FieldRef):
                if {part.left.variable, part.right.variable} == set(variables):
                    return (part.left, part.right)
        return None

    def _retrieve_join(
        self, variables: Tuple[str, str], statement: RetrieveStmt
    ) -> List[Row]:
        join_fields = self._join_comparison(variables, statement.where)
        if join_fields is None:
            raise QuelError(
                "two-variable RETRIEVE needs an equi-join comparison "
                "(v1.f = v2.g) in the qualification"
            )
        left_ref, right_ref = join_fields
        # The inner (indexed) side is whichever has a hash index on the
        # join field; otherwise an arbitrary but deterministic choice.
        left_relation = self._relation_for(left_ref.variable)
        right_relation = self._relation_for(right_ref.variable)
        inner_ref, outer_ref = right_ref, left_ref
        inner_relation, outer_relation = right_relation, left_relation
        if (
            left_relation.hash_index is not None
            and left_relation.hash_index.key_field == left_ref.field
        ):
            inner_ref, outer_ref = left_ref, right_ref
            inner_relation, outer_relation = left_relation, right_relation

        outer_rows = self._candidate_rows(
            outer_ref.variable, statement.where, outer_relation
        )
        joined, _plan = execute_join(
            outer=outer_rows,
            outer_key=outer_ref.field,
            outer_blocking_factor=outer_relation.blocking_factor,
            inner=inner_relation,
            inner_key=inner_ref.field,
            expected_result_tuples=max(1, len(outer_rows)),
            result_blocking_factor=max(
                1,
                self.database.block_size
                // (outer_relation.tuple_size + inner_relation.tuple_size),
            ),
            stats=self.database.stats,
        )
        output: List[Row] = []
        inner_fields = set(inner_relation.schema.field_names)
        for merged in joined:
            inner_row = {
                name: merged.get(f"inner.{name}", merged.get(name))
                for name in inner_fields
            }
            outer_row = {
                name: merged[name]
                for name in outer_relation.schema.field_names
                if name in merged
            }
            env = {outer_ref.variable: outer_row, inner_ref.variable: inner_row}
            if statement.where is None or _holds(statement.where, env):
                output.append(
                    {t.name: _evaluate(t.expr, env) for t in statement.targets}
                )
        return output

    def _materialize(
        self, name: str, targets: Sequence, rows: List[Row]
    ) -> str:
        schema = Schema(
            name, [Field(target.name, ANY, 8) for target in targets]
        )
        relation = self.database.create_relation(schema, name=name)
        relation.bulk_load(rows)
        return name

    # -- mutations -------------------------------------------------------
    def _run_append(self, statement: AppendStmt) -> int:
        relation = self.database.relation(statement.relation)
        values = {
            name: _evaluate(expr, {}) for name, expr in statement.assignments
        }
        relation.insert(values)
        return 1

    def _run_replace(self, statement: ReplaceStmt) -> int:
        relation = self._relation_for(statement.variable)
        variable = statement.variable
        keyed = None
        if relation.isam is not None:
            keyed = self._keyed_literal(variable, statement.where, relation)
            if keyed is not None and keyed[0] != relation.isam.key_field:
                keyed = None
        if keyed is not None:
            # Keyed REPLACE: one ISAM descent, conditional update.
            rid = relation.isam.probe(keyed[1])
            if rid is None:
                return 0
            row = dict(relation.read(rid))
            env = {variable: row}
            if statement.where is not None and not _holds(statement.where, env):
                return 0
            old = dict(row)
            for name, expr in statement.assignments:
                row[name] = _evaluate(expr, env)
            _check_keys_kept(relation, old, row)
            relation.heap.update(rid, row)
            return 1
        # Every replacement is computed and checked before the first is
        # written, so a refused statement changes nothing.
        replacements = []
        for rid, values in list(relation.scan()):
            env = {variable: dict(values)}
            if statement.where is None or _holds(statement.where, env):
                row = dict(values)
                for name, expr in statement.assignments:
                    row[name] = _evaluate(expr, env)
                _check_keys_kept(relation, values, row)
                replacements.append((rid, row))
        for rid, row in replacements:
            relation.heap.update(rid, row)
        return len(replacements)

    def _run_delete(self, statement: DeleteStmt) -> int:
        relation = self._relation_for(statement.variable)
        affected = 0
        for rid, values in list(relation.scan()):
            env = {statement.variable: dict(values)}
            if statement.where is None or _holds(statement.where, env):
                relation.delete(rid)
                affected += 1
        return affected
