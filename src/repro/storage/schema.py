"""Relation schemas with explicit per-field byte sizes.

The paper's cost model is driven entirely by *tuple sizes* and the
blocking factors they imply (Table 4A: ``T_s = 32`` bytes for the edge
relation, ``T_r = 16`` bytes for the node relation, block size
``B = 4096``). A schema here is an ordered list of fields, each with a
declared byte width, so that every relation knows its tuple size and
its blocking factor exactly the way Table 4A computes them.

Field *types* are enforced loosely (int / float / str / any) — this is
a cost-accurate storage simulator, not a full type system — but sizes
are enforced strictly because they drive every I/O charge downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.exceptions import SchemaError

#: Field type tags understood by the schema validator.
INT = "int"
FLOAT = "float"
STR = "str"
ANY = "any"

_CHECKERS = {
    INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    FLOAT: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    STR: lambda v: isinstance(v, str),
    ANY: lambda v: True,
}

#: Per typed tag, the exact value types its checker accepts: a value of
#: one of these passes without the call (``bool`` is in none of them).
_EXACT_TYPES = {
    INT: (int,),
    FLOAT: (float, int),
    STR: (str,),
}


@dataclass(frozen=True)
class Field:
    """One attribute of a relation: name, type tag, and byte width."""

    name: str
    type_tag: str = ANY
    size: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be non-empty")
        if self.type_tag not in _CHECKERS:
            raise SchemaError(
                f"unknown field type {self.type_tag!r}; "
                f"known: {', '.join(sorted(_CHECKERS))}"
            )
        if self.size <= 0:
            raise SchemaError(f"field {self.name!r} must have positive size")

    def accepts(self, value: object) -> bool:
        """True if ``value`` matches this field's declared type."""
        return _CHECKERS[self.type_tag](value)


class Schema:
    """An ordered collection of fields with derived size arithmetic."""

    def __init__(self, name: str, fields: Sequence[Field]) -> None:
        if not fields:
            raise SchemaError(f"schema {name!r} must have at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema {name!r} has duplicate field names")
        self.name = name
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._names: Tuple[str, ...] = tuple(names)
        self._by_name: Dict[str, Field] = {f.name: f for f in fields}
        self._positions: Dict[str, int] = {f.name: i for i, f in enumerate(fields)}
        #: Bytes per tuple — the paper's T_s / T_r.
        self.tuple_size: int = sum(f.size for f in fields)
        # The typed fields' checks, in field order: (position, field,
        # types accepted without calling the checker). ANY fields need
        # no check.
        self._checks: Tuple[Tuple[int, Field, Tuple[type, ...]], ...] = tuple(
            (i, f, _EXACT_TYPES[f.type_tag])
            for i, f in enumerate(fields)
            if f.type_tag != ANY
        )

    @property
    def field_names(self) -> Tuple[str, ...]:
        return self._names

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no field {name!r}"
            ) from None

    def position(self, name: str) -> int:
        """Ordinal position of a field, for positional tuple access."""
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no field {name!r}"
            ) from None

    def blocking_factor(self, block_size: int) -> int:
        """Tuples per block: Bf = B / T (Table 1). At least 1."""
        if block_size <= 0:
            raise SchemaError("block size must be positive")
        return max(1, block_size // self.tuple_size)

    def validate(self, values: Mapping[str, object]) -> Tuple[object, ...]:
        """Check a mapping against the schema; return a positional tuple.

        Missing or extra fields and type mismatches raise
        :class:`SchemaError` eagerly: a storage engine that silently
        coerces tuples makes cost accounting untrustworthy.
        """
        try:
            row = tuple([values[name] for name in self._names])
        except KeyError:
            return self._validate_by_field(values)
        if len(values) != len(row):
            return self._validate_by_field(values)
        for i, field_def, exact in self._checks:
            value = row[i]
            if type(value) not in exact and not field_def.accepts(value):
                raise self._mistyped(field_def, value)
        return row

    def _validate_by_field(self, values: Mapping[str, object]) -> Tuple[object, ...]:
        """:meth:`validate` field by field, for a mapping with a missing
        or extra field: an extra field is reported first, then fields in
        order, each missing or mistyped."""
        extra = set(values) - set(self._by_name)
        if extra:
            raise SchemaError(
                f"schema {self.name!r}: unexpected fields {sorted(extra)}"
            )
        row: List[object] = []
        for field_def in self.fields:
            if field_def.name not in values:
                raise SchemaError(
                    f"schema {self.name!r}: missing field {field_def.name!r}"
                )
            value = values[field_def.name]
            if not field_def.accepts(value):
                raise self._mistyped(field_def, value)
            row.append(value)
        return tuple(row)

    def _mistyped(self, field_def: Field, value: object) -> SchemaError:
        return SchemaError(
            f"schema {self.name!r}: field {field_def.name!r} "
            f"rejects value {value!r} (expected {field_def.type_tag})"
        )

    def as_dict(self, row: Sequence[object]) -> Dict[str, object]:
        """Convert a positional tuple back to a field-name mapping."""
        if len(row) != len(self.fields):
            raise SchemaError(
                f"schema {self.name!r}: row arity {len(row)} != "
                f"{len(self.fields)}"
            )
        return dict(zip(self._names, row))

    def join_with(self, other: "Schema", name: str) -> "Schema":
        """Concatenated schema of a join result (fields prefixed on clash)."""
        fields: List[Field] = list(self.fields)
        taken = set(self.field_names)
        for f in other.fields:
            if f.name in taken:
                fields.append(Field(f"{other.name}.{f.name}", f.type_tag, f.size))
            else:
                fields.append(f)
                taken.add(f.name)
        return Schema(name, fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.type_tag}({f.size})" for f in self.fields)
        return f"Schema({self.name!r}, [{inner}])"


def edge_schema() -> Schema:
    """The paper's edge relation S: (Begin-node, End-node, Edge-cost).

    Sized to T_s = 32 bytes exactly as Table 4A assumes (two 12-byte
    node ids + one 8-byte cost).
    """
    return Schema(
        "S",
        [
            Field("begin", ANY, 12),
            Field("end", ANY, 12),
            Field("cost", FLOAT, 8),
        ],
    )


def node_schema() -> Schema:
    """The paper's node relation R.

    Fields per Section 4: node-id, x-coordinate, y-coordinate, status,
    path (pointer to the neighboring node on the best path to the
    source) and path-cost. Sized to T_r = 16 bytes as Table 4A assumes
    — the 1993 implementation packed these fields tightly; what matters
    to the cost model is the total, not the split.
    """
    return Schema(
        "R",
        [
            Field("node_id", ANY, 4),
            Field("x", FLOAT, 2),
            Field("y", FLOAT, 2),
            Field("status", STR, 2),
            Field("path", ANY, 4),
            Field("path_cost", FLOAT, 2),
        ],
    )


#: Node status values per Section 4 of the paper.
STATUS_NULL = "null"
STATUS_OPEN = "open"
STATUS_CURRENT = "current"
STATUS_CLOSED = "closed"

NODE_STATUSES = (STATUS_NULL, STATUS_OPEN, STATUS_CURRENT, STATUS_CLOSED)
