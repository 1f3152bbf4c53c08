"""Tests for the mini-QUEL parser and executor."""

import pytest

from repro.quel import QuelError, QuelSession, QuelSyntaxError, parse_statement
from repro.quel.parser import (
    AppendStmt,
    BinaryOp,
    Comparison,
    DeleteStmt,
    FieldRef,
    Literal,
    RangeStmt,
    ReplaceStmt,
    RetrieveStmt,
)
from repro.storage.database import Database
from repro.storage.schema import ANY, FLOAT, Field, Schema, edge_schema


@pytest.fixture
def session():
    db = Database()
    S = db.create_relation(edge_schema(), name="S")
    S.bulk_load(
        {"begin": u, "end": v, "cost": float(u + v)}
        for u in range(5)
        for v in range(5)
        if v == (u + 1) % 5 or v == (u + 2) % 5
    )
    S.create_hash_index("begin")
    R = db.create_relation(
        Schema(
            "R",
            [Field("node_id", ANY, 4), Field("status", ANY, 4),
             Field("path_cost", FLOAT, 8)],
        ),
        name="R",
    )
    for i in range(5):
        R.insert({"node_id": i, "status": "null", "path_cost": 999.0})
    R.create_isam_index("node_id")
    s = QuelSession(db)
    s.execute("RANGE OF s IS S")
    s.execute("RANGE OF r IS R")
    return s


class TestParser:
    def test_range(self):
        stmt = parse_statement("RANGE OF e IS Edges")
        assert stmt == RangeStmt("e", "Edges")

    def test_retrieve_simple(self):
        stmt = parse_statement("RETRIEVE (s.end, s.cost) WHERE s.begin = 3")
        assert isinstance(stmt, RetrieveStmt)
        assert [t.name for t in stmt.targets] == ["end", "cost"]
        assert isinstance(stmt.where, Comparison)

    def test_retrieve_named_target_with_arithmetic(self):
        stmt = parse_statement("RETRIEVE (total = s.cost + 1.5)")
        target = stmt.targets[0]
        assert target.name == "total"
        assert isinstance(target.expr, BinaryOp)

    def test_retrieve_into(self):
        stmt = parse_statement("RETRIEVE INTO Temp (s.end)")
        assert stmt.into == "Temp"

    def test_append(self):
        stmt = parse_statement('APPEND TO S (begin = 9, end = 8, cost = 2.5)')
        assert isinstance(stmt, AppendStmt)
        assert stmt.assignments[2] == ("cost", Literal(2.5))

    def test_replace(self):
        stmt = parse_statement(
            "REPLACE r (status = 'open') WHERE r.node_id = 3"
        )
        assert isinstance(stmt, ReplaceStmt)
        assert stmt.assignments == (("status", Literal("open")),)

    def test_delete(self):
        stmt = parse_statement("DELETE r WHERE r.path_cost > 5")
        assert isinstance(stmt, DeleteStmt)

    def test_string_literals_parse_python_values(self):
        stmt = parse_statement('RETRIEVE (s.end) WHERE s.begin = "(0, 1)"')
        assert stmt.where.right == Literal((0, 1))

    def test_boolean_quals(self):
        stmt = parse_statement(
            "RETRIEVE (s.end) WHERE s.begin = 1 AND s.cost < 4 OR NOT s.end = 2"
        )
        assert stmt.where is not None

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "FROBNICATE x",
            "RANGE OF x",
            "RETRIEVE s.end",
            "RETRIEVE (s.end) WHERE",
            "APPEND TO S (begin)",
            "RETRIEVE (s.end) EXTRA",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(QuelSyntaxError):
            parse_statement(bad)

    def test_keywords_case_insensitive(self):
        assert isinstance(parse_statement("range of x is Y"), RangeStmt)


class TestRetrieve:
    def test_single_variable_scan(self, session):
        rows = session.execute("RETRIEVE (s.end) WHERE s.cost > 5")
        # Edges with cost u+v > 5: (2,4)=6 and (3,4)=7.
        assert sorted(r["end"] for r in rows) == [4, 4]

    def test_keyed_select_uses_index(self, session):
        rows = session.execute("RETRIEVE (s.end, s.cost) WHERE s.begin = 2")
        assert sorted(r["end"] for r in rows) == [3, 4]

    def test_arithmetic_projection(self, session):
        rows = session.execute(
            "RETRIEVE (doubled = s.cost * 2) WHERE s.begin = 2 AND s.end = 3"
        )
        assert rows == [{"doubled": 10.0}]

    def test_join_two_variables(self, session):
        """The adjacency fetch: current node r joined to its edges s."""
        rows = session.execute(
            "RETRIEVE (s.end, s.cost) WHERE r.node_id = s.begin "
            "AND r.node_id = 2"
        )
        assert sorted(r["end"] for r in rows) == [3, 4]

    def test_join_without_equijoin_rejected(self, session):
        with pytest.raises(QuelError):
            session.execute(
                "RETRIEVE (s.end) WHERE s.cost > r.path_cost"
            )

    def test_three_variables_rejected(self, session):
        session.execute("RANGE OF t IS S")
        with pytest.raises(QuelError):
            session.execute(
                "RETRIEVE (s.end) WHERE s.begin = r.node_id "
                "AND t.begin = s.end"
            )

    def test_retrieve_into_materializes(self, session):
        name = session.execute(
            "RETRIEVE INTO Neighbors (s.end, s.cost) WHERE s.begin = 0"
        )
        assert name == "Neighbors"
        relation = session.database.relation("Neighbors")
        assert relation.tuple_count == 2

    def test_unknown_variable(self, session):
        with pytest.raises(QuelError):
            session.execute("RETRIEVE (zz.end)")

    def test_unknown_field(self, session):
        with pytest.raises(QuelError):
            session.execute("RETRIEVE (s.wavelength)")


class TestMutations:
    def test_append(self, session):
        before = session.database.relation("S").tuple_count
        session.execute("APPEND TO S (begin = 99, end = 98, cost = 1.0)")
        assert session.database.relation("S").tuple_count == before + 1

    def test_keyed_replace(self, session):
        affected = session.execute(
            "REPLACE r (status = 'open', path_cost = 0) WHERE r.node_id = 3"
        )
        assert affected == 1
        row = session.database.relation("R").fetch_by_key(3)
        assert row["status"] == "open"
        assert row["path_cost"] == 0

    def test_keyed_replace_missing_key(self, session):
        assert session.execute(
            "REPLACE r (status = 'open') WHERE r.node_id = 42"
        ) == 0

    def test_scan_replace_with_expression(self, session):
        affected = session.execute(
            "REPLACE r (path_cost = r.path_cost + 1) WHERE r.path_cost > 500"
        )
        assert affected == 5
        row = session.database.relation("R").fetch_by_key(0)
        assert row["path_cost"] == 1000.0

    def test_conditional_keyed_replace_respects_residual_qual(self, session):
        affected = session.execute(
            "REPLACE r (status = 'open') "
            "WHERE r.node_id = 3 AND r.path_cost < 5"
        )
        assert affected == 0  # path_cost is 999

    def test_replace_cannot_change_a_hash_indexed_key(self):
        db = Database()
        S = db.create_relation(edge_schema(), name="S")
        S.bulk_load(
            {"begin": u, "end": v, "cost": 1.0}
            for u, v in (("a", "b"), ("a", "c"), ("b", "c"))
        )
        S.create_hash_index("begin")
        session = QuelSession(db)
        session.execute("RANGE OF s IS S")
        with pytest.raises(QuelError, match="hash key field 'begin'"):
            session.execute('REPLACE s (begin = "z") WHERE s.end = "b"')
        # Nothing was written: the index and the heap still agree.
        assert S.hash_index.verify()
        assert [row["end"] for row in S.hash_index.fetch_all("a")] == ["b", "c"]
        assert session.execute('RETRIEVE (s.end) WHERE s.begin = "z"') == []
        # A REPLACE that keeps the key still runs.
        assert session.execute('REPLACE s (cost = 2.0) WHERE s.end = "b"') == 1

    def test_keyed_replace_cannot_change_the_isam_key(self, session):
        with pytest.raises(QuelError, match="ISAM key field 'node_id'"):
            session.execute("REPLACE r (node_id = 7) WHERE r.node_id = 3")
        assert session.database.relation("R").fetch_by_key(3)["node_id"] == 3
        assert session.database.relation("R").fetch_by_key(7) is None

    def test_scan_replace_refused_part_way_writes_nothing(self, session):
        # The begin-0 rows keep their key (0 + 0 / 4 == 0) and pass the
        # check before a begin-1 row is refused; none of them is written.
        stats = session.database.stats
        updates = stats.tuple_updates
        with pytest.raises(QuelError, match="hash key field 'begin'"):
            session.execute("REPLACE s (begin = s.begin + s.begin / 4) WHERE s.cost > 0")
        assert stats.tuple_updates == updates

    def test_delete_on_unindexed_relation(self, session):
        session.execute(
            "RETRIEVE INTO Scratch (s.end) WHERE s.begin = 0"
        )
        session.execute("RANGE OF x IS Scratch")
        assert session.execute("DELETE x") == 2
        assert session.database.relation("Scratch").tuple_count == 0

    def test_range_to_missing_relation(self, session):
        from repro.exceptions import RelationNotFoundError

        with pytest.raises(RelationNotFoundError):
            session.execute("RANGE OF q IS Ghost")


class TestScript:
    def test_execute_script_with_comments(self, session):
        results = session.execute_script(
            """
            -- fetch node 1's adjacency list
            RETRIEVE (s.end) WHERE s.begin = 1
            REPLACE r (status = 'current') WHERE r.node_id = 1
            """
        )
        assert len(results) == 2
        assert results[1] == 1

    def test_io_is_charged(self, session):
        before = session.database.stats.cost
        session.execute("RETRIEVE (s.end) WHERE s.cost > 0")
        assert session.database.stats.cost > before
