"""Tests for Relation and Database."""

import pytest

from repro.exceptions import (
    DuplicateRelationError,
    RelationNotFoundError,
    StorageError,
)
from repro.storage.database import Database
from repro.storage.schema import ANY, FLOAT, Field, Schema, edge_schema


def simple_schema():
    return Schema("t", [Field("k", ANY, 8), Field("v", FLOAT, 8)])


class TestRelation:
    def test_insert_maintains_indexes(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        for i in range(20):
            relation.insert({"k": i, "v": 0.0})
        relation.create_isam_index("k")
        relation.insert({"k": 99, "v": 1.0})  # goes to ISAM overflow
        assert relation.fetch_by_key(99)["v"] == 1.0

    def test_replace_by_key(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        for i in range(5):
            relation.insert({"k": i, "v": 0.0})
        relation.create_isam_index("k")
        assert relation.replace_by_key(3, {"k": 3, "v": 7.0})
        assert relation.fetch_by_key(3)["v"] == 7.0
        assert not relation.replace_by_key(42, {"k": 42, "v": 0.0})

    def test_replace_by_key_cannot_change_isam_key(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        for i in range(5):
            relation.insert({"k": i, "v": 0.0})
        relation.create_isam_index("k")
        before = db.stats.snapshot()
        with pytest.raises(StorageError, match="ISAM key field 'k'"):
            relation.replace_by_key(3, {"k": 7, "v": 1.0})
        # Refused before the probe: nothing read, nothing written.
        assert db.stats.snapshot() == before
        assert relation.isam.verify()
        assert relation.fetch_by_key(3) == {"k": 3, "v": 0.0}
        assert relation.fetch_by_key(7) is None

    def test_replace_by_key_cannot_change_hash_key(self):
        db = Database()
        relation = db.create_relation(
            Schema("t", [Field("k", ANY, 8), Field("g", ANY, 8), Field("v", FLOAT, 8)])
        )
        for i in range(5):
            relation.insert({"k": i, "g": i % 2, "v": 0.0})
        relation.create_isam_index("k")
        relation.create_hash_index("g")
        with pytest.raises(StorageError, match="hash key field 'g'"):
            relation.replace_by_key(3, {"k": 3, "g": 0, "v": 1.0})
        assert relation.isam.verify()
        assert relation.fetch_by_key(3) == {"k": 3, "g": 1, "v": 0.0}
        assert {"k": 3, "g": 1, "v": 0.0} in relation.hash_index.fetch_all(1)
        # The old-row read for the check is not charged: a replace that
        # keeps both keys costs the index traversal plus one update.
        before = db.stats.snapshot()
        assert relation.replace_by_key(3, {"k": 3, "g": 1, "v": 2.0})
        assert db.stats.tuple_updates == before["tuple_updates"] + 1
        probe_reads = db.stats.block_reads - before["block_reads"]
        before = db.stats.snapshot()
        relation.isam.probe(3)
        assert db.stats.block_reads - before["block_reads"] == probe_reads

    def test_replace_requires_isam(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        with pytest.raises(StorageError):
            relation.replace_by_key(1, {"k": 1, "v": 0.0})

    def test_update_cannot_change_isam_key(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        rid = relation.insert({"k": 1, "v": 0.0})
        relation.create_isam_index("k")
        with pytest.raises(StorageError):
            relation.update(rid, {"k": 2, "v": 0.0})

    def test_update_cannot_change_hash_key(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        rid = relation.insert({"k": "a", "v": 0.0})
        relation.create_hash_index("k")
        before = db.stats.snapshot()
        with pytest.raises(StorageError, match="hash key field 'k'"):
            relation.update(rid, {"k": "z", "v": 1.0})
        # Refused after the one read the update makes anyway: no write.
        assert db.stats.block_reads == before["block_reads"] + 1
        assert db.stats.tuple_updates == before["tuple_updates"]
        assert relation.hash_index.fetch_all("a") == [{"k": "a", "v": 0.0}]
        relation.update(rid, {"k": "a", "v": 2.0})  # the key kept: allowed
        assert relation.hash_index.fetch_all("a") == [{"k": "a", "v": 2.0}]

    def test_delete_forbidden_on_indexed_relation(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        rid = relation.insert({"k": 1, "v": 0.0})
        relation.create_isam_index("k")
        with pytest.raises(StorageError):
            relation.delete(rid)

    def test_bulk_load_forbidden_after_indexing(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        relation.insert({"k": 1, "v": 0.0})
        relation.create_isam_index("k")
        with pytest.raises(StorageError):
            relation.bulk_load([{"k": 2, "v": 0.0}])

    def test_create_index_on_unknown_field(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError):
            relation.create_isam_index("missing")

    def test_size_metadata(self):
        db = Database()
        relation = db.create_relation(edge_schema())
        relation.bulk_load(
            {"begin": i, "end": i + 1, "cost": 1.0} for i in range(300)
        )
        assert relation.tuple_count == 300
        assert relation.blocking_factor == 128
        assert relation.block_count == 3
        assert relation.tuple_size == 32

    def test_all_tuples(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        relation.insert({"k": 1, "v": 2.0})
        assert relation.all_tuples() == [{"k": 1, "v": 2.0}]


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_relation(simple_schema(), name="x")
        assert db.has_relation("x")
        assert "x" in db
        assert db.relation("x").name == "x"

    def test_duplicate_name_rejected(self):
        db = Database()
        db.create_relation(simple_schema(), name="x")
        with pytest.raises(DuplicateRelationError):
            db.create_relation(simple_schema(), name="x")

    def test_missing_relation(self):
        db = Database()
        with pytest.raises(RelationNotFoundError):
            db.relation("ghost")
        with pytest.raises(RelationNotFoundError):
            db.drop_relation("ghost")

    def test_create_charges_fixed_cost(self):
        db = Database()
        db.create_relation(simple_schema())
        assert db.stats.relations_created == 1
        assert db.stats.cost == pytest.approx(0.5)

    def test_drop_charges_fixed_cost(self):
        db = Database()
        db.create_relation(simple_schema(), name="x")
        db.drop_relation("x")
        assert db.stats.relations_deleted == 1
        assert not db.has_relation("x")

    def test_relation_names(self):
        db = Database()
        db.create_relation(simple_schema(), name="b")
        db.create_relation(simple_schema(), name="a")
        assert set(db.relation_names()) == {"a", "b"}

    def test_shared_stats_ledger(self):
        db = Database()
        relation = db.create_relation(simple_schema())
        relation.insert({"k": 1, "v": 0.0})
        assert db.stats.block_writes >= 1
