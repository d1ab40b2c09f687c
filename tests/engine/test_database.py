"""Unit tests for the catalog/allocator."""

import pytest

from repro.engine.database import Database


class TestAllocation:
    def test_contiguous_allocation(self):
        db = Database(100)
        assert db.allocate(10) == 0
        assert db.allocate(5) == 10
        assert db.npages - db.free_pages == 15
        assert db.free_pages == 85

    def test_exhaustion_raises(self):
        db = Database(10)
        db.allocate(8)
        with pytest.raises(RuntimeError):
            db.allocate(3)

    def test_zero_allocation_rejected(self):
        with pytest.raises(ValueError):
            Database(10).allocate(0)

    def test_validates_size(self):
        with pytest.raises(ValueError):
            Database(0)


class TestCatalog:
    def test_create_table(self):
        db = Database(100)
        table = db.create_table("orders", 20)
        assert db.tables["orders"] is table
        assert table.npages == 20

    def test_duplicate_table_rejected(self):
        db = Database(100)
        db.create_table("t", 5)
        with pytest.raises(ValueError):
            db.create_table("t", 5)

    def test_create_index_allocates_pages(self):
        db = Database(200)
        tree = db.create_index("idx", range(50))
        assert db.indexes["idx"] is tree
        assert db.npages - db.free_pages >= 50  # leaves + internals

    def test_duplicate_index_rejected(self):
        db = Database(200)
        db.create_index("idx", range(10))
        with pytest.raises(ValueError):
            db.create_index("idx", range(10))
