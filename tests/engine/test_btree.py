"""Unit tests for the B+-tree."""

import random

import pytest

from repro.engine.btree import BPlusTree
from tests.conftest import MiniSystem, drive


def make_tree(sys_, n=200, fanout=8, leaf_capacity=1):
    tree = BPlusTree("t", sys_.db.allocate, fanout=fanout,
                     leaf_capacity=leaf_capacity)
    tree.bulk_load(range(n))
    return tree


class TestBulkLoad:
    def test_page_granular_keys_use_one_leaf_each(self):
        sys_ = MiniSystem(db_pages=1000, bp_pages=64)
        tree = make_tree(sys_, n=100)
        leaves = [n for n in tree.nodes.values() if n.is_leaf]
        assert len(leaves) == 100

    def test_classic_packing(self):
        sys_ = MiniSystem(db_pages=1000, bp_pages=64)
        tree = make_tree(sys_, n=100, fanout=8, leaf_capacity=7)
        leaves = [n for n in tree.nodes.values() if n.is_leaf]
        assert len(leaves) == -(-100 // 7)

    def test_rejects_unsorted_keys(self):
        sys_ = MiniSystem(db_pages=1000, bp_pages=64)
        tree = BPlusTree("t", sys_.db.allocate)
        with pytest.raises(ValueError):
            tree.bulk_load([3, 1, 2])

    def test_height_grows_logarithmically(self):
        sys_ = MiniSystem(db_pages=5000, bp_pages=64)
        tree = make_tree(sys_, n=1000, fanout=8)
        # 1000 leaves at fanout 8: 1000 -> 125 -> 16 -> 2 -> 1.
        assert tree.height == 5

    def test_single_key(self):
        sys_ = MiniSystem(db_pages=100, bp_pages=64)
        tree = make_tree(sys_, n=1)
        assert tree.height == 1
        assert tree.root_page is not None


class TestLookup:
    def test_all_keys_found(self):
        sys_ = MiniSystem(db_pages=2000, bp_pages=512)
        tree = make_tree(sys_, n=150)

        def proc():
            for key in range(150):
                value = yield from tree.lookup(sys_.bp, key)
                assert value == key

        drive(sys_.env, proc())

    def test_missing_key_returns_none(self):
        sys_ = MiniSystem(db_pages=2000, bp_pages=64)
        tree = make_tree(sys_, n=10)

        def proc():
            return (yield from tree.lookup(sys_.bp, 999))

        assert drive(sys_.env, proc()) is None

    def test_lookup_walks_height_pages(self):
        sys_ = MiniSystem(db_pages=2000, bp_pages=512)
        tree = make_tree(sys_, n=100, fanout=8)

        def proc():
            yield from tree.lookup(sys_.bp, 50)

        drive(sys_.env, proc())
        touched = sys_.bp.stats.hits + sys_.bp.stats.misses
        assert touched == tree.height


class TestInsert:
    def test_monotone_inserts_split_rightmost(self):
        sys_ = MiniSystem(db_pages=2000, bp_pages=256)
        tree = make_tree(sys_, n=10)

        def proc():
            for key in range(10, 40):
                inserted = yield from tree.insert(sys_.bp, key)
                assert inserted

        drive(sys_.env, proc())
        assert tree.splits >= 29  # page-granular: nearly every insert splits

        def verify():
            for key in range(40):
                value = yield from tree.lookup(sys_.bp, key)
                assert value == key, key

        drive(sys_.env, verify())

    def test_duplicate_insert_is_noop(self):
        sys_ = MiniSystem(db_pages=2000, bp_pages=64)
        tree = make_tree(sys_, n=10)

        def proc():
            return (yield from tree.insert(sys_.bp, 5))

        assert drive(sys_.env, proc()) is False

    def test_random_inserts_preserve_search(self):
        sys_ = MiniSystem(db_pages=8000, bp_pages=1024)
        tree = BPlusTree("t", sys_.db.allocate, fanout=8, leaf_capacity=4)
        tree.bulk_load(range(0, 400, 4))  # gaps to insert into
        rng = random.Random(3)
        extra = rng.sample([k for k in range(400) if k % 4], 120)

        def proc():
            for key in extra:
                yield from tree.insert(sys_.bp, key)
            for key in extra:
                value = yield from tree.lookup(sys_.bp, key)
                assert value == key, key

        drive(sys_.env, proc())

    def test_split_creates_dirty_on_the_fly_page(self):
        """The §4.2 case: split pages are never read from disk."""
        sys_ = MiniSystem(db_pages=2000, bp_pages=64)
        tree = make_tree(sys_, n=5)

        def proc():
            yield from tree.insert(sys_.bp, 5)

        drive(sys_.env, proc())
        new_leaves = [n for n in tree.nodes.values()
                      if n.is_leaf and 5 in n.keys]
        frame = sys_.bp.frames.get(new_leaves[0].page_id)
        assert frame is not None and frame.dirty


class TestStructure:
    def test_keys_ordered_in_every_node(self):
        sys_ = MiniSystem(db_pages=8000, bp_pages=1024)
        tree = BPlusTree("t", sys_.db.allocate, fanout=8, leaf_capacity=4)
        tree.bulk_load(range(0, 300, 3))

        def proc():
            for key in range(0, 300):
                if key % 3:
                    yield from tree.insert(sys_.bp, key)

        drive(sys_.env, proc())
        for node in tree.nodes.values():
            assert node.keys == sorted(node.keys)
            if not node.is_leaf:
                assert len(node.children) == len(node.keys) + 1

    def test_leaf_chain_covers_all_keys_in_order(self):
        sys_ = MiniSystem(db_pages=2000, bp_pages=64)
        tree = make_tree(sys_, n=50)
        node = tree.nodes[min(p for p, n in tree.nodes.items() if n.is_leaf)]
        seen = []
        while node is not None:
            seen.extend(node.keys)
            node = tree.nodes.get(node.next_leaf)
        assert seen == list(range(50))
