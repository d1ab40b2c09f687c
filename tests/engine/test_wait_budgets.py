"""What a wait costs the kernel: one timer per latched page access.

The partition latch is an O(1) ``busy_until`` model, so a latched *hit*
must cost exactly the one timer that advances virtual time and no
generator of its own (DESIGN.md §13, "Waits").  These budgets pin that,
so the hit path cannot quietly re-inflate.
"""

import inspect
import sys

import pytest

from repro.engine import BufferPool
from repro.engine.btree import BPlusTree
from repro.engine.heap_file import HeapFile
from repro.workloads.base import Transaction
from tests.conftest import MiniSystem, drive, scheduled

LATCH_S = 20e-6


def latched_system(**kwargs):
    return MiniSystem(db_pages=2_000, bp_pages=512, bp_partitions=4,
                      latch_seconds=LATCH_S, **kwargs)


def generators_run(env, body):
    """Names of ``src/repro`` generator functions that run under ``body``."""
    seen = set()

    def profiler(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_flags & inspect.CO_GENERATOR
                and "/repro/" in code.co_filename):
            seen.add(code.co_name)

    sys.setprofile(profiler)
    try:
        drive(env, body)
    finally:
        sys.setprofile(None)
    return seen


def warm_tree(sys_, n=100, fanout=8):
    tree = BPlusTree("t", sys_.db.allocate, fanout=fanout, leaf_capacity=1)
    tree.bulk_load(range(n))

    def warm():
        for key in range(n):
            yield from tree.lookup(sys_.bp, key)

    drive(sys_.env, warm())
    return tree


class TestLatchedDescent:
    def test_all_hit_descent_schedules_one_event_per_level(self):
        sys_ = latched_system()
        tree = warm_tree(sys_)
        assert tree.height == 4
        assert scheduled(sys_.env, tree._fetch_leaf_frame(sys_.bp, 50)) == 4

    def test_all_hit_descent_creates_no_generator_of_its_own(self):
        sys_ = latched_system()
        tree = warm_tree(sys_)
        assert generators_run(
            sys_.env, tree._fetch_leaf_frame(sys_.bp, 50)) == {
                "_fetch_leaf_frame"}

    def test_index_lookup_drives_the_descent_directly(self):
        sys_ = latched_system()
        tree = warm_tree(sys_)
        txn = Transaction(sys_)
        assert generators_run(sys_.env, txn.index_lookup(tree, 50)) == {
            "index_lookup", "_fetch_leaf_frame"}
        assert drive(sys_.env, txn.index_lookup(tree, 50)) == 50
        assert drive(sys_.env, txn.index_lookup(tree, 999)) is None

    def test_unlatched_all_hit_descent_schedules_nothing(self):
        sys_ = MiniSystem(db_pages=2_000, bp_pages=512)
        tree = warm_tree(sys_)
        assert scheduled(sys_.env, tree._fetch_leaf_frame(sys_.bp, 50)) == 0

    def test_descent_queues_behind_a_busy_partition(self):
        sys_ = latched_system()
        tree = warm_tree(sys_)
        bp = sys_.bp
        root = tree.root_page
        before = bp.stats.partition_latch_waits
        # Someone holds the root's partition for five more accesses.
        bp._parts[root % bp.partitions].busy_until = (
            sys_.env.now + 5 * LATCH_S)
        started = sys_.env.now
        drive(sys_.env, tree._fetch_leaf_frame(bp, 50))
        assert bp.stats.partition_latch_waits >= before + 1
        assert sys_.env.now - started == pytest.approx(
            (5 + tree.height) * LATCH_S)


class TestLatchedPageAccess:
    def test_read_of_a_resident_page_schedules_one_event(self):
        sys_ = latched_system()
        txn = Transaction(sys_)
        drive(sys_.env, txn.read(7))  # bring it in
        assert scheduled(sys_.env, txn.read(7)) == 1
        assert generators_run(sys_.env, txn.read(7)) == {"read"}

    def test_update_of_a_resident_page_schedules_one_event(self):
        sys_ = latched_system()
        txn = Transaction(sys_)
        drive(sys_.env, txn.read(7))
        assert scheduled(sys_.env, txn.update(7)) == 1
        assert txn.writes == [(7, 1)]

    def test_miss_waits_on_the_latch_once(self, monkeypatch):
        """The second fetcher of an in-flight page retries inside
        ``fetch`` without going back through the latch."""
        sys_ = latched_system()
        bp = sys_.bp
        latched = []
        latch = BufferPool.latch

        def counting_latch(self, page_id, ctx=None):
            latched.append(page_id)
            return latch(self, page_id, ctx)

        monkeypatch.setattr(BufferPool, "latch", counting_latch)
        first = sys_.env.process(Transaction(sys_).read(11))
        second = sys_.env.process(Transaction(sys_).read(11))
        sys_.env.run(sys_.env.all_of([first, second]))
        assert latched == [11, 11]
        assert (bp.stats.misses, bp.stats.hits) == (1, 1)

    def test_plain_fetch_still_latches_itself(self):
        sys_ = latched_system()
        drive(sys_.env, sys_.bp.fetch(5))
        started = sys_.env.now
        assert scheduled(sys_.env, sys_.bp.fetch(5)) == 1
        assert sys_.env.now - started == pytest.approx(LATCH_S)

    def test_scan_waits_once_per_page_and_counts_queueing(self):
        sys_ = latched_system()
        table = HeapFile("t", first_page=100, npages=64)
        drive(sys_.env, table.scan(sys_.bp))  # all 64 pages resident now
        stats = sys_.bp.stats
        hits = stats.hits
        assert scheduled(sys_.env, table.scan(
            sys_.bp, start=100, npages=sys_.bp.readahead.trigger_pages)) == (
                sys_.bp.readahead.trigger_pages)
        assert stats.hits == hits + sys_.bp.readahead.trigger_pages

        # Two scans of one range contend for the same partitions.
        before = stats.partition_latch_waits
        scans = [sys_.env.process(table.scan(sys_.bp)) for _ in range(2)]
        sys_.env.run(sys_.env.all_of(scans))
        assert stats.partition_latch_waits > before
        assert stats.partition_latch_wait_time > 0.0
