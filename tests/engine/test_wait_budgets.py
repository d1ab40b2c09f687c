"""What a wait costs the kernel: one scheduled entry per latched page
access.

The partition latch is an O(1) ``busy_until`` model, so a latched *hit*
must cost exactly the one sleep that advances virtual time: one entry
on the queue, the process's own wake entry (no ``Timeout``), and no
generator of its own (DESIGN.md §13, "Waits").  These budgets pin that,
so the hit path cannot quietly re-inflate.  On the wheel kernel such a
sleep stays inside the slot being drained, so it is pushed onto that
slot's heap without a call of ``TimerWheel.push``.
"""

import inspect

import pytest

from repro.engine import BufferPool
from repro.engine.btree import BPlusTree
from repro.engine.heap_file import HeapFile
from repro.sim.wheel import TimerWheel, WheelEnvironment
from repro.workloads.base import Transaction
from tests.conftest import MiniSystem, drive, profiled, scheduled

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

    with profiled(profiler):
        drive(env, body)
    return seen


def wheel_pushes(env, body):
    """Calls of ``TimerWheel.push`` while ``body`` runs as a process."""
    push = TimerWheel.push.__code__
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code is push:
            calls[0] += 1

    with profiled(profiler):
        drive(env, body)
    return calls[0]


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
            "_fetch_leaf_frame"}
        assert drive(sys_.env, txn.index_lookup(tree, 50)) == 50
        assert drive(sys_.env, txn.index_lookup(tree, 999)) is None

    def test_btree_lookup_drives_the_descent_directly(self):
        sys_ = latched_system()
        tree = warm_tree(sys_)
        assert generators_run(sys_.env, tree.lookup(sys_.bp, 50)) == {
            "_fetch_leaf_frame"}
        assert drive(sys_.env, tree.lookup(sys_.bp, 50)) == 50
        assert drive(sys_.env, tree.lookup(sys_.bp, 999)) is None

    def test_index_update_drives_the_descent_directly(self):
        sys_ = latched_system()
        tree = warm_tree(sys_)
        frame, leaf = drive(sys_.env, tree._fetch_leaf_frame(sys_.bp, 50))
        frame.pin_count -= 1
        txn = Transaction(sys_)
        assert generators_run(sys_.env, txn.index_update(tree, 50)) == {
            "_fetch_leaf_frame"}
        assert leaf.keys == [50] and frame.dirty and frame.pin_count == 0
        assert txn.writes == [(frame.page_id, frame.version)]
        assert txn.last_lsn == frame.page_lsn

    def test_all_hit_descent_on_the_wheel_pushes_nothing_onto_it(self):
        env = WheelEnvironment()
        sys_ = latched_system(env=env)
        tree = warm_tree(sys_)
        # To a quarter into the next slot: the descent's bootstrap, four
        # 20 µs latch sleeps and completion then fall inside that slot.
        tick = env._queue.tick
        env.run(env.timeout((int(env.now / tick) + 1.25) * tick - env.now))
        started = env.now
        assert wheel_pushes(env, tree._fetch_leaf_frame(sys_.bp, 50)) == 0
        assert env.now - started == pytest.approx(4 * LATCH_S)

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
