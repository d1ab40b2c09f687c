"""Unit tests for the write-ahead log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import RECORDS_PER_LOG_PAGE, WriteAheadLog
from repro.sim import Environment, Event
from repro.storage.request import IoKind, IORequest
from tests.conftest import drive


class TestAppend:
    def test_lsns_are_monotone(self, env):
        wal = WriteAheadLog(env)
        lsns = [wal.append(page_id=p, version=1) for p in range(5)]
        assert lsns == [0, 1, 2, 3, 4]

    def test_tail_lsn_tracks_appends(self, env):
        wal = WriteAheadLog(env)
        assert wal.tail_lsn == -1
        wal.append(1, 1)
        assert wal.tail_lsn == 0

    def test_records_carry_payload(self, env):
        wal = WriteAheadLog(env)
        wal.append(page_id=7, version=3, txn_id=42)
        record = wal.records[0]
        assert (record.page_id, record.version, record.txn_id) == (7, 3, 42)


class TestForce:
    def test_force_advances_flushed_lsn(self, env):
        wal = WriteAheadLog(env)
        lsn = wal.append(1, 1)
        drive(env, wal.force(lsn))
        assert wal.flushed_lsn >= lsn

    def test_force_takes_log_device_time(self, env):
        wal = WriteAheadLog(env)
        lsn = wal.append(1, 1)
        drive(env, wal.force(lsn))
        assert env.now > 0

    def test_force_already_durable_is_instant(self, env):
        wal = WriteAheadLog(env)
        lsn = wal.append(1, 1)
        drive(env, wal.force(lsn))
        before = env.now
        drive(env, wal.force(lsn))
        assert env.now == before

    def test_group_commit_batches_concurrent_forcers(self, env):
        wal = WriteAheadLog(env)
        lsns = [wal.append(p, 1) for p in range(50)]
        procs = [env.process(wal.force(lsn)) for lsn in lsns]
        env.run(env.all_of(procs))
        # 50 records fit in one log page; far fewer I/Os than forcers.
        assert wal.device.stats.completed <= 3

    def test_force_covers_later_appends(self, env):
        wal = WriteAheadLog(env)
        first = wal.append(1, 1)
        wal.append(2, 1)
        drive(env, wal.force(first))
        # The flush writes the whole tail.
        assert wal.flushed_lsn == wal.tail_lsn


class TestTruncateAndRecovery:
    def test_records_since_excludes_unflushed(self, env):
        wal = WriteAheadLog(env)
        flushed = wal.append(1, 1)
        drive(env, wal.force(flushed))
        wal.append(2, 2)  # never forced
        records = wal.records_since(-1)
        assert [r.page_id for r in records] == [1]

    def test_truncate_drops_old_records(self, env):
        wal = WriteAheadLog(env)
        lsns = [wal.append(p, 1) for p in range(10)]
        drive(env, wal.force(lsns[-1]))
        wal.truncate(lsns[4])
        assert [r.lsn for r in wal.records] == lsns[5:]

    def test_records_since_lower_bound_exclusive(self, env):
        wal = WriteAheadLog(env)
        lsns = [wal.append(p, 1) for p in range(3)]
        drive(env, wal.force(lsns[-1]))
        assert [r.lsn for r in wal.records_since(lsns[0])] == lsns[1:]


class PerWaiterLog(WriteAheadLog):
    """The group commit this module replaced, kept as the reference: one
    event per forcer, every covered one succeeded after each flush."""

    def __init__(self, env):
        super().__init__(env)
        self._waiters = []

    def force(self, lsn, ctx=None):
        if lsn <= self.flushed_lsn:
            return
        done = Event(self.env)
        self._waiters.append((lsn, done))
        if not self._flusher_running:
            self._flusher_running = True
            self.env.spawn(self._flush_loop())
        yield done

    def _flush_loop(self):
        while self._waiters:
            target = self.tail_lsn
            npages = max(1, -(-(target - self.flushed_lsn)
                              // RECORDS_PER_LOG_PAGE))
            request = IORequest(IoKind.SEQUENTIAL_WRITE, self._write_head,
                                npages)
            self._write_head += npages
            yield self.device.submit(request)
            self.flushed_lsn = target
            still_waiting = []
            for lsn, event in self._waiters:
                if lsn <= self.flushed_lsn:
                    event.succeed()
                else:
                    still_waiting.append((lsn, event))
            self._waiters = still_waiting
        self._flusher_running = False


#: Short of, inside and past one log-disk write (9 ms with the first
#: seek, 0.8 ms after it).
DELAYS = st.sampled_from((0.0, 1e-4, 3e-3, 1e-2))
STEPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 200)),
    st.tuples(st.just("force"), st.integers(0, 3)),  # how far behind the tail
    st.tuples(st.just("delay"), DELAYS))
SCRIPTS = st.lists(st.lists(STEPS, max_size=8), min_size=1, max_size=6)


def run_script(wal_class, script):
    """Drive one actor per step list; the ``(now, actor, step)`` wake log."""
    env = Environment()
    wal = wal_class(env)
    log = []

    def actor(ident, steps):
        for index, (what, arg) in enumerate(steps):
            if what == "append":
                for _ in range(arg):
                    wal.append(ident, index)
            elif what == "delay":
                yield env.timeout(arg)
            elif wal.tail_lsn >= 0:
                yield from wal.force(max(0, wal.tail_lsn - arg))
                log.append((env.now, ident, index))

    env.run(env.all_of([env.process(actor(ident, steps))
                        for ident, steps in enumerate(script)]))
    return log, wal.flushed_lsn, wal.device.stats.completed


class TestGroupCommit:
    def forcers(self, env, wal, log, lsns):
        def forcer(ident, lsn):
            yield from wal.force(lsn)
            log.append((env.now, ident))

        return [env.process(forcer(ident, lsn))
                for ident, lsn in enumerate(lsns)]

    def test_forcers_behind_one_flush_share_one_wakeup(self):
        def cost(nforcers):
            env = Environment()
            wal = WriteAheadLog(env)
            lsns = [wal.append(p, 1) for p in range(nforcers)]
            env.run(env.all_of(self.forcers(env, wal, [], lsns)))
            assert wal.device.stats.completed == 1
            return env._seq

        # Each further forcer adds its own bootstrap and completion,
        # and nothing to the flush.
        assert cost(12) - cost(2) == 2 * 10

    def test_midflush_forcer_wakes_with_the_flush_that_covers_it(self, env):
        wal = WriteAheadLog(env)
        log = []
        first, second = wal.append(1, 1), wal.append(2, 1)

        def late():
            yield env.timeout(1e-4)  # the first flush is in flight
            assert wal.flushed_lsn == -1
            third = wal.append(3, 1)
            yield env.all_of(self.forcers(env, wal, log, [second, third]))

        env.process(late())
        env.run(env.all_of(self.forcers(env, wal, log, [first])))
        env.run()
        (t0, who0), (t1, who1), (t2, who2) = log
        # The early forcer and the covered late one wake together, the
        # early one first; the uncovered one with the second flush.
        assert (who0, who1, who2) == (0, 0, 1)
        assert t0 == t1 < t2
        assert wal.device.stats.completed == 2

    def test_wake_order_is_arrival_order(self, env):
        wal = WriteAheadLog(env)
        lsns = [wal.append(p, 1) for p in range(6)]
        log = []
        env.run(env.all_of(self.forcers(env, wal, log,
                                        [lsns[i] for i in (3, 0, 5, 1, 4)])))
        assert [who for _, who in log] == [0, 1, 2, 3, 4]
        assert len({when for when, _ in log}) == 1

    def test_crash_reset_drops_both_groups(self, env):
        wal = WriteAheadLog(env)
        first, second = wal.append(1, 1), wal.append(2, 1)
        log = []
        self.forcers(env, wal, log, [first])

        def late():
            yield env.timeout(1e-4)
            third = wal.append(3, 1)
            yield from wal.force(third)  # waits on the next group

        env.process(late())
        env.run(until=2e-4)  # mid-flush: one group in flight, one queued
        # System.crash()'s order: the log disk, the queue, then the log.
        # Without the device reset the cut-short flush holds the drive
        # for good and the force below never returns.
        wal.device.reset()
        env.wipe()
        wal.crash_reset()
        assert wal.flushed_lsn == -1 and not log
        # ``second`` was covered by the flush the crash cut short; a
        # forcer that joined that group now would never wake.
        drive(env, wal.force(second))
        assert wal.flushed_lsn == wal.tail_lsn
        assert not log

    def test_forcing_past_the_tail_is_refused(self, env):
        wal = WriteAheadLog(env)
        wal.append(1, 1)
        with pytest.raises(ValueError, match="past the log tail"):
            drive(env, wal.force(1))

    @settings(max_examples=200, deadline=None)
    @given(SCRIPTS)
    def test_matches_the_per_waiter_reference(self, script):
        assert run_script(WriteAheadLog, script) == run_script(
            PerWaiterLog, script)
