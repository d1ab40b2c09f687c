"""Unit tests for the buffer pool."""

import pytest

from tests.conftest import MiniSystem, drive, settle


@pytest.fixture
def sys_():
    return MiniSystem(design="noSSD", db_pages=500, bp_pages=32)


class TestFetch:
    def test_miss_then_hit(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(10)
            sys_.bp.unpin(frame)
            again = yield from sys_.bp.fetch(10)
            sys_.bp.unpin(again)
            return frame, again

        first, second = drive(sys_.env, proc())
        assert first is second
        assert sys_.bp.stats.misses == 1
        assert sys_.bp.stats.hits == 1

    def test_fetch_pins_frame(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(1)
            return frame

        frame = drive(sys_.env, proc())
        assert frame.pinned

    def test_unpin_requires_pin(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(1)
            sys_.bp.unpin(frame)
            return frame

        frame = drive(sys_.env, proc())
        with pytest.raises(ValueError):
            sys_.bp.unpin(frame)

    def test_concurrent_misses_share_one_read(self, sys_):
        frames = []

        def proc():
            frame = yield from sys_.bp.fetch(42)
            frames.append(frame)
            sys_.bp.unpin(frame)

        procs = [sys_.env.process(proc()) for _ in range(5)]
        sys_.env.run(sys_.env.all_of(procs))
        assert len({id(f) for f in frames}) == 1
        assert sys_.bp.stats.misses == 1
        assert sys_.disk.reads_issued == 1

    def test_miss_takes_device_time(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(7)
            sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        assert sys_.env.now > 0


class TestDirtyTracking:
    def test_mark_dirty_bumps_version_and_logs(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(3)
            lsn = sys_.bp.mark_dirty(frame)
            sys_.bp.unpin(frame)
            return frame, lsn

        frame, lsn = drive(sys_.env, proc())
        assert frame.version == 1
        assert frame.dirty
        assert frame.page_lsn == lsn
        assert sys_.wal.tail_lsn == lsn

    def test_mark_dirty_requires_pin(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(3)
            sys_.bp.unpin(frame)
            return frame

        frame = drive(sys_.env, proc())
        with pytest.raises(ValueError):
            sys_.bp.mark_dirty(frame)

    def test_dirty_count(self, sys_):
        def proc():
            for pid in range(4):
                frame = yield from sys_.bp.fetch(pid)
                if pid % 2 == 0:
                    sys_.bp.mark_dirty(frame)
                sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        assert sys_.bp.dirty_count == 2


class TestEviction:
    def test_capacity_is_respected(self, sys_):
        sys_.churn(accesses=800, span=500)
        assert len(sys_.bp.frames) <= sys_.bp.capacity

    def test_dirty_eviction_reaches_disk(self, sys_):
        sys_.churn(accesses=800, write_fraction=1.0, span=500)
        assert sys_.bp.stats.evictions_dirty > 0
        dirty_or_buffered = set(sys_.bp.frames)
        written = [p for p in range(500)
                   if sys_.disk.disk_version(p) > 0]
        assert written  # evicted dirty pages were persisted

    def test_wal_rule_log_flushed_before_page_write(self, sys_):
        sys_.churn(accesses=400, write_fraction=1.0, span=500)
        # Every page version on disk must have its redo record durable.
        for page in range(500):
            version = sys_.disk.disk_version(page)
            if version == 0:
                continue
            durable = [r for r in sys_.wal.records
                       if r.page_id == page and r.lsn <= sys_.wal.flushed_lsn]
            assert any(r.version >= version for r in durable), page

    def test_lru2_evicts_cold_page_first(self):
        sys_ = MiniSystem(design="noSSD", db_pages=100, bp_pages=8)

        def proc():
            # Touch page 0 twice (hot by LRU-2), pages 1..7 once each.
            for _ in range(2):
                frame = yield from sys_.bp.fetch(0)
                sys_.bp.unpin(frame)
            for pid in range(1, 8):
                frame = yield from sys_.bp.fetch(pid)
                sys_.bp.unpin(frame)
            # Overflow the pool; page 0 should survive longer than the
            # singly-touched pages.
            for pid in range(50, 55):
                frame = yield from sys_.bp.fetch(pid)
                sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        settle(sys_.env)
        assert 0 in sys_.bp.frames

    def test_pinned_frames_never_evicted(self):
        sys_ = MiniSystem(design="noSSD", db_pages=100, bp_pages=8)

        def proc():
            pinned = yield from sys_.bp.fetch(0)
            for pid in range(1, 40):
                frame = yield from sys_.bp.fetch(pid)
                sys_.bp.unpin(frame)
            return pinned

        pinned = drive(sys_.env, proc())
        settle(sys_.env)
        assert sys_.bp.frames.get(0) is pinned


class TestPrefetch:
    def test_prefetch_marks_sequential(self, sys_):
        drive(sys_.env, sys_.bp.prefetch(100, 8))
        for pid in range(100, 108):
            assert sys_.bp.frames[pid].sequential

    def test_prefetch_skips_resident_pages(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(102)
            sys_.bp.unpin(frame)
            yield from sys_.bp.prefetch(100, 8)

        drive(sys_.env, proc())
        assert not sys_.bp.frames[102].sequential  # kept original frame
        assert sys_.bp.stats.prefetched_pages == 7

    def test_prefetched_pages_arrive_unpinned(self, sys_):
        drive(sys_.env, sys_.bp.prefetch(100, 4))
        assert all(not sys_.bp.frames[p].pinned for p in range(100, 104))

    def test_expand_reads_fills_pool_faster(self):
        sys_ = MiniSystem(design="noSSD", db_pages=500, bp_pages=64)
        sys_.bp.expand_reads = True

        def proc():
            frame = yield from sys_.bp.fetch(17)
            sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        # One fetch brought in the whole aligned 8-page run.
        assert len(sys_.bp.frames) == 8

    @pytest.mark.parametrize("trimmed", [1, 4])
    def test_fully_trimmed_prefetch_event_budget(self, trimmed):
        """A read-ahead served by k single-page SSD reads schedules
        ``2k + 3`` events: one start entry, two per device I/O, the last
        child's completion and the join (``4k + 1`` when every child had
        its own bootstrap and completion).  Pinned so it cannot quietly
        re-inflate."""
        sys_ = MiniSystem(design="DW", db_pages=500, bp_pages=64,
                          ssd_frames=32)
        for page in range(10, 10 + trimmed):
            drive(sys_.env, sys_.ssd_manager._cache_page(page, 0, False))
        settle(sys_.env)
        before = sys_.env._seq
        drive(sys_.env, sys_.bp.prefetch(10, trimmed))
        assert sys_.ssd_manager.stats.reads == trimmed
        # drive() adds the prefetch process's own bootstrap and completion.
        assert sys_.env._seq - before - 2 == 2 * trimmed + 3


class TestNewPage:
    def test_new_page_starts_dirty(self, sys_):
        def proc():
            frame = yield from sys_.bp.new_page(490)
            sys_.bp.unpin(frame)
            return frame

        frame = drive(sys_.env, proc())
        assert frame.dirty
        assert not frame.sequential

    def test_new_page_rejects_resident(self, sys_):
        def proc():
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.unpin(frame)
            yield from sys_.bp.new_page(5)

        with pytest.raises(ValueError):
            drive(sys_.env, proc())


class TestDropAll:
    def test_drop_all_clears_state(self, sys_):
        sys_.churn(accesses=200, span=500)
        sys_.bp.crash_reset()
        assert not sys_.bp.frames
        assert sys_.bp.used == 0
