"""Behavioural tests for the four designs: the §2.3/§2.5 contracts."""

import pytest

from repro.engine.page import Frame
from repro.harness.experiments import (SCALE_PROFILES, make_system,
                                       make_workload)
from repro.harness.runner import WorkloadRunner
from tests.conftest import MiniSystem, drive, settle


def evict_dirty(sys_, page_id, version=1, sequential=False):
    frame = Frame(page_id, version=version, sequential=sequential)
    frame.dirty = True
    drive(sys_.env, sys_.ssd_manager.on_evict_dirty(frame))
    return frame


def evict_clean(sys_, page_id, version=0, sequential=False):
    frame = Frame(page_id, version=version, sequential=sequential)
    drive(sys_.env, sys_.ssd_manager.on_evict_clean(frame))
    return frame


class TestCleanWrite:
    def test_dirty_eviction_goes_to_disk_only(self):
        sys_ = MiniSystem(design="CW", ssd_frames=64)
        evict_dirty(sys_, 7)
        assert sys_.disk.disk_version(7) == 1
        assert not sys_.ssd_manager.contains_valid(7)
        assert sys_.ssd_device.stats.pages_written == 0

    def test_clean_random_eviction_is_cached(self):
        sys_ = MiniSystem(design="CW", ssd_frames=64)
        # Get past the fill phase so the admission decision is real.
        sys_.ssd_manager.config.fill_threshold = 0.0
        evict_clean(sys_, 7, sequential=False)
        assert sys_.ssd_manager.contains_valid(7)

    def test_clean_sequential_eviction_rejected(self):
        sys_ = MiniSystem(design="CW", ssd_frames=64)
        sys_.ssd_manager.config.fill_threshold = 0.0
        evict_clean(sys_, 7, sequential=True)
        assert not sys_.ssd_manager.contains_valid(7)

    def test_ssd_copies_always_match_disk(self):
        sys_ = MiniSystem(design="CW", db_pages=600, bp_pages=48,
                          ssd_frames=128)
        sys_.churn(accesses=2_000, write_fraction=0.4)
        for record in sys_.ssd_manager.table.occupied_records():
            if record.valid:
                assert record.version == sys_.disk.disk_version(record.page_id)


class TestDualWrite:
    def test_dirty_eviction_writes_both(self):
        sys_ = MiniSystem(design="DW", ssd_frames=64)
        evict_dirty(sys_, 7)
        assert sys_.disk.disk_version(7) == 1
        assert sys_.ssd_manager.contains_valid(7)
        record = sys_.ssd_manager.table.lookup(7)
        assert not record.dirty  # write-through: the SSD copy is clean

    def test_writes_overlap(self):
        """Disk and SSD writes are issued in parallel, not serially."""
        sys_ = MiniSystem(design="DW", ssd_frames=64)
        evict_dirty(sys_, 7)
        elapsed = sys_.env.now
        # A serial disk-then-SSD write would exceed the disk write alone
        # by the SSD service time; parallel writes complete in
        # max(disk, ssd) = disk time.
        disk_only = 8 / 895.0
        assert elapsed == pytest.approx(disk_only, rel=0.1)

    def test_sequential_dirty_page_skips_ssd(self):
        sys_ = MiniSystem(design="DW", ssd_frames=64)
        sys_.ssd_manager.config.fill_threshold = 0.0
        evict_dirty(sys_, 7, sequential=True)
        assert sys_.disk.disk_version(7) == 1
        assert not sys_.ssd_manager.contains_valid(7)

    def test_checkpoint_write_primes_ssd_with_random_pages(self):
        """§3.2: checkpointed dirty random pages also go to the SSD."""
        sys_ = MiniSystem(design="DW", ssd_frames=64)
        frame = Frame(9, version=2, sequential=False)
        frame.dirty = True
        drive(sys_.env, sys_.ssd_manager.checkpoint_write(frame))
        assert sys_.disk.disk_version(9) == 2
        assert sys_.ssd_manager.contains_valid(9)

    def test_checkpoint_write_sequential_page_disk_only(self):
        sys_ = MiniSystem(design="DW", ssd_frames=64)
        frame = Frame(9, version=2, sequential=True)
        frame.dirty = True
        drive(sys_.env, sys_.ssd_manager.checkpoint_write(frame))
        assert sys_.disk.disk_version(9) == 2
        assert not sys_.ssd_manager.contains_valid(9)


class TestLazyCleaning:
    def make(self, **kwargs):
        defaults = dict(design="LC", db_pages=600, bp_pages=48,
                        ssd_frames=64, dirty_threshold=0.5)
        defaults.update(kwargs)
        return MiniSystem(**defaults)

    def test_dirty_eviction_goes_to_ssd_only(self):
        sys_ = self.make()
        evict_dirty(sys_, 7)
        assert sys_.disk.disk_version(7) == 0  # not written to disk
        record = sys_.ssd_manager.table.lookup(7)
        assert record.valid and record.dirty and record.version == 1

    def test_fallback_to_disk_during_checkpoint(self):
        sys_ = self.make()
        sys_.bp.checkpoint_active = True
        evict_dirty(sys_, 7)
        assert sys_.disk.disk_version(7) == 1
        assert not sys_.ssd_manager.contains_valid(7)
        assert sys_.ssd_manager.stats.fallback_disk_writes == 1

    def test_cleaner_drains_to_just_below_lambda(self):
        sys_ = self.make(dirty_threshold=0.25)  # limit = 16 of 64
        for page in range(40):
            evict_dirty(sys_, page, version=1)
        settle(sys_.env, 10.0)
        assert sys_.ssd_manager.dirty_frames <= 16
        # Cleaned pages reached the disk.
        cleaned = [p for p in range(40) if sys_.disk.disk_version(p) == 1]
        assert len(cleaned) >= 24

    def test_group_cleaning_batches_consecutive_addresses(self):
        sys_ = self.make(dirty_threshold=0.25, group_clean_pages=8)
        for page in range(40):
            evict_dirty(sys_, page, version=1)
        settle(sys_.env, 10.0)
        stats = sys_.ssd_manager.stats
        assert stats.cleaner_pages > 0
        # Consecutive dirty pages were grouped: fewer I/Os than pages.
        assert stats.cleaner_ios < stats.cleaner_pages

    def test_cleaned_pages_remain_cached_as_clean(self):
        sys_ = self.make(dirty_threshold=0.25)
        for page in range(40):
            evict_dirty(sys_, page, version=1)
        settle(sys_.env, 10.0)
        record = sys_.ssd_manager.table.lookup_valid(0)
        assert record is not None and not record.dirty

    def test_newer_ssd_version_bypasses_throttle(self):
        sys_ = self.make()
        evict_dirty(sys_, 7)  # SSD v1, disk v0
        sys_.ssd_manager.config.throttle_limit = 1
        for i in range(8):
            sys_.env.process(sys_.ssd_manager._ssd_read_frame(i % 4))

        def proc():
            return (yield from sys_.ssd_manager.try_read(7))

        assert drive(sys_.env, proc()) == 1


class TestTac:
    def make(self, **kwargs):
        defaults = dict(design="TAC", db_pages=600, bp_pages=48,
                        ssd_frames=64)
        defaults.update(kwargs)
        return MiniSystem(**defaults)

    def test_temperature_bumped_on_miss(self):
        sys_ = self.make()

        def proc():
            yield from sys_.ssd_manager.try_read(5)

        drive(sys_.env, proc())
        assert sys_.ssd_manager.temperature_of(5) > 0

    def test_extent_granularity(self):
        sys_ = self.make()
        manager = sys_.ssd_manager
        assert manager.extent_of(0) == manager.extent_of(31)
        assert manager.extent_of(31) != manager.extent_of(32)

    def test_caches_immediately_after_disk_read(self):
        sys_ = self.make()

        def proc():
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        settle(sys_.env)
        assert sys_.ssd_manager.contains_valid(5)

    def test_page_dirtied_before_write_is_skipped(self):
        """§2.5/§4.2: dirty-on-first-touch pages never reach the SSD."""
        sys_ = self.make()

        def proc():
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.mark_dirty(frame)  # dirtied before TAC's write runs
            sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        settle(sys_.env)
        assert not sys_.ssd_manager.contains_valid(5)
        assert sys_.ssd_manager.stats.missed_dirty_writes == 1

    def test_logical_invalidation_wastes_frames(self):
        sys_ = self.make()

        def proc():
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.unpin(frame)
            yield sys_.env.timeout(1.0)  # let TAC cache it
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.mark_dirty(frame)
            sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        assert sys_.ssd_manager.table.invalid_count == 1
        assert sys_.ssd_manager.table.free_count < 64

    def test_dirty_eviction_revalidates_invalid_frame(self):
        sys_ = self.make()

        def proc():
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.unpin(frame)
            yield sys_.env.timeout(1.0)
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.mark_dirty(frame)
            sys_.bp.unpin(frame)
            return frame

        frame = drive(sys_.env, proc())
        drive(sys_.env, sys_.ssd_manager.on_evict_dirty(frame))
        record = sys_.ssd_manager.table.lookup_valid(5)
        assert record is not None
        assert record.version == frame.version
        assert sys_.disk.disk_version(5) == frame.version

    def test_dirty_eviction_without_invalid_copy_skips_ssd(self):
        sys_ = self.make()
        frame = Frame(9, version=3)
        frame.dirty = True
        drive(sys_.env, sys_.ssd_manager.on_evict_dirty(frame))
        assert sys_.disk.disk_version(9) == 3
        assert not sys_.ssd_manager.contains_valid(9)

    def test_latch_held_during_post_read_write(self):
        """The §2.5 latch-contention effect: a concurrent fetch of the
        page TAC is writing to the SSD must wait."""
        sys_ = self.make()

        def first():
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.unpin(frame)

        def second():
            yield sys_.env.timeout(0.00001)
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.unpin(frame)

        sys_.env.process(first())
        sys_.env.process(second())
        settle(sys_.env)
        assert sys_.bp.stats.latch_waits >= 1

    def test_replacement_may_evict_valid_over_invalid(self):
        """§4.2: TAC's temperature heap ignores validity, so a valid page
        can be replaced while invalid ones linger."""
        sys_ = self.make(ssd_frames=4)
        manager = sys_.ssd_manager
        manager.config.fill_threshold = 1.0
        # Fill 4 frames via the TAC cache path with rising temperatures.
        for page in (0, 32, 64, 96):
            manager.temperatures[manager.extent_of(page)] = 10.0 + page
            manager.on_read_from_disk(Frame(page, version=0))
            settle(sys_.env, 0.1)
        assert manager.admission_writes == 4
        # Invalidate the hottest page: frame stays occupied.
        manager.invalidate(96)
        assert manager.table.invalid_count == 1
        # A new hot page must evict the *coldest* (page 0, valid), not
        # the invalid frame.
        manager.temperatures[manager.extent_of(200)] = 500.0
        manager.on_read_from_disk(Frame(200, version=0))
        settle(sys_.env, 0.1)
        assert manager.contains_valid(200)
        assert not manager.contains_valid(0)
        assert manager.table.invalid_count == 1  # invalid frame still wasted

    def test_an_invalidated_copy_gives_way_to_a_re_read_page(self):
        """A page whose SSD copy was invalidated and never refreshed (its
        dirty eviction found the SSD throttled) comes back from disk:
        the admission write frees the dead copy's frame and heap entry
        instead of caching the page twice."""
        sys_ = self.make(ssd_frames=4)
        manager = sys_.ssd_manager
        manager.on_read_from_disk(Frame(5, version=0))
        settle(sys_.env, 0.1)
        stale = manager.table.lookup_valid(5)
        manager.invalidate(5)
        assert manager.table.invalid_count == 1 and not manager.contains_valid(5)
        sys_.disk._persist(5, 1)
        manager.on_read_from_disk(Frame(5, version=1))
        settle(sys_.env, 0.1)
        fresh = manager.table.lookup_valid(5)
        assert fresh is not None and fresh.version == 1
        assert manager.table.invalid_count == 0 and manager.used_frames == 1
        assert manager.temp_heap.live_count == 1
        # The dead copy's frame went back to the free list and the new
        # image took the next free one.
        assert not stale.occupied and fresh is not stale
        manager.check_invariants()



def test_a_tac_tpcc_run_files_nothing_in_the_lru2_heaps():
    """TAC orders victims by temperature, so its reads must not file
    records into the LRU-2 heaps that nothing on its path ever pops
    (the base read path only stamps the record it reads).
    """
    profile = SCALE_PROFILES["tiny"]
    workload = make_workload("tpcc", 100, profile)
    system = make_system("tpcc", workload, "TAC", profile)
    WorkloadRunner(system, workload, nworkers=4).run(3.0)
    manager = system.ssd_manager
    assert manager.stats.reads > 0
    assert (len(manager.clean_heap), len(manager.dirty_heap)) == (0, 0)
