"""Regression tests for subtle LC write-back hazards found during
development.  Each of these corresponds to a way the newest copy of a
page could silently become unreachable — the class of bug the paper's
§3.2 checkpoint discussion is about."""

import pytest

from repro.engine.page import Frame
from tests.conftest import MiniSystem, drive, settle


def make_lc(**kwargs):
    defaults = dict(design="LC", db_pages=600, bp_pages=48, ssd_frames=64,
                    dirty_threshold=0.9)
    defaults.update(kwargs)
    return MiniSystem(**defaults)


def dirty_frame(page_id, version):
    frame = Frame(page_id, version=version)
    frame.dirty = True
    return frame


def evict_dirty(sys_, page_id, version):
    drive(sys_.env, sys_.ssd_manager.on_evict_dirty(
        dirty_frame(page_id, version)))


class TestCleanButNewerReCache:
    """A page whose newest copy lives only in the SSD is read back
    *clean*; if its SSD record is then replaced and the page evicted
    clean, the newest version must not be re-cached as clean."""

    def test_clean_evict_of_newer_version_recaches_dirty(self):
        sys_ = make_lc()
        manager = sys_.ssd_manager
        frame = Frame(7, version=3)  # newer than disk (v0), but clean
        drive(sys_.env, manager.on_evict_clean(frame))
        record = manager.table.lookup_valid(7)
        assert record is not None
        assert record.dirty  # must be flushable by cleaner/checkpoint

    def test_clean_evict_of_newer_version_falls_back_to_disk(self):
        """If the SSD cannot take the page, the newest copy goes to disk
        rather than being dropped."""
        sys_ = make_lc(ssd_frames=1)
        manager = sys_.ssd_manager
        # Occupy the single frame with a *dirty* record so the clean
        # heap has no victim.
        evict_dirty(sys_, 1, version=2)
        frame = Frame(7, version=3)
        drive(sys_.env, manager.on_evict_clean(frame))
        assert sys_.disk.disk_version(7) == 3

    def test_recovered_after_checkpoint(self):
        """End-to-end: the re-cached-dirty page survives checkpoint +
        crash."""
        sys_ = make_lc()
        manager = sys_.ssd_manager
        lsn = sys_.wal.append(7, 3)
        drive(sys_.env, sys_.wal.force(lsn))
        frame = Frame(7, version=3)
        drive(sys_.env, manager.on_evict_clean(frame))
        drive(sys_.env, sys_.checkpointer.checkpoint())
        assert sys_.disk.disk_version(7) == 3


class TestCleanerIdentityGuard:
    """The cleaner must not mark a record clean if, during its I/O, the
    record was invalidated and reused for a different page/version."""

    def test_reused_record_is_not_marked_clean(self):
        """One SSD frame: the page a clean batch reads is invalidated
        while the read is in flight, and its record bound to another
        dirty page at once.  The batch lands and must leave the new page
        dirty, and the record must carry nothing of the old page's
        history into either heap."""
        sys_ = make_lc(ssd_frames=1, dirty_threshold=1.0)
        env, manager = sys_.env, sys_.ssd_manager
        evict_dirty(sys_, 10, version=1)
        record = manager.table.lookup_valid(10)
        env.run(until=env.now + 0.5)
        drive(env, manager.try_read(10))    # stamps the old page's access
        assert record.lru_stamp > 0
        batch = env.process(manager._clean_batch())
        env.run(until=env.now + 1e-6)       # the batch's SSD read is out
        assert record.frame_no in manager._cleaning_frames
        manager.invalidate(10)              # released ...
        reuse = env.process(manager.on_evict_dirty(dirty_frame(99, 5)))
        env.run(until=env.now + 1e-6)
        assert manager.table.lookup_valid(99) is record  # ... and reused
        assert record.lru_stamp == 0
        env.run(batch)
        env.run(reuse)
        assert batch.value == 1             # the batch did land
        assert record.holds(99, 5) and record.dirty
        assert sys_.disk.disk_version(99) == 0
        manager.check_invariants()
        assert (manager.clean_heap.live_count,
                manager.dirty_heap.live_count) == (0, 1)
        assert manager.clean_heap.pop() is None
        assert manager.dirty_heap.pop() is record
        assert record.prev_access == float("-inf")

    def test_heavy_churn_preserves_invariants(self):
        sys_ = make_lc(db_pages=400, bp_pages=32, ssd_frames=50,
                       dirty_threshold=0.2)
        sys_.churn(accesses=4_000, write_fraction=0.5, span=200, seed=21)
        sys_.ssd_manager.check_invariants()

    def test_no_dirty_page_stranded_after_checkpoint(self):
        """After a checkpoint, every SSD-resident version must equal its
        disk version (nothing left newer-but-clean)."""
        sys_ = make_lc(db_pages=400, bp_pages=32, ssd_frames=50,
                       dirty_threshold=0.8)
        sys_.churn(accesses=2_000, write_fraction=0.5, span=200, seed=22)
        drive(sys_.env, sys_.checkpointer.checkpoint())
        settle(sys_.env)
        for record in sys_.ssd_manager.table.occupied_records():
            if record.valid:
                assert record.version <= sys_.disk.disk_version(record.page_id)


class TestCleanerConcurrency:
    def test_parallel_cleaner_keeps_up_at_low_lambda(self):
        """A λ=1% setting must actually be enforced under write load —
        the serial-cleaner failure mode let dirty pages pile up
        unboundedly."""
        sys_ = make_lc(ssd_frames=200, dirty_threshold=0.05,
                       cleaner_concurrency=8)
        for page in range(150):
            evict_dirty(sys_, page, version=1)
        settle(sys_.env, 15.0)
        assert sys_.ssd_manager.dirty_frames <= 10
