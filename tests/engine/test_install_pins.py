"""Pins of how a page read into the pool enters it (Figure 3, §3.2).

A page enters the pool from the SSD or from the disk, on a miss, through
the cold-start expanded read or through a read-ahead.  Whichever way it
comes, two copy rules hold: a version the SSD served that is newer than
disk, with no valid SSD copy left (an exclusive cache handed over its
only copy), enters dirty; and a disk copy older than a valid SSD copy is
never installed.  Each pin builds a small system that breaks one rule on
one path if that path states the rule for itself, and
``BufferPool.check_invariants`` states the first rule over every
resident frame.
"""

import pytest

from repro.core import SsdDesignConfig
from repro.harness.system import System, SystemConfig
from tests.conftest import drive

#: The page whose newest copy only the SSD and the log hold.
NEWER = 14


def _system(design, **knobs):
    return System(SystemConfig(
        design=design, db_pages=500, bp_pages=64, slack_pages=0,
        ssd=SsdDesignConfig(ssd_frames=32), **knobs))


def _cache_newer(system, page=NEWER):
    """Log version 1 of ``page``, force it, and cache it dirty in the SSD
    (disk keeps version 0)."""
    lsn = system.wal.append(page, 1)
    drive(system.env, system.wal.force(lsn))
    drive(system.env, system.ssd_manager._cache_page(page, 1, True,
                                                     rec_lsn=lsn))


def _checkpoint_crash_recover(system, committed):
    drive(system.env, system.checkpointer.checkpoint())
    system.crash()
    drive(system.env, system.recover(committed))


class TestExclusiveHandOver:
    """EXCL drops the SSD copy a read serves; when that copy was the
    newest, the memory frame is the only copy besides the log, and a
    sharp checkpoint that found it clean cuts the log under it."""

    def test_a_fetched_hand_over_enters_dirty_and_survives(self):
        system = _system("EXCL")
        _cache_newer(system)
        frame = drive(system.env, system.bp.fetch(NEWER))
        system.bp.unpin(frame)
        assert (frame.version, frame.dirty) == (1, True)
        _checkpoint_crash_recover(system, {NEWER: 1})

    def test_a_read_ahead_hand_over_enters_dirty_and_survives(self):
        system = _system("EXCL")
        _cache_newer(system)
        drive(system.env, system.bp.prefetch(10, 8))
        frame = system.bp.frames[NEWER]
        entered = (frame.version, frame.dirty)
        assert not system.ssd_manager.contains_valid(NEWER)
        system.bp.check_invariants()
        _checkpoint_crash_recover(system, {NEWER: 1})
        assert entered == (1, True)


class TestExpandedRead:
    """The cold-start expanded read (§4.3.2) brings in an aligned 8-page
    run from disk; a page of the run whose SSD copy is newer keeps it."""

    def test_a_disk_copy_older_than_the_ssd_copy_is_not_installed(self):
        system = _system("LC", expand_reads=True)
        _cache_newer(system, 13)
        frame = drive(system.env, system.bp.fetch(9))
        system.bp.unpin(frame)
        frames = system.bp.frames
        assert sorted(frames) == [8, 9, 10, 11, 12, 14, 15]
        assert {frame.version for frame in frames.values()} == {0}
        system.ssd_manager.check_invariants()
        system.bp.check_invariants()
        frame = drive(system.env, system.bp.fetch(13))
        system.bp.unpin(frame)
        assert frame.version == 1


class TestNewerThanDiskInvariant:
    """``check_invariants``: a clean resident frame newer than disk has a
    valid SSD copy of its version, except while the SSD is detaching."""

    def _clean_newer_frame(self):
        system = _system("LC")
        _cache_newer(system)
        frame = drive(system.env, system.bp.fetch(NEWER))
        system.bp.unpin(frame)
        assert (frame.version, frame.dirty) == (1, False)
        system.bp.check_invariants()
        return system

    def test_a_clean_frame_newer_than_disk_without_its_ssd_copy_fails(self):
        system = self._clean_newer_frame()
        system.ssd_manager.invalidate(NEWER)
        with pytest.raises(AssertionError, match=f"page {NEWER}"):
            system.bp.check_invariants()

    def test_a_detach_in_progress_is_exempt(self):
        system = self._clean_newer_frame()
        manager = system.ssd_manager
        manager.invalidate(NEWER)
        manager.detached = True
        system.bp.check_invariants()
        manager._detach_complete.succeed()
        with pytest.raises(AssertionError, match=f"page {NEWER}"):
            system.bp.check_invariants()
