"""Tests for the related-work designs (paper §5): rotating SSD and the
exclusive approach."""

import random

import pytest

from repro.engine.page import Frame
from repro.engine.recovery import simulate_crash_and_recover
from repro.harness.crashpoints import _update_client
from repro.harness.system import System, SystemConfig
from repro.core import SsdDesignConfig
from repro.storage.request import IoKind
from repro.telemetry import Telemetry
from tests.conftest import MiniSystem, drive, settle


def evict_clean(sys_, page_id, version=0):
    frame = Frame(page_id, version=version)
    drive(sys_.env, sys_.ssd_manager.on_evict_clean(frame))


def dirty_frame(page_id, version):
    frame = Frame(page_id, version=version)
    frame.dirty = True
    return frame


def evict_dirty(sys_, page_id, version=1):
    drive(sys_.env, sys_.ssd_manager.on_evict_dirty(
        dirty_frame(page_id, version)))


class TestRotating:
    def make(self, frames=4):
        return MiniSystem(design="ROT", db_pages=500, bp_pages=32,
                          ssd_frames=frames)

    def test_frames_claimed_in_rotation(self):
        sys_ = self.make(frames=4)
        for page in range(4):
            evict_clean(sys_, page)
        assert [r.page_id for r in sys_.ssd_manager.table.records] == [0, 1, 2, 3]

    def test_rotation_displaces_even_hot_pages(self):
        """The design's defining weakness: the pointer evicts whatever is
        in the next frame, hot or not."""
        sys_ = self.make(frames=2)
        evict_clean(sys_, 0)
        evict_clean(sys_, 1)
        # Make page 0 hot.
        drive(sys_.env, sys_.ssd_manager.try_read(0))
        drive(sys_.env, sys_.ssd_manager.try_read(0))
        evict_clean(sys_, 9)  # rotates into frame 0, displacing hot page 0
        assert not sys_.ssd_manager.contains_valid(0)
        assert sys_.ssd_manager.contains_valid(9)

    def test_ssd_writes_are_sequential(self):
        sys_ = self.make(frames=8)
        for page in range(8):
            evict_clean(sys_, page)
        stats = sys_.ssd_device.stats
        assert stats.by_kind[IoKind.SEQUENTIAL_WRITE] == 8
        assert stats.by_kind[IoKind.RANDOM_WRITE] == 0

    def test_every_admission_shows_in_the_trace(self):
        """ROT installed and counted its writes but never emitted the
        ``admit`` instant every other layout emits."""
        telemetry = Telemetry()
        system = System(
            SystemConfig(design="ROT", db_pages=1_200, bp_pages=64,
                         slack_pages=64, ssd=SsdDesignConfig(ssd_frames=150)),
            telemetry=telemetry)
        env = system.env
        env.run(env.gather(
            _update_client(env, system, random.Random(f"rot:{worker}"), {},
                           1_200, ops=100)
            for worker in range(4)))
        admits = [event for event in telemetry.tracer.events
                  if event.name == "admit"]
        assert len(admits) == system.ssd_manager.stats.writes > 150

    def test_displaced_newer_page_copied_to_disk(self):
        sys_ = self.make(frames=1)
        evict_dirty(sys_, 7, version=3)
        assert sys_.disk.disk_version(7) == 0
        evict_clean(sys_, 8)  # displaces page 7, whose copy is newest
        assert sys_.disk.disk_version(7) == 3

    def test_checkpoint_flushes_dirty_pages(self):
        sys_ = self.make(frames=8)
        for page in range(6):
            evict_dirty(sys_, page, version=2)
        drive(sys_.env, sys_.checkpointer.checkpoint())
        assert sys_.ssd_manager.dirty_frames == 0
        for page in range(6):
            assert sys_.disk.disk_version(page) == 2


class TestExclusive:
    def make(self, frames=64):
        return MiniSystem(design="EXCL", db_pages=500, bp_pages=32,
                          ssd_frames=frames)

    def test_read_removes_ssd_copy(self):
        sys_ = self.make()
        evict_clean(sys_, 5)
        assert sys_.ssd_manager.contains_valid(5)

        def proc():
            return (yield from sys_.ssd_manager.try_read(5))

        assert drive(sys_.env, proc()) == 0
        assert not sys_.ssd_manager.contains_valid(5)

    def test_page_never_in_both_levels(self):
        sys_ = self.make()
        sys_.churn(accesses=2_000, write_fraction=0.3, span=300, seed=17)
        for record in sys_.ssd_manager.table.occupied_records():
            if record.valid:
                assert record.page_id not in sys_.bp.frames, record

    def test_dirty_handoff_marks_memory_frame_dirty(self):
        """Reading the SSD's only newest copy makes the frame dirty so
        durability machinery keeps covering it."""
        sys_ = self.make()
        evict_dirty(sys_, 5, version=4)  # SSD-only newest copy

        def proc():
            frame = yield from sys_.bp.fetch(5)
            sys_.bp.unpin(frame)
            return frame

        frame = drive(sys_.env, proc())
        assert frame.version == 4
        assert frame.dirty
        assert not sys_.ssd_manager.contains_valid(5)

    def test_crash_safety(self):
        system = System(SystemConfig(
            design="EXCL", db_pages=600, bp_pages=48,
            ssd=SsdDesignConfig(ssd_frames=200, dirty_threshold=0.9)))
        import random
        rng = random.Random(23)
        oracle = {}

        def worker():
            for _ in range(300):
                page = rng.randrange(300)
                frame = yield from system.bp.fetch(page)
                if rng.random() < 0.5:
                    system.bp.mark_dirty(frame)
                    written = (frame.page_id, frame.version)
                else:
                    written = None
                system.bp.unpin(frame)
                if written:
                    yield from system.wal.force(system.wal.tail_lsn)
                    oracle[written[0]] = max(oracle.get(written[0], 0),
                                             written[1])

        drive(system.env, worker())
        settle(system.env)
        drive(system.env, system.checkpointer.checkpoint())
        drive(system.env, simulate_crash_and_recover(
            system.env, system, committed=oracle))

    def test_invariants_after_churn(self):
        sys_ = self.make()
        sys_.churn(accesses=2_000, write_fraction=0.4, span=300, seed=29)
        sys_.ssd_manager.check_invariants()


#: The write-back designs whose frames are reused in place.  (LS reuses a
#: frame only after cleaning its whole segment, and its drain is the same
#: base method ROT and EXCL run.)
WRITE_BACK = ["LC", "ROT", "EXCL"]


@pytest.mark.parametrize("design", WRITE_BACK)
class TestCheckpointFlushUnderConcurrency:
    """The checkpoint's flush of dirty SSD pages yields on I/O; what the
    rest of the system does meanwhile must not lose or mislabel a page.
    ROT and EXCL used to hand-roll this flush and got each case wrong."""

    def make(self, design, frames):
        return MiniSystem(design=design, db_pages=500, bp_pages=32,
                          ssd_frames=frames)

    def flush_until_mid_read(self, sys_):
        """Start the SSD flush and stop inside its first SSD read."""
        flush = sys_.env.process(sys_.ssd_manager.on_checkpoint())
        sys_.env.run(until=sys_.env.now + 1e-4)
        assert sys_.ssd_device.pending == 1 and not flush.triggered
        return flush

    def test_record_invalidated_during_the_ssd_read(self, design):
        sys_ = self.make(design, frames=4)
        evict_dirty(sys_, 7, version=3)
        flush = self.flush_until_mid_read(sys_)
        sys_.ssd_manager.invalidate(7)  # page 7 re-dirtied in the pool
        sys_.env.run(flush)
        assert sys_.ssd_manager.dirty_frames == 0
        assert not sys_.ssd_manager.contains_valid(7)

    def test_record_reused_during_the_ssd_read(self, design):
        """A page is copied back SSD -> memory -> disk: the flush may
        not write (and mark clean) a page image it never read."""
        sys_ = self.make(design, frames=1)
        evict_dirty(sys_, 7, version=3)
        flush = self.flush_until_mid_read(sys_)
        sys_.ssd_manager.invalidate(7)
        sys_.env.spawn_all(
            [sys_.ssd_manager.on_evict_dirty(dirty_frame(9, 5))])
        sys_.env.run(flush)
        settle(sys_.env)
        reads = sys_.ssd_device.stats.by_kind[IoKind.RANDOM_READ]
        assert reads == 2  # page 7's image, then page 9's own
        assert sys_.disk.disk_version(9) == 5
        assert sys_.ssd_manager.dirty_frames == 0
        sys_.ssd_manager.check_invariants()

    def test_dirty_eviction_landing_mid_checkpoint(self, design):
        """§3.2: no new dirty page is cached while a checkpoint runs, or
        it is flushed by nobody before the log is cut."""
        sys_ = self.make(design, frames=16)
        for page in range(6):
            evict_dirty(sys_, page, version=2)
        checkpoint = sys_.env.process(sys_.checkpointer.checkpoint())
        sys_.env.run(until=sys_.env.now + 5e-3)
        assert sys_.bp.checkpoint_active
        sys_.env.spawn_all(
            [sys_.ssd_manager.on_evict_dirty(dirty_frame(40, 2))])
        sys_.env.run(checkpoint)
        assert sys_.ssd_manager.dirty_frames == 0
        assert sys_.ssd_manager.stats.fallback_disk_writes == 1
        settle(sys_.env)
        committed = {page: 2 for page in (0, 1, 2, 3, 4, 5, 40)}
        drive(sys_.env, simulate_crash_and_recover(sys_.env, sys_,
                                                   committed=committed))


def test_excl_keeps_a_newest_copy_read_during_a_checkpoint():
    """The hand-over race: the checkpoint snapshots dirty memory frames
    first and flushes dirty SSD pages last.  A newest copy handed from
    the SSD to memory in between is in neither set — so EXCL leaves it
    in the SSD until the checkpoint is over."""
    sys_ = MiniSystem(design="EXCL", db_pages=500, bp_pages=32,
                      ssd_frames=16)
    for page in range(6):
        evict_dirty(sys_, page, version=2)
    checkpoint = sys_.env.process(sys_.checkpointer.checkpoint())
    sys_.env.run(until=sys_.env.now + 1e-3)
    assert sys_.bp.checkpoint_active

    def read_last():
        frame = yield from sys_.bp.fetch(5)
        sys_.bp.unpin(frame)
        return frame

    frame = drive(sys_.env, read_last())
    assert sys_.bp.checkpoint_active  # the read landed mid-checkpoint
    assert frame.version == 2
    sys_.env.run(checkpoint)
    drive(sys_.env, simulate_crash_and_recover(
        sys_.env, sys_, committed={page: 2 for page in range(6)}))
