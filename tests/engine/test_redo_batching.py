"""Recovery redo runs in concurrent waves; batching must change only
the clock, never which pages are redone."""

from repro.engine.checkpoint import FLUSH_BATCH
from repro.engine.recovery import RecoveryManager
from tests.conftest import MiniSystem, drive


def seed_log(sys_, npages):
    """Durably log version 1 for pages 0..npages-1 (disk holds v0)."""
    for page_id in range(npages):
        sys_.wal.append(page_id, 1)
    drive(sys_.env, sys_.wal.force(sys_.wal.tail_lsn))


class TestRedoBatching:
    def test_redo_count_equals_the_redo_set(self):
        sys_ = MiniSystem(db_pages=500)
        npages = 3 * FLUSH_BATCH + 5  # several full waves plus a ragged one
        seed_log(sys_, npages)
        recovery = RecoveryManager(sys_.env, sys_.disk, sys_.wal)
        redo_set = recovery.analyze(-1)
        assert len(redo_set) == npages
        redone = drive(sys_.env, recovery.redo(-1))
        assert redone == npages == recovery.pages_redone
        for page_id in range(npages):
            assert sys_.disk.disk_version(page_id) == 1

    def test_already_current_pages_are_skipped(self):
        sys_ = MiniSystem(db_pages=500)
        seed_log(sys_, 40)
        for page_id in range(0, 40, 2):
            drive(sys_.env, sys_.disk.write(page_id, 1))
        recovery = RecoveryManager(sys_.env, sys_.disk, sys_.wal)
        assert drive(sys_.env, recovery.redo(-1)) == 20

    def test_waves_overlap_page_ios(self):
        """A wave of FLUSH_BATCH read+write pairs must take far less than
        their serial sum — that slowdown is what made the crash-point
        sweep quadratic in the redo-set size."""
        sys_ = MiniSystem(db_pages=500)
        seed_log(sys_, FLUSH_BATCH)
        recovery = RecoveryManager(sys_.env, sys_.disk, sys_.wal)
        started = sys_.env.now
        drive(sys_.env, recovery.redo(-1))
        elapsed = sys_.env.now - started

        # Serial baseline: one page redone at a time.
        serial_sys = MiniSystem(db_pages=500)
        seed_log(serial_sys, FLUSH_BATCH)

        def serial():
            for page_id in range(FLUSH_BATCH):
                yield from serial_sys.disk.read(page_id, 1, sequential=False)
                yield from serial_sys.disk.write(page_id, 1)

        started = serial_sys.env.now
        drive(serial_sys.env, serial())
        serial_elapsed = serial_sys.env.now - started
        assert elapsed < serial_elapsed / 2

    def test_idempotent_under_rerun(self):
        sys_ = MiniSystem(db_pages=500)
        seed_log(sys_, 30)
        recovery = RecoveryManager(sys_.env, sys_.disk, sys_.wal)
        assert drive(sys_.env, recovery.redo(-1)) == 30
        assert drive(sys_.env, recovery.redo(-1)) == 0
