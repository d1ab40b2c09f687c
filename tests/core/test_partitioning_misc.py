"""Smaller §3.3 machinery: SSD partitioning, throttle stats, log sizing."""

from repro.core import SsdDesignConfig
from repro.engine.wal import RECORDS_PER_LOG_PAGE, WriteAheadLog
from tests.conftest import MiniSystem, drive


class TestPartitioning:
    def test_default_is_sixteen_partitions(self):
        assert SsdDesignConfig().partitions == 16


class TestWalSizing:
    def test_long_tail_needs_multiple_log_pages(self, env):
        wal = WriteAheadLog(env)
        n = RECORDS_PER_LOG_PAGE * 3 + 1
        for i in range(n):
            wal.append(i, 1)
        drive(env, wal.force(wal.tail_lsn))
        # One flush, but it had to write ceil(n / per-page) pages.
        assert wal.device.stats.pages_written >= 4

    def test_log_writes_are_sequential(self, env):
        wal = WriteAheadLog(env)
        for round_ in range(5):
            wal.append(round_, 1)
            drive(env, wal.force(wal.tail_lsn))
        stats = wal.device.stats
        from repro.storage.request import IoKind
        assert stats.by_kind[IoKind.SEQUENTIAL_WRITE] == stats.completed


class TestThrottleAccounting:
    def test_declines_counted_not_fatal(self):
        sys_ = MiniSystem(design="DW", db_pages=500, bp_pages=32,
                          ssd_frames=64, throttle_limit=1)
        # Saturate the SSD, then attempt optional caching.
        for i in range(32):
            sys_.ssd_device.read(i)
        result = drive(sys_.env,
                       sys_.ssd_manager._cache_page(400, 0, False))
        assert result is False
        assert sys_.ssd_manager.stats.declined_throttle >= 1
