"""Unit tests for the disk manager."""

import pytest

from repro.storage import HddArray
from repro.engine.disk_manager import DiskManager
from tests.conftest import disk_ios, drive


@pytest.fixture
def disk(env):
    return DiskManager(env, HddArray(env), npages=100)


class TestReadWrite:
    def test_fresh_pages_read_as_version_zero(self, env, disk):
        versions = drive(env, disk.read(10, npages=3))
        assert versions == [0, 0, 0]

    def test_write_persists_at_completion(self, env, disk):
        drive(env, disk.write(5, version=7))
        assert disk.disk_version(5) == 7

    def test_version_not_visible_before_completion(self, env, disk):
        process = env.process(disk.write(5, version=7))
        assert disk.disk_version(5) == 0
        env.run(process)
        assert disk.disk_version(5) == 7

    def test_write_run_persists_contiguous_versions(self, env, disk):
        drive(env, disk.write_run(10, [3, 4, 5]))
        assert [disk.disk_version(p) for p in (10, 11, 12)] == [3, 4, 5]

    def test_monotone_persist_ignores_stale_writes(self, env, disk):
        drive(env, disk.write(5, version=9))
        drive(env, disk.write(5, version=3))
        assert disk.disk_version(5) == 9

    def test_stale_and_same_version_landings_are_counted(self, env, disk):
        drive(env, disk.write(5, version=9), disk.write_run(4, [2, 9]))
        assert (disk.stale_landings, disk.same_version_writes) == (0, 1)
        drive(env, disk.write(5, version=3))
        assert (disk.stale_landings, disk.same_version_writes) == (1, 1)
        assert disk.disk_version(5) == 9


class TestValidation:
    def test_read_beyond_volume_rejected(self, env, disk):
        with pytest.raises(ValueError):
            drive(env, disk.read(99, npages=2))

    def test_negative_page_rejected(self, env, disk):
        with pytest.raises(ValueError):
            drive(env, disk.write(-1, version=1))

    def test_counters_track_issued_ios(self, env, disk):
        drive(env, disk.read(0))
        drive(env, disk.write(0, 1))
        assert disk_ios(disk, "read") == 1
        assert disk_ios(disk, "write") == 1
