"""Unit tests for the shared SSD-manager machinery."""

import pytest

from repro.core.ssd_manager import SsdManagerBase
from repro.faults.errors import (RETRY_BASE_DELAY, RETRY_LIMIT,
                                 RETRY_MAX_DELAY, DeviceDeadError,
                                 TransientIoError)
from repro.storage import IoKind, IORequest
from tests.conftest import MiniSystem, drive, settle


def cached(sys_, page_id, version=0, dirty=False):
    """Drive the manager's cache path directly."""
    return drive(sys_.env,
                 sys_.ssd_manager._cache_page(page_id, version, dirty))


@pytest.fixture
def dw():
    return MiniSystem(design="DW", db_pages=500, bp_pages=32, ssd_frames=16)


class TestTryRead:
    def test_absent_page_returns_none(self, dw):
        def proc():
            return (yield from dw.ssd_manager.try_read(1))

        assert drive(dw.env, proc()) is None

    def test_cached_page_served(self, dw):
        cached(dw, 1, version=0)

        def proc():
            return (yield from dw.ssd_manager.try_read(1))

        assert drive(dw.env, proc()) == 0
        assert dw.ssd_manager.stats.reads == 1


class TestCaching:
    def test_cache_installs_and_writes(self, dw):
        assert cached(dw, 3) is True
        assert dw.ssd_manager.contains_valid(3)
        assert dw.ssd_device.stats.pages_written == 1

    def test_recache_same_version_is_free(self, dw):
        cached(dw, 3)
        writes = dw.ssd_device.stats.pages_written
        assert cached(dw, 3) is True
        assert dw.ssd_device.stats.pages_written == writes

    def test_full_ssd_evicts_lru2_victim(self, dw):
        for page in range(16):
            cached(dw, page)
        # Re-read page 0 so it has a two-access history (hot).
        drive(dw.env, dw.ssd_manager.try_read(0))
        assert cached(dw, 100) is True
        assert dw.ssd_manager.stats.evictions == 1
        assert dw.ssd_manager.contains_valid(0)
        assert dw.ssd_manager.contains_valid(100)

    def test_throttle_declines_optional_io(self, dw):
        dw.ssd_manager.config.throttle_limit = 1
        # Saturate the SSD with background reads.
        for i in range(16):
            cached(dw, i)
        dw.env.spawn_all(dw.ssd_manager.try_read(i) for i in range(16))
        before = dw.ssd_manager.stats.declined_throttle
        result = cached(dw, 200)
        assert result is False
        assert dw.ssd_manager.stats.declined_throttle > before


class TestInvalidation:
    def test_invalidate_frees_frame_physically(self, dw):
        cached(dw, 5)
        dw.ssd_manager.invalidate(5)
        assert not dw.ssd_manager.contains_valid(5)
        assert dw.ssd_manager.table.free_count == 16
        assert dw.ssd_manager.stats.invalidations == 1

    def test_invalidate_absent_is_noop(self, dw):
        dw.ssd_manager.invalidate(5)
        assert dw.ssd_manager.stats.invalidations == 0


class TestTrimPlan:
    def test_all_disk_when_ssd_empty(self, dw):
        plan = dw.ssd_manager.trim_plan(list(range(10, 18)))
        assert (plan.disk_start, plan.disk_count) == (10, 8)
        assert not plan.ssd_pages

    def test_leading_and_trailing_trim(self, dw):
        cached(dw, 10)
        cached(dw, 11)
        cached(dw, 17)
        plan = dw.ssd_manager.trim_plan(list(range(10, 18)))
        assert (plan.disk_start, plan.disk_count) == (12, 5)
        assert sorted(plan.ssd_pages) == [10, 11, 17]

    def test_middle_same_version_stays_in_disk_run(self, dw):
        cached(dw, 14)  # middle page, same version as disk
        plan = dw.ssd_manager.trim_plan(list(range(10, 18)))
        assert (plan.disk_start, plan.disk_count) == (10, 8)
        assert not plan.ssd_pages

    def test_middle_newer_version_read_from_ssd(self, dw):
        cached(dw, 14, version=3, dirty=True)  # newer than disk (v0)
        plan = dw.ssd_manager.trim_plan(list(range(10, 18)))
        assert plan.disk_count == 8
        assert list(plan.ssd_pages) == [14]
        assert plan.skip_in_run == frozenset({14})

    def test_fully_cached_run_has_no_disk_io(self, dw):
        for page in range(10, 14):
            cached(dw, page)
        plan = dw.ssd_manager.trim_plan(list(range(10, 14)))
        assert plan.disk_count == 0
        assert sorted(plan.ssd_pages) == [10, 11, 12, 13]

    def test_empty_plan(self, dw):
        plan = dw.ssd_manager.trim_plan([])
        assert plan.disk_count == 0


class TestCrashRestart:
    def test_cold_crash_clears_table(self, dw):
        cached(dw, 1)
        dw.ssd_manager.crash_reset()
        assert dw.ssd_manager.used_frames == 0

    def test_warm_crash_keeps_clean_drops_dirty(self):
        sys_ = MiniSystem(design="LC", db_pages=500, bp_pages=32,
                          ssd_frames=16, warm_restart=True)
        cached(sys_, 1, version=0, dirty=False)
        cached(sys_, 2, version=4, dirty=True)
        sys_.ssd_manager.crash_reset()
        assert sys_.ssd_manager.contains_valid(1)
        assert not sys_.ssd_manager.contains_valid(2)

    def test_restart_drops_stale_clean_frames(self):
        sys_ = MiniSystem(design="DW", db_pages=500, bp_pages=32,
                          ssd_frames=16, warm_restart=True)
        cached(sys_, 1, version=0)
        # Redo advanced the disk past the SSD copy.
        sys_.disk._persist(1, 7)
        sys_.ssd_manager.crash_reset()
        sys_.ssd_manager.on_restart()
        assert not sys_.ssd_manager.contains_valid(1)


class ScriptedFaults:
    """An injector that fails the next ``failures`` completions with a
    transient error, or — ``dead`` — refuses every submission."""

    def __init__(self, device, failures=0, dead=False):
        self.failures = failures
        self.dead = dead
        device.attach_faults(self)

    def on_submit(self, request):
        return DeviceDeadError("scripted") if self.dead else None

    def pre_service_delay(self, request, service):
        return 0.0

    def on_complete(self, request):
        if self.failures > 0:
            self.failures -= 1
            return TransientIoError("scripted")
        return None


class InstantLog:
    """An enabled tracer that keeps ``(now, name, args)`` per instant."""

    enabled = True

    def __init__(self, env):
        self.env = env
        self.instants = []

    def instant(self, name, cat="event", track="main", args=None, ctx=None):
        self.instants.append((self.env.now, name, args))

    def complete(self, *args, **kwargs):
        pass

    def named(self, name):
        return [(now, args) for now, what, args in self.instants
                if what == name]


class TestRetryPath:
    """One SSD I/O whose first k attempts fail: how often it is retried,
    when, and what gives up (``_ssd_io``'s contract, attempt for
    attempt)."""

    @staticmethod
    def system():
        sys_ = MiniSystem(design="LC", db_pages=500, bp_pages=32,
                          ssd_frames=16)
        log = sys_.ssd_manager._tracer = InstantLog(sys_.env)
        return sys_, sys_.ssd_manager, log

    @staticmethod
    def failure_instants(start, service, failures):
        """When attempts 1..failures fail: each a service time after it
        was submitted, the next submitted a backoff delay later (base
        delay, doubled per retry, capped)."""
        instants, now, delay = [], start, RETRY_BASE_DELAY
        for _ in range(failures):
            now = now + service
            instants.append(now)
            now = now + delay
            delay = min(delay * 2, RETRY_MAX_DELAY)
        return instants

    # (failures, must, succeeds): an optional I/O gives up on the
    # failure after its RETRY_LIMIT-th retry; a must I/O never does, and
    # from its sixth retry on waits the capped delay.
    CASES = [(1, False, True), (RETRY_LIMIT, False, True),
             (RETRY_LIMIT + 1, False, False),
             (1, True, True), (RETRY_LIMIT + 1, True, True),
             (RETRY_LIMIT + 3, True, True)]

    @pytest.mark.parametrize("failures, must, succeeds", CASES)
    def test_read_retries(self, failures, must, succeeds):
        sys_, manager, log = self.system()
        cached(sys_, 1)
        frame_no = manager.table.lookup_valid(1).frame_no
        ScriptedFaults(sys_.ssd_device, failures=failures)
        start = sys_.env.now
        service = sys_.ssd_device.service_time(
            IORequest(IoKind.RANDOM_READ, frame_no, 1))
        ok = drive(sys_.env, manager._ssd_read_frame(frame_no, must=must))
        assert ok is succeeds
        assert manager.stats.io_retries == failures
        assert manager.stats.io_failures == (0 if succeeds else 1)
        retries = log.named("io_retry")
        assert [args["attempt"] for _, args in retries] == list(
            range(1, failures + 1))
        assert [now for now, _ in retries] == self.failure_instants(
            start, service, failures)
        assert sys_.ssd_device.stats.pages_read == (1 if succeeds else 0)
        assert not manager.detached

    @pytest.mark.parametrize(
        "failures, succeeds",
        [(failures, succeeds) for failures, must, succeeds in CASES
         if not must])      # an SSD write is always optional
    def test_write_retries(self, failures, succeeds):
        sys_, manager, log = self.system()
        ScriptedFaults(sys_.ssd_device, failures=failures)
        service = sys_.ssd_device.service_time(
            IORequest(IoKind.RANDOM_WRITE, 0, 1))
        assert cached(sys_, 1) is succeeds
        # A write that was given up leaves no record claiming the page.
        assert manager.contains_valid(1) is succeeds
        assert manager.stats.writes == 1
        assert manager.stats.io_retries == failures
        assert manager.stats.io_failures == (0 if succeeds else 1)
        retries = log.named("io_retry")
        assert [args["attempt"] for _, args in retries] == list(
            range(1, failures + 1))
        assert [now for now, _ in retries] == self.failure_instants(
            0.0, service, failures)

    def test_a_retried_read_still_serves_the_page(self):
        sys_, manager, _ = self.system()
        cached(sys_, 1, version=3, dirty=True)    # newer than disk: must
        ScriptedFaults(sys_.ssd_device, failures=RETRY_LIMIT + 1)
        assert drive(sys_.env, manager.try_read(1)) == 3
        assert manager.stats.reads == 1
        assert manager.stats.io_retries == RETRY_LIMIT + 1
        assert manager.stats.io_failures == 0

    def test_an_abandoned_optional_read_falls_back_to_disk(self):
        """It used to take every failed read for a device death and wait
        for a detach that, after an exhausted budget, never came."""
        sys_, manager, _ = self.system()
        cached(sys_, 1)         # as new as the disk copy: optional
        ScriptedFaults(sys_.ssd_device, failures=RETRY_LIMIT + 1)
        assert drive(sys_.env, manager.try_read(1)) is None
        sys_.env.run()
        assert manager.stats.io_failures == 1

    @pytest.mark.parametrize("direction", ["read", "write"])
    def test_a_dead_device_detaches_once(self, direction, monkeypatch):
        sys_, manager, log = self.system()
        cached(sys_, 1)
        detaches = []
        detach = SsdManagerBase.detach
        monkeypatch.setattr(
            SsdManagerBase, "detach",
            lambda self, *args: detaches.append(self) or detach(self, *args))
        ScriptedFaults(sys_.ssd_device, dead=True)
        if direction == "read":
            assert drive(sys_.env, manager.try_read(1)) is None
        else:
            assert cached(sys_, 2) is False
        settle(sys_.env)
        assert detaches == [manager]
        assert len(log.named("ssd_detached")) == 1
        assert manager.detached and manager.used_frames == 0
        # Death is not a retry: nothing was counted, nothing waited for.
        assert manager.stats.io_retries == manager.stats.io_failures == 0
        assert log.named("io_retry") == []


class TestCleanPath:
    def test_io_that_does_not_fail_builds_no_retry_loop(self, monkeypatch):
        """Every single-frame SSD read and write of a fault-free run
        yields its device event directly: ``_ssd_io`` is for failures."""
        calls = []
        ssd_io = SsdManagerBase._ssd_io
        monkeypatch.setattr(
            SsdManagerBase, "_ssd_io",
            lambda self, *args, **kw: calls.append(args) or ssd_io(
                self, *args, **kw))
        sys_ = MiniSystem(design="LC", db_pages=800, bp_pages=64,
                          ssd_frames=200, dirty_threshold=0.05)
        sys_.churn(accesses=3_000, write_fraction=0.3, seed=13)
        stats = sys_.ssd_manager.stats
        assert stats.reads > 100 and stats.writes > 100
        assert stats.cleaner_pages > 0      # the cleaner's reads too
        assert calls == []


class TestEndToEndInvariants:
    @pytest.mark.parametrize("design", ["CW", "DW", "LC", "TAC"])
    def test_invariants_hold_after_churn(self, design):
        sys_ = MiniSystem(design=design, db_pages=800, bp_pages=64,
                          ssd_frames=200)
        sys_.churn(accesses=3_000, write_fraction=0.3, seed=13)
        sys_.ssd_manager.check_invariants()

    @pytest.mark.parametrize("design", ["DW", "LC", "TAC", "LS"])
    def test_heap_and_table_bookkeeping_is_checked_too(self, design):
        sys_ = MiniSystem(design=design, db_pages=800, bp_pages=64,
                          ssd_frames=200)
        sys_.churn(accesses=3_000, write_fraction=0.3, seed=13)
        manager = sys_.ssd_manager
        heaps = manager._heaps()
        assert sorted(heaps) == (["clean", "dirty", "temp"]
                                 if design == "TAC" else ["clean", "dirty"])
        for name, heap in heaps.items():
            if not heap.live_count:
                continue
            heap._live += 1
            with pytest.raises(AssertionError, match="tallied"):
                manager.check_invariants()
            heap._live -= 1
        manager.table.segment_valid[0] += 1
        with pytest.raises(AssertionError, match="segments hold"):
            manager.check_invariants()
        manager.table.segment_valid[0] -= 1
        manager.check_invariants()
