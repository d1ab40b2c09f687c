"""Graceful degradation on SSD death (§2.4), and the fault hardening
around the SSD managers: retry, throttle-preserve, and the LC drain
liveness machinery."""

import random

import pytest

from repro.core import SsdDesignConfig
from repro.engine.recovery import RecoveryError
from repro.faults.injector import FaultInjector
from repro.harness.crashpoints import _update_client
from repro.harness.system import System, SystemConfig
from tests.conftest import MiniSystem, drive, settle


def make(design, **kwargs):
    defaults = dict(design=design, db_pages=600, bp_pages=48, ssd_frames=96)
    defaults.update(kwargs)
    return MiniSystem(**defaults)


def kill_ssd(sys_):
    """Attach an injector to the SSD device and fail it permanently."""
    injector = FaultInjector(sys_.env, sys_.ssd_device, random.Random("die"))
    injector.kill()
    return injector


class TestDetachContinuesAsNoSsd:
    @pytest.mark.parametrize("design", ["CW", "DW", "TAC", "LC"])
    def test_detach_then_keep_serving(self, design):
        sys_ = make(design)
        sys_.churn(accesses=600, seed=11)
        drive(sys_.env, sys_.ssd_manager.detach())
        mgr = sys_.ssd_manager
        assert mgr.detached
        assert mgr.used_frames == 0
        assert drive(sys_.env, mgr.try_read(3)) is None
        # The system keeps making progress with the SSD gone.
        sys_.churn(accesses=600, seed=12)
        assert mgr.used_frames == 0  # nothing re-enters the dead SSD
        mgr.check_invariants()

    @pytest.mark.parametrize("design", ["CW", "DW", "TAC"])
    def test_write_through_designs_redo_nothing(self, design):
        """CW/DW/TAC never hold the only copy of a page: detach is just
        forgetting the mapping."""
        sys_ = make(design)
        sys_.churn(accesses=800, seed=21)
        drive(sys_.env, sys_.ssd_manager.detach())
        assert sys_.ssd_manager.stats.detach_redo_pages == 0

    def test_concurrent_detach_callers_coalesce(self):
        sys_ = make("CW")
        sys_.churn(accesses=400, seed=31)
        env, mgr = sys_.env, sys_.ssd_manager
        procs = [env.process(mgr.detach()) for _ in range(4)]
        env.run(env.all_of(procs))
        assert mgr.detached
        assert mgr._detach_complete.triggered


class TestDeviceDeathTriggersDetach:
    @pytest.mark.parametrize("design", ["CW", "DW", "TAC", "LC"])
    def test_io_observing_death_starts_degradation(self, design):
        sys_ = make(design)
        sys_.churn(accesses=800, seed=41)
        assert sys_.ssd_manager.used_frames > 0
        kill_ssd(sys_)
        # Keep working: the next SSD I/O observes the death and detaches.
        sys_.churn(accesses=800, seed=42)
        mgr = sys_.ssd_manager
        assert mgr.detached
        assert mgr.used_frames == 0
        mgr.check_invariants()


class TestLcDegradationRedo:
    def lc_with_dirty_ssd(self, seed=51):
        """An LC system whose SSD holds dirty (newer-than-disk) pages.

        Writers append WAL records before dirtying, as the real buffer
        pool does, so the degradation redo has a durable log to replay.
        """
        sys_ = make("LC", dirty_threshold=0.95)  # keep the cleaner asleep
        env, bp, wal = sys_.env, sys_.bp, sys_.wal
        rng = random.Random(seed)

        def writer():
            for _ in range(300):
                pid = rng.randrange(sys_.disk.npages)
                frame = yield from bp.fetch(pid)
                if rng.random() < 0.5:
                    lsn = bp.mark_dirty(frame)
                    bp.unpin(frame)
                    yield from wal.force(lsn)
                else:
                    bp.unpin(frame)

        procs = [env.process(writer()) for _ in range(4)]
        env.run(env.all_of(procs))
        settle(env)
        return sys_

    def test_detach_redoes_dirty_pages_to_disk(self):
        sys_ = self.lc_with_dirty_ssd()
        mgr, disk = sys_.ssd_manager, sys_.disk
        targets = [(r.page_id, r.version)
                   for r in mgr.table.occupied_records()
                   if r.valid and r.dirty
                   and r.version > disk.disk_version(r.page_id)]
        assert targets, "setup must leave SSD-only page versions behind"
        drive(sys_.env, mgr.detach())
        assert mgr.stats.detach_redo_pages == len(targets)
        for page_id, version in targets:
            assert disk.disk_version(page_id) >= version
        mgr.check_invariants()

    def test_detach_with_truncated_log_raises(self):
        """The §3.2 argument, machine-checked: if the log no longer
        covers a dirty SSD page, the SSD's death loses committed data
        and degradation must fail loudly instead of serving stale
        pages."""
        sys_ = self.lc_with_dirty_ssd(seed=52)
        mgr, wal = sys_.ssd_manager, sys_.wal
        assert mgr.dirty_frames > 0
        wal.truncate(wal.tail_lsn)  # an over-eager "checkpoint"
        with pytest.raises(RecoveryError):
            drive(sys_.env, mgr.detach())
        # Waiters must not hang while the error propagates.
        assert mgr.detached
        assert mgr._detach_complete.triggered
        assert mgr.used_frames == 0

    def test_reads_during_detach_wait_then_fall_back(self):
        sys_ = self.lc_with_dirty_ssd(seed=53)
        env, mgr = sys_.env, sys_.ssd_manager

        def miss():
            # The miss asks once the detach has begun.
            return (yield from mgr.try_read(7))

        _, version = drive(env, mgr.detach(), miss())
        assert version is None  # fell back to the now-current disk


class TestThrottlePreserve:
    def test_declined_admission_keeps_the_existing_copy(self, monkeypatch):
        """Regression: the throttle decline must happen *before* the
        existing record is dropped — drop-then-decline destroyed a valid
        SSD copy without replacing it."""
        sys_ = make("CW")
        mgr = sys_.ssd_manager
        assert drive(sys_.env, mgr._cache_page(7, 1, dirty=False))
        # Managers are slotted (RPL002): patch the class, not the instance.
        monkeypatch.setattr(type(mgr), "_throttled", lambda self: True)
        assert not drive(sys_.env, mgr._cache_page(7, 2, dirty=False))
        record = mgr.table.lookup_valid(7)
        assert record is not None and record.version == 1
        assert mgr.stats.throttle_preserved == 1
        assert mgr.stats.declined_throttle == 1

    def test_preserve_counts_only_when_a_copy_existed(self, monkeypatch):
        sys_ = make("CW")
        mgr = sys_.ssd_manager
        monkeypatch.setattr(type(mgr), "_throttled", lambda self: True)
        assert not drive(sys_.env, mgr._cache_page(8, 1, dirty=False))
        assert mgr.stats.declined_throttle == 1
        assert mgr.stats.throttle_preserved == 0


class TestLcDrainLiveness:
    """Every valid dirty SSD record has one owner, the dirty heap or the
    group batch that has it in flight; a record with neither is caught,
    not repaired."""

    def desynced_lc(self):
        """An LC manager whose dirty heap lost a record the table still
        holds dirty."""
        sys_ = make("LC", dirty_threshold=0.95)
        mgr = sys_.ssd_manager
        drive(sys_.env, mgr._cache_page(5, 3, dirty=True))
        assert mgr.dirty_frames == 1
        mgr.check_invariants()
        mgr.dirty_heap.clear()
        return sys_

    def test_a_lost_dirty_record_fails_the_invariant_check(self):
        mgr = self.desynced_lc().ssd_manager
        with pytest.raises(AssertionError, match="neither filed nor in "
                           "flight"):
            mgr.check_invariants()

    def test_a_lost_dirty_record_stalls_the_drain_loudly(self):
        sys_ = self.desynced_lc()
        mgr = sys_.ssd_manager
        with pytest.raises(RuntimeError, match="desync"):
            drive(sys_.env, mgr.on_checkpoint())
        assert mgr.dirty_frames == 1
        assert sys_.disk.disk_version(5) == 0

    def test_churn_and_a_checkpoint_keep_every_dirty_record_owned(self):
        sys_ = make("LC", dirty_threshold=0.3)
        mgr = sys_.ssd_manager
        sys_.churn(accesses=2_000, write_fraction=0.5, seed=61)
        assert mgr.dirty_frames > 0
        mgr.check_invariants()
        drive(sys_.env, mgr.on_checkpoint())
        assert mgr.dirty_frames == 0
        mgr.check_invariants()


class TestAbandonedOptionalIo:
    """SSD I/O that keeps failing without the device dying: every worker
    still finishes.  At p = 1 every SSD write is abandoned, so nothing
    is ever cached; at p = 0.5 most writes land and some *reads* run out
    of retries — the case where a worker used to wait for a detach that
    never came (the run ended with its clients still pending)."""

    @pytest.mark.parametrize("p", [1, 0.5])
    def test_every_worker_finishes(self, p):
        system = System(
            SystemConfig(design="CW", db_pages=1_200, bp_pages=64,
                         slack_pages=64, ssd=SsdDesignConfig(ssd_frames=150)),
            faults=f"transient:p={p}:device=ssd")
        system.start_services()
        env = system.env
        env.run(env.gather(
            _update_client(env, system, random.Random(f"abandoned:{worker}"),
                           {}, 1_200, ops=150)
            for worker in range(8)))
        stats = system.ssd_manager.stats
        assert stats.io_failures > 0 and not system.ssd_manager.detached
        assert bool(stats.reads) == (p < 1)
        system.ssd_manager.check_invariants()


class TestTimedSsdFaultKinds:
    """``gc_stall`` and ``ssd_chan_die`` as a plan installs them (the
    device-level effects have their own tests; these are the timers)."""

    @staticmethod
    def system(faults, ftl=False):
        return System(
            SystemConfig(design="LS", db_pages=1_200, bp_pages=64,
                         slack_pages=64, ftl=ftl,
                         ssd=SsdDesignConfig(ssd_frames=150)),
            faults=faults)

    @staticmethod
    def churn(system, until):
        env = system.env
        env.spawn_all(
            _update_client(env, system, random.Random(f"timed:{worker}"),
                           {}, 1_200)
            for worker in range(8))
        env.run(until=until)

    def test_gc_stall_forces_gc_and_freezes_the_ssd(self):
        system = self.system("gc_stall@t=1:dur=0.25", ftl=True)
        ftl = system.ssd_device.ftl
        self.churn(system, until=0.999)
        gc_runs, erases = ftl.stats.gc_runs, ftl.stats.erases
        assert system.faults.injectors["ssd"].stall_until == 0.0
        system.run(until=1.0001)
        assert system.faults.injectors["ssd"].stall_until == 1.25
        assert ftl.stats.gc_runs > gc_runs and ftl.stats.erases > erases
        system.run(until=2.0)
        # I/Os that reached a channel inside the window waited it out.
        assert system.faults.injectors["ssd"].stats["stall"] > 0
        assert not system.ssd_manager.detached
        system.ssd_manager.check_invariants()

    def test_gc_stall_without_an_ftl_is_a_plain_stall(self):
        system = self.system("gc_stall@t=0.5:dur=0.1")
        assert system.ssd_device.ftl is None
        self.churn(system, until=1.0)
        assert system.faults.injectors["ssd"].stall_until == 0.6

    def test_losing_some_channels_slows_the_survivors(self):
        system = self.system("ssd_chan_die@t=0.5:n=6")
        self.churn(system, until=0.499)
        assert system.ssd_device.channels_alive == 8
        system.run(until=1.0)
        assert system.ssd_device.channels_alive == 2
        assert not system.ssd_manager.detached
        assert "device_dead" not in system.faults.injectors["ssd"].stats

    def test_losing_every_channel_is_an_ssd_death(self):
        system = self.system("ssd_chan_die@t=0.5:n=8")
        self.churn(system, until=1.5)
        assert system.ssd_device.channels_alive == 0
        assert system.faults.injectors["ssd"].dead
        manager = system.ssd_manager
        assert manager.detached and manager._detach_complete.triggered
        assert manager.used_frames == 0
        manager.check_invariants()
