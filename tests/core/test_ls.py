"""Tests for the log-structured (LS) design (DESIGN.md §10).

The properties under test are LS's contract: admissions batch into
sequential log appends (never random SSD writes), the mapping tolerates
supersede-in-place and tail reclamation, newest-copy pages reach disk
before their log entry is dropped, checkpoints drain staged batches, and
the on-flash journal replays into a warm mapping after a crash.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core import design_class
from repro.core.ls import LogStructuredManager
from repro.storage import IoKind
from repro.engine.page import Frame
from repro.engine.recovery import simulate_crash_and_recover
from repro.faults.errors import RETRY_LIMIT
from tests.conftest import MiniSystem, drive, settle
from tests.core.test_ssd_manager import ScriptedFaults


def ls_system(db_pages=2_000, bp_pages=100, ssd_frames=500, **kwargs):
    return MiniSystem(design="LS", db_pages=db_pages, bp_pages=bp_pages,
                      ssd_frames=ssd_frames, **kwargs)


def admit(system, page_id, version=1, dirty=False, rec_lsn=0):
    """Drive one page admission through the group-commit path."""
    return drive(system.env,
                 system.ssd_manager._cache_page(page_id, version, dirty,
                                                rec_lsn=rec_lsn))


class TestRegistration:
    def test_ls_is_a_registered_design(self):
        assert design_class("LS") is LogStructuredManager
        assert LogStructuredManager.name == "LS"


class TestGroupCommit:
    def test_single_admission_lands(self):
        system = ls_system()
        assert admit(system, 7) is True
        manager = system.ssd_manager
        assert manager.contains_valid(7)
        assert manager.used_frames == 1
        assert manager._free_slots == system.ssd_manager.config.ssd_frames - 1

    def test_full_batch_is_striped_sequential_writes(self):
        system = ls_system(ssd_frames=500)
        manager = system.ssd_manager
        batch_pages = manager.config.ls_batch_pages
        procs = [system.env.process(
            manager._cache_page(pid, 1, False)) for pid in range(batch_pages)]
        system.env.run(system.env.all_of(procs))
        assert manager.used_frames == batch_pages
        # One batch, one striped write wave: at most one sequential
        # sub-request per channel, never a random write.
        seq_writes = system.ssd_device.stats.by_kind.get(
            IoKind.SEQUENTIAL_WRITE, 0)
        assert 1 <= seq_writes <= system.ssd_device.channels.capacity
        assert system.ssd_device.stats.pages_written == batch_pages
        assert system.ssd_device.stats.by_kind.get(IoKind.RANDOM_WRITE, 0) == 0

    def test_log_discipline_no_random_ssd_writes_ever(self):
        system = ls_system()
        system.churn(accesses=4_000, write_fraction=0.4, seed=3)
        assert system.ssd_device.stats.by_kind.get(IoKind.RANDOM_WRITE, 0) == 0
        assert system.ssd_device.stats.by_kind.get(
            IoKind.SEQUENTIAL_WRITE, 0) > 0
        system.ssd_manager.check_invariants()

    def test_a_staged_admission_writes_in_its_own_instant(self):
        """The flush takes its first step in the instant its batch
        opened: one admission staged with no time advanced already has
        its sequential SSD write out."""
        system = ls_system()
        system.env.process(system.ssd_manager._cache_page(3, 1, False))
        system.env.run(until=0)
        assert system.ssd_device.pending == 1
        assert system.ssd_device.stats.by_kind.get(
            IoKind.SEQUENTIAL_WRITE, 0) == 0    # issued, not landed

    def test_admissions_staged_in_one_entry_form_one_batch(self):
        system = ls_system()
        manager = system.ssd_manager
        landed = system.env.run(system.env.gather(
            manager._cache_page(pid, 1, False) for pid in range(5)))
        assert landed == [True] * 5
        assert (manager.batches, manager.batch_pages) == (1, 5)

    def test_an_admission_during_a_flush_opens_a_concurrent_batch(self):
        system = ls_system()
        env, manager = system.env, system.ssd_manager
        first = env.process(manager._cache_page(1, 1, False))
        env.run(until=1e-5)
        assert system.ssd_device.pending == 1 and manager._batch is None
        second = env.process(manager._cache_page(2, 1, False))
        env.run(until=2e-5)
        assert system.ssd_device.pending == 2   # both writes in flight
        assert env.run(env.all_of([first, second])) == {first: True,
                                                        second: True}
        assert (manager.batches, manager.batch_pages) == (2, 2)

    def test_a_batch_at_the_cap_closes(self):
        system = ls_system()
        manager = system.ssd_manager
        cap = manager.config.ls_batch_pages
        procs = [system.env.process(manager._cache_page(pid, 1, False))
                 for pid in range(cap + 3)]
        system.env.run(until=0)
        assert len(manager._pending_batches) == 2
        assert [len(batch.entries)
                for batch in manager._pending_batches] == [cap, 3]
        system.env.run(system.env.all_of(procs))
        assert (manager.batches, manager.batch_pages) == (2, cap + 3)


class TestSupersede:
    def test_readmission_supersedes_in_place(self):
        system = ls_system()
        manager = system.ssd_manager
        assert admit(system, 9, version=1, dirty=True)
        assert admit(system, 9, version=2, dirty=True)
        record = manager.table.lookup_valid(9)
        assert record is not None and record.version == 2
        # The old entry died where it lay: both slots stay consumed.
        assert manager._free_slots == manager.config.ssd_frames - 2
        assert manager.table.invalid_count == 1
        manager.check_invariants()

    def test_two_admissions_in_flight_install_in_staging_order(self):
        """v1 of page 7 is staged in a batch too large for the free
        slots, whose flush waits for a segment reclaim; v2 is staged
        later, alone, fits and lands first.  The entry v1's batch then
        writes is older than the page's valid one: it binds dead, live
        and when a crash replays the log."""
        system = ls_system(db_pages=400, bp_pages=16, ssd_frames=32,
                           ls_segment_pages=8, ls_batch_pages=8)
        env, manager = system.env, system.ssd_manager
        env.run(env.gather(manager._cache_page(100 + n, 0, False)
                           for n in range(28)))
        assert manager._free_slots == 4
        first = env.process(manager._cache_page(7, 1, True, rec_lsn=1))
        for n in range(7):
            env.process(manager._cache_page(200 + n, 0, False))
        env.run(until=env.now + 1e-5)
        assert manager._reclaim_busy is not None  # v1's batch waits on it
        second = env.process(manager._cache_page(7, 2, True, rec_lsn=2))
        assert env.run(second) is True
        assert first.callbacks is not None  # v2 landed first
        assert env.run(first) is True
        manager.check_invariants()  # v1's entry, landed, is not the newest
        settle(env)
        assert manager.table.lookup_valid(7).version == 2
        manager.check_invariants()
        system.crash()
        assert manager.table.lookup_valid(7).version == 2

    def test_invalidate_is_logical(self):
        system = ls_system()
        manager = system.ssd_manager
        assert admit(system, 4, version=1)
        free_before = manager._free_slots
        manager.invalidate(4)
        assert not manager.contains_valid(4)
        assert manager._free_slots == free_before  # slot freed only at tail
        assert manager.stats.invalidations == 1


class TestTailReclaim:
    def test_wraparound_reclaims_segments(self):
        # DB far larger than the log forces the head all the way around.
        system = ls_system(db_pages=2_000, bp_pages=50, ssd_frames=200)
        system.churn(accesses=6_000, write_fraction=0.4, seed=11)
        manager = system.ssd_manager
        assert manager.reclaims > 0, "log never wrapped"
        assert manager.used_frames == (manager.config.ssd_frames
                                       - manager._free_slots)
        manager.check_invariants()

    def test_newest_dirty_copy_reaches_disk_before_drop(self):
        """check_invariants() after heavy churn proves no dirty newest
        copy was dropped: a lost version would leave a clean record
        whose version disagrees with disk."""
        system = ls_system(db_pages=1_000, bp_pages=40, ssd_frames=150)
        system.churn(accesses=8_000, write_fraction=0.5, seed=13)
        manager = system.ssd_manager
        assert manager.reclaim_flushes > 0, "no dirty flushes happened"
        manager.check_invariants()
        # And the engine still serves reads afterwards.
        system.churn(accesses=500, write_fraction=0.0, seed=14)

    def test_victim_is_picked_from_the_tally_not_from_a_scan(self,
                                                             monkeypatch):
        """The pick reads one number per segment — the table's tally of
        valid copies — and no record; the tally is what a scan of the
        segment's frames counts, at every pick of a churning run."""
        system = ls_system(db_pages=2_000, bp_pages=50, ssd_frames=200,
                           ls_segment_pages=16)
        manager = system.ssd_manager
        picks = []
        pick = LogStructuredManager._pick_victim

        def checked_pick(self):
            table = self.table
            table.check_invariants()
            records, table.records = table.records, None
            try:
                victim = pick(self)     # touches no record
            finally:
                table.records = records
            picks.append(victim)
            closed = [seg for seg in self._seg_seq
                      if seg not in (self._open[0], self._cold[0])]
            scanned = {
                seg: sum(r.valid for r in records[seg * 16:(seg + 1) * 16])
                for seg in closed or self._seg_seq}
            assert victim == min(
                scanned, key=lambda seg: (scanned[seg], self._seg_seq[seg]),
                default=None)
            return victim

        monkeypatch.setattr(LogStructuredManager, "_pick_victim",
                            checked_pick)
        system.churn(accesses=6_000, write_fraction=0.4, seed=11)
        assert len(picks) > 20 and None not in picks
        assert manager.table.segment_pages == 16
        assert len(manager.table.segment_valid) == 13   # 12 x 16 + 8
        manager.check_invariants()

    def test_reclaim_trims_the_segment(self):
        from repro.storage.ftl import FtlConfig
        from repro.storage import Ssd
        from repro.sim import Environment

        env = Environment()
        system = MiniSystem(design="LS", db_pages=1_000, bp_pages=40,
                            ssd_frames=150, env=env)
        # Swap in an FTL-backed device before any traffic.
        system.ssd_device = Ssd(env, ftl=FtlConfig(pages_per_block=8),
                                logical_pages=150)
        system.ssd_manager.device = system.ssd_device
        system.churn(accesses=6_000, write_fraction=0.4, seed=17)
        ftl = system.ssd_device.ftl
        assert system.ssd_manager.reclaims > 0
        assert ftl.stats.trims > 0
        # The log pattern keeps device-level WAF at exactly 1.0.
        assert ftl.waf == pytest.approx(1.0)

    @pytest.mark.parametrize("frames", [64, 200])
    def test_an_idle_full_small_log_stops_reclaiming(self, frames):
        """The reclaimer drains toward a high-water mark of free slots;
        on a log too small to reach it, it cleaned and relocated the
        same entries without end (64 frames: ~194 reclaims and ~6,200
        relocated pages per virtual second, with nothing admitted)."""
        system = ls_system(bp_pages=16, ssd_frames=frames)
        env, manager = system.env, system.ssd_manager
        env.run(env.gather(manager._cache_page(n, 0, False)
                           for n in range(frames)))
        settle(env)
        reclaims, relocations = manager.reclaims, manager.relocations
        settle(env, 1.0)
        assert (manager.reclaims, manager.relocations) == (reclaims,
                                                          relocations)
        manager.check_invariants()


class TestCheckpoint:
    def test_oldest_dirty_lsn_includes_staged_batches(self):
        system = ls_system()
        manager = system.ssd_manager
        system.env.process(manager._cache_page(2, 1, True, rec_lsn=5))
        system.env.run(until=1e-6)  # staged but not yet flushed
        assert manager.oldest_dirty_rec_lsn() == 5

    def test_checkpoint_waits_on_staged_batches_in_staging_order(self):
        """Three batches in flight: which ``done`` event the checkpoint
        parks on first must not depend on where the allocator put the
        batch objects (they hash by identity)."""
        system = ls_system(ls_batch_pages=4)
        manager, env = system.ssd_manager, system.env
        for pid in range(10):       # two full batches flushing, one open
            env.process(manager._cache_page(pid, 1, True, rec_lsn=pid))
        env.run(until=1e-6)
        staged = sorted(manager._pending_batches,
                        key=lambda batch: batch.entries[0][0])
        assert [len(batch.entries) for batch in staged] == [4, 4, 2]
        assert not any(batch.done.triggered for batch in staged)
        # Drive the checkpoint by hand to see each event it waits on.
        checkpoint = manager.on_checkpoint()
        waited, event = [], next(checkpoint)
        while True:
            waited.append(event)
            env.run(event)
            try:
                event = checkpoint.send(event.value)
            except StopIteration:
                break
        assert waited[0] is staged[0].done
        done_events = [batch.done for batch in staged]
        assert [event for event in waited if event in done_events] == [
            event for event in done_events if event in waited]
        assert manager.dirty_frames == 0

    def test_checkpoint_drains_all_dirty_entries(self):
        system = ls_system(db_pages=1_000, bp_pages=40, ssd_frames=300)
        system.churn(accesses=3_000, write_fraction=0.5, seed=19)
        manager = system.ssd_manager
        # The background reclaimer may have cleaned everything the churn
        # left behind; stage fresh dirty entries the checkpoint must
        # drain (version far above anything the churn produced, pages
        # not resident in the pool — these admissions bypass the BP).
        pids = [p for p in range(system.disk.npages)
                if system.bp.get_resident(p) is None][:24]
        for pid in pids:
            assert admit(system, pid, version=1_000, dirty=True,
                         rec_lsn=7)
        assert manager.dirty_frames > 0
        drive(system.env, manager.on_checkpoint())
        assert manager.dirty_frames == 0
        manager.check_invariants()


class TestDetach:
    def test_ssd_die_degrades_to_no_ssd(self):
        system = ls_system(db_pages=1_000, bp_pages=40, ssd_frames=300)
        system.churn(accesses=2_000, write_fraction=0.5, seed=23)
        manager = system.ssd_manager
        drive(system.env, manager.detach())
        assert manager.detached
        assert manager.used_frames == 0
        assert manager._free_slots == manager.config.ssd_frames
        assert not manager._journal
        # The engine keeps running SSD-less.
        system.churn(accesses=1_000, write_fraction=0.4, seed=24)
        manager.check_invariants()

    def test_admission_declined_after_detach(self):
        system = ls_system()
        drive(system.env, system.ssd_manager.detach())
        assert admit(system, 1) is False


class TestFailedBatchWrite:
    def test_a_batch_whose_write_is_abandoned_is_rolled_back(self):
        """The device fails a batch's write past the retry budget: its
        frames are disowned (consumed, but mapping nothing), their
        journal entries are gone, and the waiters — here two dirty
        evictions — fall back to disk."""
        system = ls_system()
        manager = system.ssd_manager
        assert admit(system, 1, version=0) is True
        # Two pages stripe into two one-page writes; each gives up after
        # its first attempt and RETRY_LIMIT retries have all failed.
        faults = ScriptedFaults(system.ssd_device,
                                failures=2 * (RETRY_LIMIT + 1))
        frames = []
        for page_id in (7, 8):
            frame = Frame(page_id, version=3)
            frame.dirty = True
            frames.append(frame)
        drive(system.env, *(manager.on_evict_dirty(frame) for frame in frames))
        assert faults.failures == 0
        assert manager.stats.io_failures == 2
        assert manager.stats.fallback_disk_writes == 2
        assert [system.disk.disk_version(pid) for pid in (7, 8)] == [3, 3]
        assert not manager.contains_valid(7) and not manager.contains_valid(8)
        # Log discipline: the two slots stay consumed until their
        # segment is cleaned, but nothing can replay them.
        assert manager.used_frames == 3 and manager.table.valid_count == 1
        assert manager._free_slots == manager.config.ssd_frames - 3
        assert sorted(manager._journal) == [
            manager.table.lookup_valid(1).frame_no]
        assert manager.batches == 1 and not manager._pending_batches
        manager.check_invariants()
        # The next batch lands as if nothing had happened.
        assert admit(system, 9, version=0) is True
        manager.check_invariants()


def crash(system):
    """Hard crash, the way System.crash sequences it: DRAM dies first
    (buffer pool), then the SSD manager replays its on-flash journal."""
    system.bp.crash_reset()
    system.ssd_manager.crash_reset()


class TestCrashReplay:
    def _crashed_system(self, seed=29):
        system = ls_system(db_pages=1_000, bp_pages=40, ssd_frames=300)
        system.churn(accesses=3_000, write_fraction=0.5, seed=seed)
        return system

    def test_replay_rebuilds_the_mapping(self):
        system = self._crashed_system()
        manager = system.ssd_manager
        before = {r.page_id: (r.version, r.dirty)
                  for r in manager.table.occupied_records() if r.valid}
        crash(system)  # replays the journal
        after = {r.page_id: (r.version, r.dirty)
                 for r in manager.table.occupied_records() if r.valid}
        # Every live entry comes back; entries that were only *logically*
        # invalidated (in-DRAM state, lost in the crash) may resurrect —
        # on_restart weeds those out against the redone disk.
        assert before.items() <= after.items()

    def test_one_crash_replays_the_journal_once(self):
        system = self._crashed_system()
        manager = system.ssd_manager
        instants = []
        manager._tracer = SimpleNamespace(
            enabled=True,
            instant=lambda name, *rest: instants.append((name, rest[-1])))
        entries = len(manager._journal)
        assert entries > 0
        drive(system.env, simulate_crash_and_recover(system.env, system))
        assert manager.replays == entries == len(manager._journal)
        assert instants == [("ls_log_replay", {"entries": entries})]

    def test_on_crash_is_idempotent(self):
        """A second crash replays the same mapping."""
        system = self._crashed_system()
        manager = system.ssd_manager
        crash(system)
        once = {r.page_id: r.version
                for r in manager.table.occupied_records() if r.valid}
        crash(system)
        twice = {r.page_id: r.version
                 for r in manager.table.occupied_records() if r.valid}
        assert twice == once

    def test_restart_keeps_only_disk_matching_versions_clean(self):
        system = self._crashed_system()
        manager = system.ssd_manager
        crash(system)
        manager.on_restart()
        assert manager.dirty_frames == 0
        for record in manager.table.occupied_records():
            if record.valid:
                assert not record.dirty
                assert record.version == system.disk.disk_version(
                    record.page_id)
        manager.check_invariants()
        # Warm restart: the survivors keep serving hits.
        system.churn(accesses=500, write_fraction=0.2, seed=31)
        manager.check_invariants()


class TestDeterminism:
    def test_identical_seeds_identical_log_state(self):
        def run():
            system = ls_system(db_pages=1_000, bp_pages=40, ssd_frames=200)
            system.churn(accesses=4_000, write_fraction=0.4, seed=37)
            manager = system.ssd_manager
            return (list(manager._open), manager._free_slots,
                    manager.stats.writes, manager.stats.cleaner_pages,
                    sorted(manager._journal.items()),
                    system.env.now)

        assert run() == run()
