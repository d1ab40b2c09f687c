"""What every SSD manager owes the engine, written once.

Each test runs against every entry of ``DESIGNS``, so an obligation is
stated here rather than per design, and a new design is tested by being
registered.  The system is small enough for the SSD to fill within a
second (1,200 pages, a 64-page pool, 150 SSD frames, λ = 0.2): the
write-back designs replace, clean, fall back and flush at checkpoints.
"""

import random

import pytest

from repro.core import DESIGNS, SsdDesignConfig
from repro.engine.page import Frame
from repro.engine.recovery import simulate_crash_and_recover
from repro.harness.crashpoints import _update_client
from repro.harness.system import System, SystemConfig
from repro.telemetry import Telemetry
from tests.conftest import drive, settle

DB_PAGES = 1_200

pytestmark = pytest.mark.parametrize("design", sorted(DESIGNS))


def build(design, checkpoint_interval=None, telemetry=None, faults=None,
          **ssd_kwargs):
    ssd = SsdDesignConfig(ssd_frames=0 if design == "noSSD" else 150,
                          dirty_threshold=0.2, ls_segment_pages=16,
                          **ssd_kwargs)
    system = System(SystemConfig(design=design, db_pages=DB_PAGES,
                                 bp_pages=64, slack_pages=64, ssd=ssd,
                                 checkpoint_interval=checkpoint_interval),
                    telemetry=telemetry, faults=faults)
    system.start_services()
    return system


def clients(system, committed, ops=None, tag="client"):
    """Eight update clients tracking the committed-version oracle."""
    return [_update_client(system.env, system,
                           random.Random(f"contract:{tag}:{worker}"),
                           committed, DB_PAGES, ops=ops)
            for worker in range(8)]


def churn(system, committed, ops, tag="client"):
    """Run bounded clients to completion, then let evictions land."""
    system.env.run(system.env.gather(clients(system, committed, ops, tag)))
    settle(system.env, 1.0)


def test_checkpoint_returns_with_nothing_only_in_the_ssd(design):
    """§3.2: when the log is cut, no page version lives in the SSD alone
    — although evictions kept arriving while the checkpoint ran."""
    system = build(design)
    env, manager = system.env, system.ssd_manager
    env.spawn_all(clients(system, {}))
    env.run(until=1.5)

    def checkpoint_then_look():
        evicted = system.bp.stats.evictions_dirty
        yield from system.checkpointer.checkpoint()
        # Same step as the truncate: nothing else has run since.
        assert system.bp.stats.evictions_dirty > evicted
        assert manager.dirty_frames == 0
        redoable = {}
        for rec in system.wal.records_since(
                system.checkpointer.last_checkpoint_lsn):
            redoable[rec.page_id] = max(rec.version,
                                        redoable.get(rec.page_id, -1))
        for record in manager.table.occupied_records():
            durable = max(system.disk.disk_version(record.page_id),
                          redoable.get(record.page_id, -1))
            assert not record.valid or record.version <= durable, record

    drive(env, checkpoint_then_look())


def test_figure_3_holds_after_churn_and_after_detach(design):
    system = build(design, checkpoint_interval=0.5)
    manager = system.ssd_manager
    churn(system, {}, ops=150)
    manager.check_invariants()
    assert manager.used_frames >= manager.config.ssd_frames // 2
    drive(system.env, manager.detach())
    assert manager.detached and manager.used_frames == 0
    churn(system, {}, ops=60, tag="degraded")
    manager.check_invariants()
    assert manager.used_frames == 0  # nothing re-enters the dead SSD


def test_page_dirtied_in_the_pool_is_not_valid_in_the_ssd(design):
    system = build(design)
    bp, manager = system.bp, system.ssd_manager
    churn(system, {}, ops=100)
    for frame in bp.dirty_frames():
        assert not manager.contains_valid(frame.page_id)
    cached = [record.page_id for record in manager.table.occupied_records()
              if record.valid][:10]

    def dirty_each():
        for page_id in cached:
            frame = yield from bp.fetch(page_id)
            bp.mark_dirty(frame)
            bp.unpin(frame)
            assert not manager.contains_valid(page_id)

    drive(system.env, dirty_each())


def test_committed_versions_survive_ssd_death(design):
    """§2.4: the SSD dies mid-run, after checkpoints have truncated the
    log; the design degrades to noSSD and loses nothing."""
    system = build(design, checkpoint_interval=0.5, faults="ssd_die@t=1.2")
    committed = {}
    churn(system, committed, ops=200)
    assert system.env.now > 1.2 and committed
    assert system.ssd_manager.detached
    drive(system.env, system.checkpointer.checkpoint())
    lost = {page: (version, system.disk.disk_version(page))
            for page, version in committed.items()
            if system.disk.disk_version(page) < version}
    assert not lost


#: registry counter -> the ``SsdStats`` field it must equal.
COUNTERS = {
    "ssd_mgr_reads_total": "reads",
    "ssd_mgr_writes_total": "writes",
    "ssd_mgr_invalidations_total": "invalidations",
    "ssd_mgr_declined_throttle_total": "declined_throttle",
    "ssd_mgr_evictions_total": "evictions",
    "ssd_mgr_fallback_disk_writes_total": "fallback_disk_writes",
    "ssd_mgr_retries_total": "io_retries",
    "ssd_mgr_throttle_preserved_total": "throttle_preserved",
}


def test_registry_counters_equal_ssd_stats(design):
    """``--metrics`` and the dashboard read the registry; reports read
    ``SsdStats``.  They are two views of the same events."""
    telemetry = Telemetry()
    system = build(design, checkpoint_interval=0.5, telemetry=telemetry,
                   faults="transient:p=0.01", throttle_limit=2)
    churn(system, {}, ops=150)
    stats = system.ssd_manager.stats
    scraped = {name: telemetry.registry.get(name).value for name in COUNTERS}
    assert scraped == {name: getattr(stats, field)
                       for name, field in COUNTERS.items()}
    if design != "noSSD":
        assert stats.reads and stats.writes and stats.evictions
        assert stats.declined_throttle and stats.io_retries


def test_background_cleaning_resumes_after_a_crash(design):
    """A design that cleans in the background (LC and LS: above λ, down
    to the target) does so again after ``crash_reset()``: the cleaner
    died with the event queue and its wake-up must be armed anew.  ROT
    and EXCL write back without a cleaner and keep what they are given;
    the write-through designs never hold a dirty frame."""
    system = build(design)
    env, manager = system.env, system.ssd_manager
    limit = manager.config.dirty_limit_frames

    def drains(first_page, version):
        """Push the dirty count past λ; is it back under it a second on?"""
        frames = [Frame(first_page + offset, version=version)
                  for offset in range(limit + 1)]
        for frame in frames:
            frame.dirty = True
        env.run(env.gather(manager.on_evict_dirty(frame)
                           for frame in frames))
        settle(env, 1.0)
        manager.check_invariants()
        return manager.dirty_frames <= manager.config.clean_target_frames

    cleans = design not in ("ROT", "EXCL")
    assert drains(0, version=1) is cleans
    drive(env, simulate_crash_and_recover(env, system))
    assert drains(200, version=2) is cleans
