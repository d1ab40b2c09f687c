"""Pins of the read-ahead's cold paths (§3.3.3).

A read-ahead plans its SSD pages (``trim_plan``) and reads them in its
gather's entry, after the planning process step.  Three things can stop
a planned page being served by its SSD read: its copy vanished in
between, its read failed, or the SSD is being detached.  Each pin runs
one of them on a small system and records what a reader of the run could
see: the events scheduled, the version each page of the range was
installed with, and the trace.
"""

import random

from repro.faults.injector import FaultInjector
from repro.harness.system import System, SystemConfig
from repro.core import SsdDesignConfig
from repro.telemetry import Telemetry
from tests.conftest import drive, meta_free_trace_md5

#: The read-ahead's range, and the pages its SSD holds before it runs:
#: clean copies at both edges, and one newer than disk in the middle
#: (read from the SSD while the disk run discards its stale copy).
RANGE = range(10, 18)
EDGES = (10, 11, 17)
NEWER = 14


def _system(design="DW", bp_pages=64, ssd_frames=32):
    telemetry = Telemetry()
    system = System(SystemConfig(
        design=design, db_pages=500, bp_pages=bp_pages, slack_pages=0,
        ssd=SsdDesignConfig(ssd_frames=ssd_frames)), telemetry=telemetry)
    return system, telemetry


def _stock(system, newer=True):
    """Cache the edges clean and (unless not ``newer``) the middle page
    newer than disk."""
    manager = system.ssd_manager
    for page in EDGES:
        drive(system.env, manager._cache_page(page, 0, False))
    if newer:
        drive(system.env, manager._cache_page(NEWER, 1, True))
    system.env.run(until=system.env.now + 1.0)


def _outcome(system, telemetry, before):
    frames = system.bp.frames
    return (system.env._seq - before,
            {page: frames[page].version for page in RANGE if page in frames},
            meta_free_trace_md5(telemetry))


def test_copies_invalidated_after_planning_are_read_from_disk():
    system, telemetry = _system()
    _stock(system)
    manager = system.ssd_manager

    def invalidate():
        # Runs in the entry that ran the read-ahead's planning step, so
        # after the plan and before the gather's entry starts the reads.
        manager.invalidate(11)
        manager.invalidate(17)
        return
        yield

    before = system.env._seq
    drive(system.env, system.bp.prefetch(RANGE.start, len(RANGE)),
          invalidate())
    assert manager.stats.reads == 2
    system.bp.check_invariants()
    assert _outcome(system, telemetry, before) == PINNED["vanished"]


def test_reads_failed_by_a_transient_injector_are_retried_or_fall_back():
    system, telemetry = _system()
    _stock(system)
    injector = FaultInjector(system.env, system.ssd_device,
                             random.Random("read-ahead"),
                             telemetry=telemetry)
    injector.transient_p = 0.8
    before = system.env._seq
    drive(system.env, system.bp.prefetch(RANGE.start, len(RANGE)))
    # Three pages came in after retries; one optional read gave up, and
    # its page came from the disk.
    stats = system.ssd_manager.stats
    assert (stats.io_retries, stats.io_failures) == (12, 1)
    assert system.bp.stats.ssd_hits == 3
    system.bp.check_invariants()
    assert _outcome(system, telemetry, before) == PINNED["failed"]


def test_a_detach_while_the_reads_are_in_flight():
    """DW's SSD holds no page newer than its disk copy that the log must
    redo, so its detach completes at once: the reads already submitted
    land, and are installed."""
    system, telemetry = _system()
    _stock(system, newer=False)
    manager = system.ssd_manager

    def detach_mid_read():
        yield 0.0  # one hop: past the gather's entry, reads in flight
        yield 0.0
        yield from manager.detach()

    before = system.env._seq
    drive(system.env, system.bp.prefetch(RANGE.start, len(RANGE)),
          detach_mid_read())
    assert manager.detached and manager.stats.reads == len(EDGES)
    system.bp.check_invariants()
    assert _outcome(system, telemetry, before) == PINNED["detached"]


def test_a_detach_in_progress_when_the_reads_start():
    """LC's SSD holds dirty pages the detach must redo from the log
    first, so the reads find it in progress: each planned page waits it
    out, then reads the disk."""
    system, telemetry = _system(design="LC", bp_pages=32, ssd_frames=128)
    env, bp, manager = system.env, system.bp, system.ssd_manager

    def update_then_push_out():
        for page in list(RANGE) + list(range(100, 148)):
            frame = yield from bp.fetch(page)
            bp.mark_dirty(frame)
            bp.unpin(frame)

    drive(env, update_then_push_out())
    env.run(until=env.now + 1.0)
    # The whole range is planned from the SSD, and the pool has room for
    # it: the plan is made in the entry that starts the detach.
    assert all(manager.contains_valid(page) for page in RANGE)
    assert bp.free_frames >= len(RANGE)

    def detach():
        yield from manager.detach()

    reads, before = manager.stats.reads, env._seq
    drive(env, bp.prefetch(RANGE.start, len(RANGE)), detach())
    assert manager.detached and manager.stats.detach_redo_pages > 0
    assert manager.stats.reads == reads
    bp.check_invariants()
    assert _outcome(system, telemetry, before) == PINNED["detaching"]


#: name -> (events scheduled, {page: version installed}, trace md5)
PINNED = {
    "vanished": (26, {10: 0, 11: 0, 12: 0, 13: 0, 14: 1, 15: 0, 16: 0,
                      17: 0}, "f623548067afa61eb2eaf4a9e2627593"),
    "failed": (87, {10: 0, 11: 0, 12: 0, 13: 0, 14: 1, 15: 0, 16: 0, 17: 0},
               "e30bfcd213f255bd6bea831948e9a22b"),
    "detached": (21, {page: 0 for page in RANGE},
                 "47bf8b64613a5e116dd0c85439bf9805"),
    "detaching": (263, {page: 1 for page in RANGE},
                  "67e1fcedcae383206fd7fd757435ab20"),
}
