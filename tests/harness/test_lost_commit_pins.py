"""Crash points at which LS and ROT lost committed versions under
transient SSD faults, and the property that no write-back design does.

Each point is one of ``harness/crashpoints.py``'s: eight update clients
on a small system with a sharp checkpoint every second, cut at a fixed
instant and recovered against the versions they committed.  A transient
fault plan fails SSD I/Os at random, and with no device death optional
SSD I/Os can run out of retries (``SsdStats.io_failures`` > 0 at each
point).  LS lost commits when its segment reclaimer's relocation write,
an optional I/O, gave up after the old entries were gone; ROT when a
placement displaced a newer dirty page another placement had put in the
frame while it copied the old one back.  Without those two mends every
point but the first loses commits (the first lost them before the
designs cleaned by group batches).  Each point takes under 0.2 s.
The first two LS points' failure counts were re-pinned (were 3 and 3)
when an entry the reclaimer relocates while a clean batch has it in
flight came to stay that batch's: LS cleans fewer pages twice.  All
three LS counts were re-pinned again (were 1, 4 and 4) when an LS
admission batch came to close at its flush's first step: the batches,
and so the I/Os that fail, are others.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SsdDesignConfig
from repro.harness.crashpoints import _update_client
from repro.harness.system import System, SystemConfig

#: (design, fault plan, client seed index, crash instant, I/O failures).
POINTS = [
    ("LS", "transient:p=0.3:device=ssd", 2, 2.4, 2),
    ("LS", "transient:p=0.3:device=ssd", 4, 3.8, 2),
    ("LS", "transient:p=0.3:device=ssd", 5, 2.4, 2),
    ("ROT", "transient:p=0.6:device=ssd", 1, 1.7, 65),
    ("ROT", "transient:p=0.6:device=ssd", 3, 3.1, 93),
]


def point_system(design, faults):
    return System(SystemConfig(
        design=design, db_pages=400, bp_pages=80,
        ssd=SsdDesignConfig(ssd_frames=64, ls_segment_pages=16,
                            ls_batch_pages=8),
        checkpoint_interval=1.0, checkpoint_policy="sharp",
        slack_pages=64), faults=faults)


def run_clients(system, index, until):
    """Start the services and the eight clients, and run to ``until``;
    returns the versions they committed."""
    env = system.env
    system.start_services()
    committed = {}
    env.spawn_all(
        _update_client(env, system, random.Random(f"s{index}:{worker}"),
                       committed, 400)
        for worker in range(8))
    env.run(until=until)
    return committed


def crash_and_recover(design, faults, index, crash_at):
    """Run the clients to ``crash_at``, crash and recover; recovery
    raises ``RecoveryError`` on a lost commit.  Returns the system's
    SSD I/O failures before the crash."""
    system = point_system(design, faults)
    env = system.env
    committed = run_clients(system, index, crash_at)
    failures = system.ssd_manager.stats.io_failures
    system.crash()
    env.run(env.process(system.recover(committed)))
    return failures


@pytest.mark.parametrize("design, faults, index, crash_at, failures", POINTS)
def test_transient_ssd_faults_lose_no_commit(design, faults, index,
                                             crash_at, failures):
    assert crash_and_recover(design, faults, index, crash_at) == failures


# A tenth of the profile's examples: 10 in tier-1 (about 2 s), 100 under
# ``--hypothesis-profile=thorough`` (CI).
@settings(max_examples=settings.default.max_examples // 10, deadline=None)
@given(design=st.sampled_from(["LC", "LS", "EXCL", "ROT"]),
       p=st.floats(min_value=0.05, max_value=0.6),
       index=st.integers(min_value=0, max_value=10_000),
       crash_at=st.floats(min_value=0.1, max_value=4.0))
def test_no_write_back_design_loses_a_commit_to_transient_ssd_faults(
        design, p, index, crash_at):
    crash_and_recover(design, f"transient:p={p}:device=ssd", index, crash_at)


@pytest.mark.xfail(strict=True, reason=(
    "a copy-back or a clean batch writes the version it captured before "
    "its SSD read retried, while a newer one already reached the disk"))
def test_no_disk_write_is_issued_older_than_the_disk_image():
    """At the first ROT point, ``_copy_back`` (a placement's) captured
    page 136 v2, retried its must-read of the SSD copy, and meanwhile v3
    reached the disk: the write it then issues would take the disk
    backwards, and only ``DiskManager._persist``'s guard drops it.
    ``_clean_batch`` can do the same after its SSD reads.  The writes
    are checked as they are issued, not as they land."""
    system = point_system("ROT", "transient:p=0.6:device=ssd")
    disk = system.disk
    stale = []

    def checked(write):
        def issue(page_id, versions, ctx=None):
            pages = versions if isinstance(versions, list) else [versions]
            stale.extend(
                (system.env.now, page_id + offset, version)
                for offset, version in enumerate(pages)
                if version < disk.disk_version(page_id + offset))
            return write(page_id, versions, ctx)
        return issue

    disk.write, disk.write_run = checked(disk.write), checked(disk.write_run)
    run_clients(system, 1, 1.7)
    assert stale == []
