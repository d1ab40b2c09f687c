"""Crash points at which LS and ROT lose committed versions under
transient SSD faults (known defects, pinned and not yet mended).

Each point is one of ``harness/crashpoints.py``'s: eight update clients
on a small system with a sharp checkpoint every second, cut at a fixed
instant and recovered against the versions they committed.  A transient
fault plan fails SSD I/Os at random, and with no device death optional
SSD I/Os can run out of retries (``SsdStats.io_failures`` > 0 at each
point); at these points recovery then misses committed versions.  At
p <= 0.1 none of 20 points loses one.  Each point takes under 0.2 s.
"""

import random

import pytest

from repro.core import SsdDesignConfig
from repro.engine.recovery import RecoveryError
from repro.harness.crashpoints import _update_client
from repro.harness.system import System, SystemConfig

#: (design, fault plan, client seed index, crash instant, I/O failures).
POINTS = [
    ("LS", "transient:p=0.3:device=ssd", 2, 2.4, 6),
    ("LS", "transient:p=0.3:device=ssd", 4, 3.8, 9),
    ("ROT", "transient:p=0.6:device=ssd", 1, 1.7, 64),
    ("ROT", "transient:p=0.6:device=ssd", 3, 3.1, 114),
]


@pytest.mark.xfail(strict=True, raises=RecoveryError,
                   reason="committed versions lost after SSD I/Os ran out "
                          "of retries")
@pytest.mark.parametrize("design, faults, index, crash_at, failures", POINTS)
def test_transient_ssd_faults_lose_no_commit(design, faults, index,
                                             crash_at, failures):
    system = System(SystemConfig(
        design=design, db_pages=400, bp_pages=80,
        ssd=SsdDesignConfig(ssd_frames=64, ls_segment_pages=16,
                            ls_batch_pages=8),
        checkpoint_interval=1.0, checkpoint_policy="sharp",
        slack_pages=64), faults=faults)
    env = system.env
    system.start_services()
    committed = {}
    env.spawn_all(
        _update_client(env, system, random.Random(f"s{index}:{worker}"),
                       committed, 400)
        for worker in range(8))
    env.run(until=crash_at)
    assert system.ssd_manager.stats.io_failures == failures
    system.crash()
    env.run(env.process(system.recover(committed)))
