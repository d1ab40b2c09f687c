"""Pins on what the redo log feeds: the redo set restart recovery reads
and the pages an SSD detach redoes to disk.

Each row runs the crash sweep's eight update clients against a small
system with periodic checkpoints, then reads the log the way recovery
(``RecoveryManager.analyze``) and degradation (``SsdManagerBase.detach``)
do.  The numbers were taken from the list-of-records log; a change to
how the log stores its records must leave every row as it is.
"""

import hashlib
import random

import pytest

from repro.core import SsdDesignConfig
from repro.engine.recovery import RecoveryManager
from repro.harness.crashpoints import _update_client
from repro.harness.system import System, SystemConfig
from tests.conftest import drive


def build(design, policy):
    system = System(SystemConfig(
        design=design, db_pages=400, bp_pages=80,
        ssd=SsdDesignConfig(ssd_frames=560), checkpoint_interval=1.0,
        checkpoint_policy=policy, slack_pages=64))
    system.start_services()
    env = system.env
    env.spawn_all(
        _update_client(env, system, random.Random(f"pin:{worker}"), {}, 400)
        for worker in range(8))
    return system


#: design, policy -> tail LSN, flushed LSN, last checkpoint LSN, redo-set
#: size and the md5 prefix of its sorted items, at t = 3.37 s.
REDO_SETS = {
    ("LC", "sharp"): (2138, 2138, 1514, 314, "73bf47bc7514"),
    ("LC", "fuzzy"): (2381, 2380, 60, 399, "d5325cf4a7a0"),
    # Re-pinned (was 1995, 1993, 1481, 295, 3661ea18aa3b) when LS's
    # checkpoints took up group cleaning: the log differs, not its reader.
    # And again (was 2051, 2051, 1438, 318, 5ed996b7917d and 2232, 2232,
    # 60, 399, 058f1c654359) when an LS batch came to close at its
    # flush's first step: the log differs, not its reader.
    ("LS", "sharp"): (2065, 2065, 1446, 320, "efe6e07de704"),
    ("LS", "fuzzy"): (2225, 2224, 29, 399, "7b8f418277b2"),
    ("DW", "sharp"): (2286, 2285, 2149, 114, "5183413a80b1"),
    ("DW", "fuzzy"): (2305, 2304, 29, 399, "b2ac0e8f440f"),
}


@pytest.mark.parametrize("design,policy", sorted(REDO_SETS))
def test_redo_set_is_pinned(design, policy):
    system = build(design, policy)
    system.env.run(until=3.37)
    wal, last = system.wal, system.checkpointer.last_checkpoint_lsn
    redo = RecoveryManager(system.env, system.disk, wal).analyze(last)
    digest = hashlib.md5(repr(sorted(redo.items())).encode()).hexdigest()
    assert (wal.tail_lsn, wal.flushed_lsn, last, len(redo),
            digest[:12]) == REDO_SETS[design, policy]


#: design, policy -> pages the detach redid from the log, and when it
#: returned, after running to t = 2.5 s.
DETACHES = {
    ("LC", "sharp"): (201, 2.7618831710390848),
    ("LC", "fuzzy"): (274, 2.8115735134591207),
    # Re-pinned (was 265, 2.82970681180618) with ``REDO_SETS``.
    ("LS", "fuzzy"): (269, 2.8324870690893507),
}


@pytest.mark.parametrize("design,policy", sorted(DETACHES))
def test_detach_redo_is_pinned(design, policy):
    system = build(design, policy)
    system.env.run(until=2.5)
    drive(system.env, system.ssd_manager.detach())
    assert (system.ssd_manager.stats.detach_redo_pages,
            system.env.now) == DETACHES[design, policy]
