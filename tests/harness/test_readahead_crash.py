"""Crash a TPC-H run after a checkpoint, for every design.

The crash-point sweep (``harness/crashpoints.py``) drives update clients
that fetch one page at a time, so no read-ahead runs in it.  Here the
tiny TPC-H run (scans with read-ahead, refreshes that commit through the
log) checkpoints every 0.1 s and is cut at two instants: 0.3 s, inside
the power test, and 0.5 s, inside the throughput test.  Restart recovery
must find every version whose log record the run forced, on every design.
About 0.5 s for the whole matrix.
"""

import pytest

from repro.core import DESIGNS
from repro.harness.experiments import (SCALE_PROFILES, make_system,
                                       make_workload)

TINY = SCALE_PROFILES["tiny"]
CRASH_AT = (0.3, 0.5)


@pytest.mark.parametrize("crash_at", CRASH_AT)
@pytest.mark.parametrize("design", list(DESIGNS))
def test_a_crash_after_a_checkpoint_loses_no_commit(design, crash_at):
    committed = {}
    workload = make_workload("tpch", 30, TINY, oracle=committed)
    system = make_system("tpch", workload, design, TINY,
                         checkpoint_interval=0.1)
    workload.setup(system)
    system.start_services()
    env = system.env
    env.spawn(workload.full_run(system))
    env.run(until=crash_at)
    assert system.checkpointer.checkpoints_taken >= 2
    assert committed
    system.crash()
    env.run(env.process(system.recover(committed)))
