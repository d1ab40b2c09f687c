"""The one retry step against the three loops it replaced.

A scripted injector gives one request's attempts their outcomes — ok,
transient, dead mid-flight, rejected at submit — and the request goes once
through today's caller (``DiskManager``, the WAL flusher, the SSD manager;
each reaches :func:`repro.faults.errors.retry_io` only from its ``except
IoFault``) and once through the caller's old loop
(``tests/storage/reference_retry.py``) on an identical fresh system.  Same
``io_retry`` instants with the same arguments, same counters, same
outcome, same clock, same attempts consumed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.disk_manager import DiskManager
from repro.engine.wal import WriteAheadLog
from repro.faults.errors import IoFault
from repro.sim import Environment
from repro.storage import HddArray, IoKind, IORequest
from tests.conftest import MiniSystem, drive, settle
from tests.core.test_ssd_manager import InstantLog
from tests.engine.test_retry_pins import DISK_OPS, Outcomes
from tests.storage import reference_retry

OUTCOMES = st.sampled_from(["ok", "transient", "dead", "reject"])
#: Any mix of outcomes, or — what a budget and the backoff cap are about —
#: a run of transients and then whatever ends it.
SCRIPTS = st.one_of(
    st.lists(OUTCOMES, max_size=10),
    st.builds(lambda failures, ending: ["transient"] * failures + ending,
              st.integers(0, 9), st.lists(OUTCOMES, max_size=2)))


def outcome_of(run):
    """What ``run()`` came to: its value, or the fault that ended it."""
    try:
        return "returned", run()
    except IoFault as fault:
        return type(fault).__name__, str(fault)


def disk_run(op, script, old):
    env = Environment()
    disk = DiskManager(env, HddArray(env), npages=100)
    log = disk._tracer = InstantLog(env)
    faults = Outcomes(disk.device, script)
    step, kind, npages = DISK_OPS[op]
    if old:
        outcome = outcome_of(lambda: drive(env, reference_retry.disk_submit(
            disk, IORequest(kind, 40, npages))))
    else:
        outcome = outcome_of(lambda: drive(env, step(disk)))
        # What the step does after its I/O is not the retry's business.
        outcome = (outcome[0], None) if outcome[0] == "returned" else outcome
    return (outcome, disk.retries, log.instants, env.now, faults.script,
            disk.device.pending)


def log_run(script, old):
    env = Environment()
    wal = WriteAheadLog(env)
    log = wal._tracer = InstantLog(env)
    faults = Outcomes(wal.device, script)
    lsn = wal.append(7, 1)
    if old:
        outcome = outcome_of(lambda: drive(
            env, reference_retry.log_flush_with_retry(
                wal, IORequest(IoKind.SEQUENTIAL_WRITE, 0, 1))))
    else:
        env.process(wal.force(lsn))
        outcome = outcome_of(env.run)   # the flusher is nobody's child
    return (outcome, wal.flush_retries, log.instants, env.now, faults.script,
            wal.device.pending)


def ssd_run(entry, script, must, old):
    sys_ = MiniSystem(design="LC", db_pages=500, bp_pages=32, ssd_frames=16)
    manager, device, env = sys_.ssd_manager, sys_.ssd_device, sys_.env
    log = manager._tracer = InstantLog(env)
    faults = Outcomes(device, script)

    def read():
        return device.submit(IORequest(IoKind.RANDOM_READ, 3, 1))

    if old:
        step = reference_retry.ssd_io(manager, read, must)
    elif entry == "frame":
        step = manager._ssd_read_frame(3, must=must)
    else:
        step = manager._ssd_io(IORequest(IoKind.RANDOM_READ, 3, 1), must)
    outcome = outcome_of(lambda: drive(env, step))
    finished = env.now
    settle(env)                         # a detach the death started
    return (outcome, manager.stats.io_retries, manager.stats.io_failures,
            log.instants, finished, faults.script, device.pending,
            manager.detached)


@settings(deadline=None)
@given(script=SCRIPTS, op=st.sampled_from(sorted(DISK_OPS)))
def test_disk_manager_matches_its_old_loop(script, op):
    assert disk_run(op, script, old=False) == disk_run(op, script, old=True)


@settings(deadline=None)
@given(script=SCRIPTS)
def test_log_flush_matches_its_old_loop(script):
    assert log_run(script, old=False) == log_run(script, old=True)


@settings(deadline=None)
@given(script=SCRIPTS, must=st.booleans(),
       entry=st.sampled_from(["frame", "thunk"]))
def test_ssd_manager_matches_its_old_loop(script, must, entry):
    assert (ssd_run(entry, script, must, old=False)
            == ssd_run(entry, script, must, old=True))


@pytest.mark.parametrize("must", [False, True])
def test_the_scripts_reach_every_ending(must):
    """The differential is not vacuous: a must read outlasts nine
    transients, an optional one spends its budget, death detaches."""
    spent = ssd_run("frame", ["transient"] * 9, must, old=False)
    assert spent[0] == ("returned", must)
    assert spent[1] == (9 if must else 5)
    dead = ssd_run("thunk", ["transient", "dead"], must, old=False)
    assert dead[0] == ("returned", None) and dead[-1] is True
