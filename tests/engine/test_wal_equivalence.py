"""The packed redo log against the list-of-records log it replaced.

One random script runs once against ``repro.engine.wal.WriteAheadLog``
and once against ``tests/engine/reference_wal.py`` on an identical fresh
log device: appends (page updates and fuzzy-checkpoint markers), forces
that are waited for or left in flight, time passing, truncations and
crashes (``System.crash()``'s order: the log disk, the event queue, the
log).  After every step both logs must give the same ``tail_lsn``,
``flushed_lsn`` and ``redo_set`` at every LSN from -1 to one past the
tail, and the packed log's invariants must hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import WriteAheadLog
from repro.sim import Environment
from tests.engine.reference_wal import ListWriteAheadLog

STEPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 40), st.integers(0, 7)),
    st.tuples(st.just("marker"), st.just(0), st.just(0)),
    # How far behind the tail; wait for it or leave it in flight.
    st.tuples(st.just("force"), st.integers(0, 5), st.booleans()),
    st.tuples(st.just("delay"), st.sampled_from((1e-4, 3e-3, 1e-2)),
              st.just(0)),
    # How far behind the flushed LSN; past it, through the tail.
    st.tuples(st.just("truncate"), st.integers(-3, 8), st.just(0)),
    st.tuples(st.just("crash"), st.just(0), st.just(0)))
SCRIPTS = st.lists(STEPS, min_size=1, max_size=20)


def observe(wal):
    return (wal.tail_lsn, wal.flushed_lsn,
            [wal.redo_set(lsn) for lsn in range(-1, wal.tail_lsn + 2)])


def run_script(wal_class, script):
    """Every step's observation, in order."""
    env = Environment()
    wal = wal_class(env)
    seen = []
    for what, arg, option in script:
        if what == "append":
            for page_id in range(arg):
                wal.append(page_id % 13, page_id + option)
        elif what == "marker":
            env.run(env.process(wal.force(wal.append(-1, 0))))
        elif what == "force" and wal.tail_lsn >= 0:
            done = env.process(wal.force(max(0, wal.tail_lsn - arg)))
            if option:
                env.run(done)
        elif what == "delay":
            env.run(until=env.now + arg)
        elif what == "truncate":
            wal.truncate(wal.flushed_lsn - arg)
        elif what == "crash":
            wal.device.reset()
            env.wipe()
            wal.crash_reset()
        if wal_class is WriteAheadLog:
            wal.check_invariants()
        seen.append(observe(wal))
    return seen


@settings(deadline=None)
@given(SCRIPTS)
def test_packed_log_matches_the_list_reference(script):
    assert run_script(WriteAheadLog, script) == run_script(
        ListWriteAheadLog, script)
