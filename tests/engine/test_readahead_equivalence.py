"""The read-ahead's one SSD call member against the per-page members it
replaced.

``BufferPool.prefetch`` starts every SSD read a read-ahead planned from
one call member, and forks a member off for each page that must wait;
``tests/engine/reference_readahead.py`` keeps the member per page it
replaced.  The property test runs random prefetch scripts against both,
on both kernels, and demands the same run: every actor's wake-up, the
events scheduled, each frame's version and flags, the pool's and the SSD
manager's books, the trace and the injector's RNG.

A script stocks 24 pages — absent, resident, held clean by the SSD, or
held newer than disk — then runs a few actors, each after a delay drawn
from the SSD's own service time so that they meet in one instant: a
read-ahead, an invalidation (a planned copy vanishing, after the plan
or while its read is in flight) and an update through the pool.  Some
scripts attach an injector that fails or delays SSD I/O.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SsdDesignConfig
from repro.faults.injector import FaultInjector
from repro.harness.system import System, SystemConfig
from repro.sim import KERNELS, make_environment
from repro.storage import IoKind, IORequest, Ssd
from repro.telemetry import Telemetry
from tests.conftest import meta_free_trace_md5
from tests.engine.reference_readahead import ReferenceReadAheadPool

PAGES = 24
S = Ssd(make_environment("heap")).service_time(
    IORequest(IoKind.RANDOM_READ, 0))
DELAYS = (0.0, 0.0, S / 2, S, 2 * S)

PREFETCH = st.tuples(st.just("prefetch"), st.sampled_from(DELAYS),
                     st.integers(min_value=0, max_value=PAGES - 1),
                     st.integers(min_value=1, max_value=8))
INVALIDATE = st.tuples(st.just("invalidate"), st.sampled_from(DELAYS),
                       st.lists(st.integers(min_value=0,
                                            max_value=PAGES - 1),
                                min_size=1, max_size=3))
UPDATE = st.tuples(st.just("update"), st.sampled_from(DELAYS),
                   st.integers(min_value=0, max_value=PAGES - 1))
SCRIPTS = st.fixed_dictionaries({
    "design": st.sampled_from(("DW", "LC", "EXCL", "TAC")),
    "states": st.lists(
        st.sampled_from(("absent", "resident", "ssd", "newer")),
        min_size=PAGES, max_size=PAGES),
    "transient_p": st.sampled_from((0.0, 0.0, 0.3, 0.8)),
    "latency_p": st.sampled_from((0.0, 0.3)),
    "actors": st.lists(st.one_of(PREFETCH, PREFETCH, INVALIDATE, UPDATE),
                       min_size=1, max_size=5),
})


def run_script(script, kernel, reference):
    """Run ``script``; return everything a reader of the run could see."""
    telemetry = Telemetry()
    system = System(SystemConfig(
        design=script["design"], db_pages=64, bp_pages=32, slack_pages=0,
        kernel=kernel, ssd=SsdDesignConfig(ssd_frames=32)),
        telemetry=telemetry)
    env, bp, manager = system.env, system.bp, system.ssd_manager
    if reference:
        bp.__class__ = ReferenceReadAheadPool

    def stock():
        for page, state in enumerate(script["states"]):
            if state == "resident":
                frame = yield from bp.fetch(page)
                bp.unpin(frame)
            elif state != "absent":
                yield from manager._cache_page(page, int(state == "newer"),
                                               state == "newer")

    env.run(env.process(stock()))
    env.run(until=env.now + 1.0)
    rng = random.Random("read-ahead-equivalence")
    injector = FaultInjector(env, system.ssd_device, rng,
                             telemetry=telemetry)
    injector.transient_p = script["transient_p"]
    injector.latency_p = script["latency_p"]
    injector.latency_factor = 2.0
    log = []

    def actor(ident, step):
        kind, delay = step[0], step[1]
        yield delay
        if kind == "prefetch":
            yield from bp.prefetch(step[2], step[3])
        elif kind == "invalidate":
            for page in step[2]:
                manager.invalidate(page)
        else:
            frame = yield from bp.fetch(step[2])
            bp.mark_dirty(frame)
            bp.unpin(frame)
        log.append((env.now, ident))

    before = env._seq
    env.spawn_all(actor(ident, step)
                  for ident, step in enumerate(script["actors"]))
    env.run()
    bp.check_invariants()
    frames = {page: (frame.version, frame.dirty, frame.sequential)
              for page, frame in bp.frames.items()}
    return (log, env._seq - before, frames, bp.stats.as_dict(),
            repr(manager.stats), meta_free_trace_md5(telemetry),
            rng.getstate())


@settings(deadline=None)
@given(script=SCRIPTS)
def test_one_call_member_runs_what_a_member_per_page_ran(script):
    for kernel in KERNELS:
        assert (run_script(script, kernel, reference=False)
                == run_script(script, kernel, reference=True))


#: Pages 10, 11 and 17 on the SSD, 14 newer than disk; 11 vanishes after
#: the plan, and the injector fails some reads.
COLD = {"design": "DW", "transient_p": 0.8, "latency_p": 0.0,
        "states": ["ssd" if page in (10, 11, 17) else
                   "newer" if page == 14 else "absent"
                   for page in range(PAGES)],
        "actors": [("prefetch", 0.0, 10, 8), ("invalidate", 0.0, [11])]}


def test_the_cold_script_reaches_every_way_a_page_waits():
    """What the property relies on, shown on one script: a page forked
    because its copy vanished, reads that failed, and the member's own
    completions."""
    run = run_script(COLD, "heap", reference=False)
    assert run == run_script(COLD, "heap", reference=True)
    log, _, frames, pool, _, _, _ = run
    assert [ident for _, ident in log] == [1, 0]
    assert frames[14][0] == 1 and frames[11][0] == 0
    assert pool["prefetched_pages"] == 8
