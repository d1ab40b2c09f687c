"""The pool's replacement runs against the single heap they replaced.

``BufferPool`` keeps a frame's first entry in a sorted run, a re-keyed
entry in a second run when it arrives in order and any other entry in a
heap, and takes each victim off the least head
(``buffer_pool.py``'s module docstring).
``tests/engine/reference_pool_heap.py`` is the one lazy heap that
defined the victim order.  The property runs one random script against
both, on one clock, and demands the same victims in the same order from
every ``_pick_victims`` and from a final drain.

A script installs pages as a fetch does (filed when it pins them) and as
a read-ahead does (filed at once), touches them on the hit path — often
in one instant, where only the stamp decides — pins and latches frames
so that minima are deferred, drops frames behind the order's back,
crashes the pool, and picks victims.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.buffer_pool import BufferPool
from tests.conftest import MiniSystem
from tests.engine.reference_pool_heap import ReferencePoolHeap

PAGES = st.integers(min_value=0, max_value=39)
OPS = st.lists(st.one_of(
    st.tuples(st.just("install"), PAGES, st.booleans()),
    st.tuples(st.just("touch"), PAGES),
    st.tuples(st.just("touch"), PAGES),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.001, 0.5))),
    st.tuples(st.just("pin"), PAGES),
    st.tuples(st.just("latch"), PAGES),
    st.tuples(st.just("drop"), PAGES),
    st.tuples(st.just("pick"), st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("crash"))), max_size=120)


def pools():
    """The pool under test and its reference, on one clock and disk;
    roomy enough that the lazy writer never picks victims of its own."""
    system = MiniSystem(design="noSSD", db_pages=100)
    pair = [BufferPool(system.env, 400, system.disk, system.wal,
                       system.ssd_manager) for _ in range(2)]
    pair[1].__class__ = ReferencePoolHeap
    return system.env, pair


def step(env, pool, op):
    """Apply ``op`` to ``pool``; the victims' page ids for a pick."""
    kind, frames = op[0], pool.frames
    if kind == "install" and op[1] not in frames:
        frame = pool._install(op[1], 0, op[2], False)
        if not op[2]:
            pool._touch(frame)  # the fetch that read it pins it
    elif kind == "touch":
        frame = pool.pin_hit(op[1])
        if frame is not None:
            pool.unpin(frame)
    elif kind == "pin" and op[1] in frames:
        frame = frames[op[1]]
        frame.pin_count = 1 - frame.pin_count
    elif kind == "latch" and op[1] in frames:
        frame = frames[op[1]]
        frame.io_busy = None if frame.io_busy else env.event()
    elif kind == "drop" and op[1] in frames:
        del frames[op[1]]
    elif kind == "pick":
        victims = pool._pick_victims(op[1])
        for frame in victims:  # evicted, as _evict would
            del frames[frame.page_id]
        pool.check_invariants()
        for run in (pool._fresh, pool._rekeyed):
            assert list(run) == sorted(run), "a run out of order"
        return [frame.page_id for frame in victims]
    elif kind == "crash":
        pool.crash_reset()
    return None


@settings(deadline=None)
@given(ops=OPS)
def test_the_runs_pick_what_the_one_heap_picked(ops):
    env, pair = pools()
    for op in ops:
        if op[0] == "advance":
            env.run(until=env.now + op[1])
            continue
        picked = [step(env, pool, op) for pool in pair]
        assert picked[0] == picked[1], op
    for pool in pair:
        for frame in pool.frames.values():
            frame.pin_count, frame.io_busy = 0, None
    drained = [[frame.page_id for frame in pool._pick_victims(100)]
               for pool in pair]
    assert drained[0] == drained[1]
    assert not pair[0]._fresh and not pair[0]._rekeyed and not pair[0]._heap


def test_a_scan_files_no_first_entry_in_the_heap():
    """Pages read ahead and evicted untouched never enter the heap; a
    page touched again comes off the second run."""
    env, (pool, _) = pools()
    env.run(until=0.5)
    for page in range(8):
        pool._install(page, 0, True, False)
    env.run(until=1.0)
    frame = pool.pin_hit(3)
    pool.unpin(frame)
    assert (len(pool._fresh), pool._heap) == (8, [])
    victims = pool._pick_victims(8)
    assert [frame.page_id for frame in victims] == [0, 1, 2, 4, 5, 6, 7, 3]
    assert not (pool._fresh or pool._rekeyed or pool._heap)
