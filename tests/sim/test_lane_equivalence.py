"""The same-instant lane against the heap-only kernel it replaced.

A trigger, a process or batch start and a device's zero-delay hop are
due at the current instant; they ride the environment's lane, a FIFO,
instead of the heap, and the loop takes the lesser of the heap's top and
the lane's head.  That must be exactly the heap-only order
(``tests/sim/reference_kernel.py``).  The property test runs random
scripts on both kernels and on their references and compares the wake
logs ``(now, process, step, value, seq, ssd.pending, hdd.pending)``.
The scripts mix zero, sub-ulp and coinciding sleeps, SSD and disk reads
whose timers end on one float, ``succeed`` chains (a process firing an
event, a callback relaying one event to another), ``gather`` and
``spawn_all`` groups, and, between runs, ``run(until=event)`` (which
can stop with the lane non-empty), ``run(until=time)`` and a ``wipe()``
in the middle of an instant.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import KERNELS, make_environment
from repro.storage import HddArray, IoKind, IORequest, Ssd
from tests.sim.reference_kernel import REFERENCES

_PROBE = Ssd(make_environment("heap"), channels=2)
S = _PROBE.service_time(IORequest(IoKind.RANDOM_READ, 0))        # SSD read
R = HddArray(make_environment("heap")).service_time(
    IORequest(IoKind.RANDOM_READ, 0))                            # disk read

#: Delays that coincide with each other and with the device timers:
#: zeros, one below an ulp of any clock past zero, an SSD and a disk
#: read's service time, and their sum.
DELAYS = (0, 0.0, 5e-324, S, S, 2 * S, R, R + S)

LEAVES = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("ssd"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("hdd"), st.sampled_from((0, 8, 64))),
    st.tuples(st.just("fire"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("relay"), st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3))))
GROUPS = st.tuples(
    st.sampled_from(("spawn", "gather")),
    st.lists(st.lists(LEAVES, min_size=1, max_size=3),
             min_size=1, max_size=3))
STEPS = st.one_of(LEAVES, LEAVES, GROUPS)
BODIES = st.lists(st.lists(STEPS, min_size=1, max_size=6),
                  min_size=1, max_size=5)
#: What the driver does between runs: ``run(until=event k)``, ``run``
#: until a time, ``wipe`` (and start more processes).
CONTROLS = st.one_of(
    st.tuples(st.just("until_event"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("until"), st.sampled_from((0.0, S, R, 3 * S))),
    st.tuples(st.just("wipe"), BODIES))
SCRIPTS = st.fixed_dictionaries({
    "start": st.sampled_from(("process", "spawn_all")),
    "processes": BODIES,
    "controls": st.lists(CONTROLS, max_size=4),
})


def run_script(script, make_env, after_control=None):
    """The wake log of ``script`` on the environment ``make_env()``;
    ``after_control(env)`` is called after each control."""
    env = make_env()
    ssd = Ssd(env, channels=2)
    hdd = HddArray(env, ndisks=2)
    events = {}
    log = []

    def shared(key):
        if key not in events:
            events[key] = env.event()
        return events[key]

    def note(*what):
        log.append((env.now, *what, env._seq, ssd.pending, hdd.pending))

    def body(steps, ident):
        for index, step in enumerate(steps):
            kind, arg = step
            got = None
            if kind == "sleep":
                got = yield arg
            elif kind == "ssd":
                got = (yield ssd.submit(
                    IORequest(IoKind.RANDOM_READ, arg))).address
            elif kind == "hdd":
                got = (yield hdd.submit(
                    IORequest(IoKind.RANDOM_READ, arg))).address
            elif kind == "fire":
                if not shared(arg).triggered:
                    shared(arg).succeed(ident)
            elif kind == "wait":
                got = yield shared(arg)
            elif kind == "relay":
                source, target = map(shared, arg)
                if source.callbacks is not None:
                    source.callbacks.append(
                        lambda _event, target=target: target.triggered
                        or target.succeed(ident))
            elif kind == "spawn":
                env.spawn_all(body(child, f"{ident}.{index}.{n}")
                              for n, child in enumerate(arg))
            else:
                got = yield env.gather(body(child, f"{ident}.{index}.{n}")
                                       for n, child in enumerate(arg))
            note(ident, index, got)
        return ident

    def start(bodies, prefix):
        generators = [body(steps, f"{prefix}{n}")
                      for n, steps in enumerate(bodies)]
        if script["start"] == "spawn_all":
            env.spawn_all(generators)
        else:
            for generator in generators:
                env.process(generator)

    start(script["processes"], "p")
    for number, (control, arg) in enumerate(script["controls"]):
        try:
            if control == "until_event":
                env.run(until=shared(arg))
            elif control == "until":
                env.run(until=env.now + arg)
            else:
                # A crash: the devices forget their work, then the queue
                # goes, with whatever the instant still held.
                ssd.reset()
                hdd.reset()
                env.wipe()
                events.clear()
                start(arg, f"q{number}.")
        except Exception as exc:  # noqa: BLE001 - a raise is an outcome
            log.append(("raised", type(exc).__name__, str(exc)))
        note("control", number, control)
        if after_control is not None:
            after_control(env)
    env.run()
    note("end", None, None)
    return log


@settings(deadline=None)
@given(script=SCRIPTS)
def test_the_lane_wakes_where_the_heap_did(script):
    # ``wipe()`` collects; the objects older than the script are not its
    # business, and freezing them keeps each collection small.
    gc.freeze()
    try:
        for kernel in KERNELS:
            assert (run_script(script, lambda: make_environment(kernel))
                    == run_script(script, REFERENCES[kernel]))
    finally:
        gc.unfreeze()


#: ``run(until=event)`` stops as ``e0`` is processed, with the lane
#: holding the rest of the instant: ``e1``, which a callback on ``e0``
#: relayed and ``p1`` waits on (the heap holds ``p0``'s zero sleep and
#: ``p2``'s sub-ulp one, due in the same instant).  The wipe drops them
#: all, and a fresh process runs.
MID_INSTANT = {"start": "process", "processes": [
    [("ssd", 0), ("fire", 0), ("sleep", 0.0), ("fire", 2)],
    [("ssd", 1), ("relay", (0, 1)), ("wait", 1)],
    [("wait", 0), ("sleep", 5e-324)]],
    "controls": [("until_event", 0),
                 ("wipe", [[("sleep", S), ("fire", 3), ("wait", 3)]])]}


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_run_that_stops_mid_instant_leaves_the_lane_to_the_wipe(kernel):
    lanes = []
    log = run_script(MID_INSTANT, lambda: make_environment(kernel),
                     lambda env: lanes.append(len(env._lane)))
    assert log == run_script(MID_INSTANT, REFERENCES[kernel])
    assert lanes == [1, 1]  # after the wipe: the new process's start
    assert [entry[:5] for entry in log] == [
        (S, "p0", 0, 0, 7), (S, "p0", 1, None, 8), (S, "p1", 0, 1, 9),
        (S, "p1", 1, None, 9), (S, "p2", 0, "p0", 9),
        (S, "control", 0, "until_event", 11),
        (S, "control", 1, "wipe", 12),
        (2 * S, "q1.0", 0, None, 13), (2 * S, "q1.0", 1, None, 14),
        (2 * S, "q1.0", 2, "q1.0", 14), (2 * S, "end", None, None, 15)]


#: The wheel files a timer by slot, and a run that ran dry and then
#: jumped its clock ``R`` ahead left the slot being drained behind: a
#: zero sleep at the new instant goes to a bucket, not the slot heap.
#: It is due before the trigger queued after it, so the loop must
#: refill the slot heap before it takes the lane's head.
JUMPED = {"start": "process", "processes": [[("sleep", S)]],
          "controls": [("until", R), ("wipe", [
              [("sleep", 0.0)], [("fire", 0)], [("wait", 0)]])]}


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_timer_bucketed_at_now_goes_before_a_later_trigger(kernel):
    log = run_script(JUMPED, lambda: make_environment(kernel))
    assert log == run_script(JUMPED, REFERENCES[kernel])
    assert [entry[1:3] for entry in log] == [
        ("p0", 0), ("control", 0), ("control", 1), ("q1.1", 0),
        ("q1.0", 0), ("q1.2", 0), ("end", None)]
