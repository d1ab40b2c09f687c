"""A process sleeps by yielding its delay (DESIGN.md §13, "Waits").

What a delay may be: a float or an int ``>= 0`` sleeps, and anything
else — a negative or nan delay, a bool, a string — raises
``SimulationError`` at the yield, naming the value, without scheduling
anything or moving the clock.  And what a finished sleeper leaves: the
wake entry a process keeps refers back to it, so finishing (by return,
failure or crash) must break that loop, or it would pile up while
``run()`` pauses the cyclic collector.
"""

import gc
import math

import pytest

from repro.sim import KERNELS, make_environment
from repro.sim.events import SimulationError
from repro.sim.process import Process

HOSTILE = [-1.0, -1, float("nan"), -math.inf, True, False, "0.5", None]


@pytest.fixture(params=KERNELS)
def env(request):
    return make_environment(request.param)


def _start(env, how, generator):
    if how == "spawn_all":
        env.spawn_all([generator])
    else:
        env.process(generator)


@pytest.mark.parametrize("value", HOSTILE, ids=repr)
@pytest.mark.parametrize("when", ["first step", "after a sleep"])
@pytest.mark.parametrize("how", ["process", "spawn_all"])
def test_a_hostile_delay_raises_at_the_yield_naming_it(env, value, when,
                                                       how):
    seen = []

    def proc():
        if when == "after a sleep":
            yield 0.5
        seq, now = env._seq, env.now
        with pytest.raises(SimulationError) as refused:
            yield value
        seen.append((repr(value) in str(refused.value), env._seq - seq,
                     env.now - now))
        yield 0.25
        seen.append(env.now)

    _start(env, how, proc())
    env.run()
    start = 0.5 if when == "after a sleep" else 0.0
    assert seen == [(True, 0, 0.0), start + 0.25]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("how", ["process", "spawn_all"])
def test_an_int_delay_sleeps_as_its_float_does(kernel, how):
    """An int is accepted: ``Timeout`` takes one, and knobs such as a
    checkpoint interval may be given as one."""
    def wakes(delays):
        env = make_environment(kernel)
        log = []

        def proc():
            for delay in delays:
                got = yield delay
                log.append((got, env.now, env._seq))

        _start(env, how, proc())
        env.run()
        return log

    assert wakes((2, 0, 1)) == wakes((2.0, 0.0, 1.0)) == [
        (None, 2.0, 2), (None, 2.0, 3), (None, 3.0, 4)]


def test_finished_sleepers_leave_nothing_to_the_cyclic_collector(env):
    """A ``Process`` that returns or fails, a ``DetachedProcess``, a
    generator ``GatherMember``, a call member that forks one off and
    one that fails the join, and a spawned process that crashes the
    run, each after sleeping: none is found in a cycle.

    A waiter keeps only what the failures said, not the exceptions, so
    nothing outside the kernel holds on to a traceback.  Only the
    kernel's own objects are looked for.
    """
    caught = []

    def sleeper(fails=False):
        yield 0.5
        yield 1
        if fails:
            raise KeyError("slept")
        return "slept"

    def catching(event):
        try:
            yield event
        except KeyError as exc:
            caught.append(exc.args)

    def handed_over(fails, member):
        member.fork(sleeper(fails))
        member.succeed()

    def parent():
        for _ in range(5):
            yield env.process(sleeper())
            yield env.process(catching(env.process(sleeper(fails=True))))
            env.spawn_all([sleeper(), sleeper()])
            yield env.gather([sleeper(), (handed_over, False)])
            yield env.process(catching(env.gather(
                [sleeper(), (handed_over, True)])))
            yield 2.0

    gc.collect()
    gc.disable()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # found cycles land in gc.garbage
    try:
        env.run(env.process(parent()))
        env.spawn(sleeper(fails=True))
        try:
            env.run()
        except KeyError as exc:
            caught.append(exc.args)
        assert caught == [("slept",)] * 11
        gc.collect()
        assert not [found for found in gc.garbage
                    if isinstance(found, Process)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
