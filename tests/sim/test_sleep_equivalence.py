"""A process that yields a delay against one that yields ``env.timeout``.

A process sleeps by yielding its delay: the kernel queues the process's
own wake entry at ``now + delay`` with the next sequence number, the
one ``env.timeout(delay)`` would have taken.  The ``Timeout`` form is
the reference.  The property test runs random scripts twice, every
sleep written as ``yield d`` on one side and ``yield env.timeout(d)``
on the other, on both kernels, and compares the wake logs ``(now,
process, step, value)`` and the final sequence number.  The scripts mix
sleeps (zero, int and coinciding delays), waits on events other
processes trigger, ``spawn_all`` members whose first step sleeps,
``gather`` members that are generators or calls forking one off
(:meth:`GatherMember.fork`), and a ``wipe()`` part way through
with fresh processes after it.

The last tests prove the property has teeth: the real kernel source
with one edit (a sleep that takes its sequence number after the push,
or that wakes at ``now``) fails a pinned script.
"""

import gc
import inspect
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import KERNELS, make_environment
from repro.sim import environment as environment_module
from repro.sim import process as process_module

#: Delays that coincide: equal floats, an int beside its float, zeros.
DELAYS = (0, 0.0, 0.25, 0.5, 0.5, 1, 1.0, 1.25)

LEAVES = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("fire"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=2)))


#: A ``spawn_all`` or a ``gather`` of one to three children, each a few
#: plain steps.
GROUPS = st.tuples(
    st.sampled_from(("spawn", "gather")),
    st.lists(st.lists(LEAVES, min_size=1, max_size=3),
             min_size=1, max_size=3))
STEPS = st.one_of(LEAVES, GROUPS)
BODIES = st.lists(st.lists(STEPS, min_size=1, max_size=5),
                  min_size=1, max_size=4)
SCRIPTS = st.fixed_dictionaries({
    "start": st.sampled_from(("process", "spawn_all")),
    "processes": BODIES,
    "wipe_at": st.sampled_from((None, None, 0.5, 1.0, 1.6)),
    "after": BODIES,
})


def delay(env, seconds):
    """The form under test: the delay itself."""
    return seconds


def timer(env, seconds):
    """The reference: a fresh ``Timeout``."""
    return env.timeout(seconds)


def run_script(script, kernel, sleep):
    """The wake log of ``script`` with every sleep built by ``sleep``."""
    env = make_environment(kernel)
    events = {}
    log = []

    def shared(key):
        if key not in events:
            events[key] = env.event()
        return events[key]

    def handed_over(argument, member):
        member.fork(body(*argument))
        member.succeed(argument[1])

    def body(steps, ident):
        for index, step in enumerate(steps):
            kind, arg = step
            got = None
            if kind == "sleep":
                got = yield sleep(env, arg)
            elif kind == "fire":
                if not shared(arg).triggered:
                    shared(arg).succeed(ident)
            elif kind == "wait":
                got = yield shared(arg)
            elif kind == "spawn":
                env.spawn_all(body(child, f"{ident}.{index}.{n}")
                              for n, child in enumerate(arg))
            else:
                got = yield env.gather(
                    (handed_over, (child, f"{ident}.{index}.{n}")) if n % 2
                    else body(child, f"{ident}.{index}.{n}")
                    for n, child in enumerate(arg))
            log.append((env.now, ident, index, got))
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
    if script["wipe_at"] is not None:
        env.run(until=script["wipe_at"])
        env.wipe()
        events.clear()
        log.append(("wipe", env.now, env._seq))
        start(script["after"], "q")
    env.run()
    log.append(("end", env.now, env._seq))
    return log


@settings(deadline=None)
@given(script=SCRIPTS)
def test_a_delay_wakes_where_a_timeout_did(script):
    # ``wipe()`` collects; the objects older than the script are not its
    # business, and freezing them keeps each collection small.
    gc.freeze()
    try:
        for kernel in KERNELS:
            assert (run_script(script, kernel, delay)
                    == run_script(script, kernel, timer))
    finally:
        gc.unfreeze()


#: A repeat sleep of ``p0`` comes right after an event it triggered at
#: the same instant, and one ends after ``p1``'s first sleep, which
#: ``spawn_all``'s entry ran.
PINNED = {"start": "spawn_all", "wipe_at": None, "after": [], "processes": [
    [("fire", 0), ("sleep", 0.0), ("fire", 1), ("sleep", 0.0),
     ("sleep", 0.5)],
    [("sleep", 0.5)]]}

#: Two nonzero timers tie on one float: ``p2``'s first sleep (a
#: ``Timeout``) and ``p0``'s repeat sleep, queued back to back as one
#: ``fire`` wakes both, end at 0.75.
TIED = {"start": "process", "wipe_at": None, "after": [], "processes": [
    [("sleep", 0.25), ("wait", 0), ("sleep", 0.25)],
    [("sleep", 0.5), ("fire", 0)],
    [("wait", 0), ("sleep", 0.25)]]}

#: name -> (the kernel source, its edit, a script it fails), in the
#: requeue of a wake entry in ``Process._resume``.  (A first sleep builds
#: the entry as a ``Timeout``, the reference's own schedule.)  ``seq -
#: 1`` is the number taken before the bump, what taking it after the
#: push gives: the number of the timer queued just before.
MUTANTS = {
    "takes-seq-after-push": ("(env._now + target, seq, wake)",
                             "(env._now + target, seq - 1, wake)", TIED),
    "wakes-at-now": ("(env._now + target, seq, wake)",
                     "(env._now, seq, wake)", PINNED),
}


def _outcome(script, kernel, sleep):
    try:
        return run_script(script, kernel, sleep)
    except Exception as exc:  # noqa: BLE001 - a raise is an outcome too
        return ("raised", type(exc).__name__)


def test_the_pinned_script_agrees_without_a_mutant():
    for kernel in KERNELS:
        reference = run_script(PINNED, kernel, timer)
        assert [wake[:3] for wake in reference] == [
            (0.0, "p0", 0), (0.0, "p0", 1), (0.0, "p0", 2), (0.0, "p0", 3),
            (0.5, "p1", 0), (0.5, "p0", 4), ("end", 0.5, 7)]
        assert run_script(PINNED, kernel, delay) == reference
        tied = run_script(TIED, kernel, timer)
        assert [wake[:3] for wake in tied] == [
            (0.25, "p0", 0), (0.5, "p1", 0), (0.5, "p1", 1), (0.5, "p2", 0),
            (0.5, "p0", 1), (0.75, "p2", 1), (0.75, "p0", 2),
            ("end", 0.75, 11)]
        assert run_script(TIED, kernel, delay) == tied


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_differential_catches_a_mutant_sleep(name, monkeypatch):
    old, new, script = MUTANTS[name]
    source = inspect.getsource(process_module)
    assert source.count(old) == 1
    mutant = types.ModuleType("mutant_process")
    exec(compile(source.replace(old, new), "<mutant>", "exec"),
         mutant.__dict__)
    for kernel in KERNELS:
        reference = run_script(script, kernel, timer)
        with monkeypatch.context() as patch:
            for cls in ("Process", "DetachedProcess", "Gather"):
                patch.setattr(environment_module, cls, getattr(mutant, cls))
            assert _outcome(script, kernel, delay) != reference
