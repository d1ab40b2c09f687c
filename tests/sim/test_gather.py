"""Starting together: ``gather`` / ``spawn_all`` against their references.

``env.gather(gens)`` must be the schedule of
``env.all_of([env.process(g) for g in gens])`` and ``env.spawn_all(steps)``
that of one ``env.spawn`` per member, each calling the member's maker in
its own first step, minus queue entries that carried no order (DESIGN.md
§13, "Starting together").  Under ``spawn_all`` a node that finishes in
its first step is a call that returns ``()`` (DESIGN.md §13, "Steps").
A gather's child may also be a *call member* ``(function, argument)``: the
call starts its work in the gather's entry and finishes the member from
a completion it subscribed, forking the rest off as a member of its own
where it must wait (DESIGN.md §13, "An SSD read is a call").  Its reference is the
generator that waits on the same event and goes on the same way.  The
property test runs random process trees under both formulations on both
kernels and compares the full ``(now, process, step)`` log; the unit
tests pin the join's contract, the crash rule, and where ``spawn_all``
takes its members.
"""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.process as process_module
from repro.sim import KERNELS, make_environment
from tests.conftest import scheduled

# Three values, so processes colliding in one instant are the norm; the
# larger two straddle the wheel's 1 ms slot.
DELAYS = st.sampled_from((0.0, 0.0005, 0.002))


def _nodes(children):
    return st.fixed_dictionaries({
        "before": st.lists(DELAYS, max_size=2),
        "how": st.sampled_from(("gather", "spawn")),
        "children": children,
        "after": st.lists(DELAYS, max_size=2),
        "fails": st.booleans(),
        # Under a gather: a call member (a leaf) instead of a generator.
        "call": st.booleans(),
    })


#: A leaf with no delays returns in its first step; a call member with
#: no ``before`` finishes at the call.
TREES = st.recursive(
    _nodes(st.just([])),
    lambda nodes: _nodes(st.lists(nodes, max_size=8)),
    max_leaves=24)


def run_tree(tree, kernel, batched):
    """Run ``tree``; return the ordered log of every step of every node."""
    env = make_environment(kernel)
    log = []
    ids = itertools.count()

    def join(generators):
        if batched:
            return (yield env.gather(generators))
        processes = [env.process(g) for g in generators]
        yield env.all_of(processes)
        return [p.value for p in processes]

    def start(specs):
        idents = [next(ids) for _ in specs]
        if batched:
            env.spawn_all(as_step(child, ident)
                          for child, ident in zip(specs, idents))
        else:
            for child, ident in zip(specs, idents):
                env.spawn(stepped(child, ident))

    def stepped(spec, ident):
        yield from as_step(spec, ident)

    def as_step(spec, ident):
        """A spawned node as a step: ``()`` if it finishes at the call."""
        if spec["before"] or spec["after"] or (
                spec["children"] and spec["how"] == "gather"):
            return node(spec, ident, False)
        log.append((env.now, ident, "start"))
        start(spec["children"])
        return ()

    def node(spec, ident, may_fail):
        log.append((env.now, ident, "start"))
        for step, delay in enumerate(spec["before"]):
            yield env.timeout(delay)
            log.append((env.now, ident, f"before{step}"))
        if spec["how"] == "gather":
            children = [member(child, next(ids))
                        for child in spec["children"]]
            try:
                values = yield from join(children)
                log.append((env.now, ident, ("joined", tuple(values))))
            except RuntimeError as exc:
                log.append((env.now, ident, ("caught", str(exc))))
        else:
            start(spec["children"])
        for step, delay in enumerate(spec["after"]):
            yield env.timeout(delay)
            log.append((env.now, ident, f"after{step}"))
        # Only a joined child may fail: its parent catches it.  A failing
        # spawned process crashes the run, which the unit tests cover.
        if spec["fails"] and may_fail:
            raise RuntimeError(f"node {ident} failed")
        return ident

    def member(spec, ident):
        """A gather child: a generator, or a call and its reference."""
        if not spec["call"]:
            return node(spec, ident, True)
        if batched:
            return (call, (spec, ident))
        return called(spec, ident)

    def call(spec_and_ident, member):
        """A call member: wait on one timer (``before[0]``), if any, by a
        completion callback; then :func:`finish`."""
        spec, ident = spec_and_ident
        log.append((env.now, ident, "start"))
        if not spec["before"]:
            finish(spec, ident, member, at_call=True)
            return
        timer = env.timeout(spec["before"][0])
        timer.callbacks.append(lambda _timer: landed(spec, ident, member))

    def landed(spec, ident, member):
        log.append((env.now, ident, "before0"))
        finish(spec, ident, member, at_call=False)

    def finish(spec, ident, member, at_call):
        """Go on in a generator forked off as a member of its own
        (``after`` delays), or fail or succeed right here: a call that
        fails at the call raises, a completion fails the member."""
        if spec["after"]:
            member.fork(rest(spec, ident))
            member.succeed(ident)
        elif not spec["fails"]:
            member.succeed(ident)
        elif at_call:
            raise RuntimeError(f"node {ident} failed")
        else:
            member.fail(RuntimeError(f"node {ident} failed"))

    def rest(spec, ident):
        for step, delay in enumerate(spec["after"]):
            yield env.timeout(delay)
            log.append((env.now, ident, f"after{step}"))
        if spec["fails"]:
            raise RuntimeError(f"node {ident} failed")
        return ident

    def called(spec, ident):
        """The reference of a call member: one generator, same waits."""
        log.append((env.now, ident, "start"))
        if spec["before"]:
            yield env.timeout(spec["before"][0])
            log.append((env.now, ident, "before0"))
        return (yield from rest(spec, ident))

    def ticker():
        # An unrelated process sharing the instants the tree runs in.
        for tick in range(12):
            yield env.timeout(0.0005)
            log.append((env.now, "ticker", tick))

    env.spawn(ticker())
    env.spawn(node(tree, next(ids), False))
    env.run()
    return log


@settings(deadline=None)
@given(tree=TREES)
def test_batched_starts_keep_the_reference_schedule(tree):
    for kernel in KERNELS:
        assert run_tree(tree, kernel, True) == run_tree(tree, kernel, False)


@pytest.fixture(params=KERNELS)
def env(request):
    return make_environment(request.param)


class TestGather:
    def test_empty_gather_triggers_with_an_empty_list(self, env):
        assert env.run(env.gather([])) == []

    def test_values_come_in_input_order_not_finish_order(self, env):
        finished = []

        def child(delay):
            yield env.timeout(delay)
            finished.append(delay)
            return delay

        assert env.run(env.gather(child(d) for d in (3, 1, 2))) == [3, 1, 2]
        assert finished == [1, 2, 3]

    def test_first_failure_fails_the_join_while_siblings_keep_running(
            self, env):
        seen = []

        def child(delay, fails):
            yield env.timeout(delay)
            if fails:
                raise RuntimeError(f"boom at {delay}")
            seen.append(delay)

        def parent():
            try:
                yield env.gather([child(1, False), child(2, True),
                                  child(3, True), child(4, False)])
            except RuntimeError as exc:
                return str(exc), env.now

        parent_process = env.process(parent())
        env.run()
        assert parent_process.value == ("boom at 2", 2)
        assert seen == [1, 4]

    def test_member_raising_in_its_first_step_fails_the_join(self, env):
        started = []

        def child(ident, fails):
            started.append((ident, env.now))
            if fails:
                raise RuntimeError(f"member {ident}")
            yield env.timeout(1)

        def parent():
            yield env.gather(child(i, i == 1) for i in range(3))

        env.spawn(parent())
        # The parent does not catch it, so it surfaces as any uncaught
        # process error does — after every member got its first step.
        with pytest.raises(RuntimeError, match="member 1"):
            env.run()
        assert started == [(0, 0), (1, 0), (2, 0)]

    def test_only_the_last_finisher_schedules_a_completion(self, env):
        def child():
            yield env.timeout(1)

        def batched():
            yield env.gather(child() for _ in range(5))

        def reference():
            yield env.all_of([env.process(child()) for _ in range(5)])

        # One start entry, five timeouts, the last completion, the join.
        assert scheduled(env, batched()) == 1 + 5 + 1 + 1
        assert scheduled(env, reference()) == 5 + 5 + 5 + 1

    def test_finished_gather_leaves_nothing_to_the_cyclic_collector(
            self, env):
        """``run()`` pauses the collector, so a member/join reference
        loop per fan-out would pile up for the whole run (tens of MiB
        of peak RSS on the ``tpch_dw`` benchmark cell).  Only the
        kernel's own objects are looked for: what else in the process
        sits in a cycle is not this test's business."""
        def child(delay):
            yield env.timeout(delay)
            return delay

        def parent():
            for _ in range(20):
                yield env.gather(child(d) for d in (2, 1, 3))

        gc.collect()
        gc.disable()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)  # found cycles land in gc.garbage
        try:
            env.run(env.process(parent()))
            gc.collect()
            assert not [found for found in gc.garbage if isinstance(
                found, (process_module.Gather, process_module.GatherMember))]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()

    def test_requires_generators(self, env):
        with pytest.raises(TypeError):
            env.gather([lambda: None])


class TestCallMembers:
    def test_values_come_in_input_order_however_a_call_finishes(self, env):
        """A call finishes its member at the call, from a completion it
        subscribed, or after forking off a generator that goes on, which
        the join waits for."""
        ran = []

        def at_call(value, member):
            member.succeed(value)

        def on_timer(delay, member):
            env.timeout(delay).callbacks.append(
                lambda _timer: member.succeed(delay))

        def then_generator(delay, member):
            def rest():
                yield env.timeout(4)
                ran.append(env.now)
                return "not a value of the join"

            def go_on(_timer):
                member.fork(rest())
                member.succeed("forked")

            env.timeout(delay).callbacks.append(go_on)

        def child():
            yield env.timeout(2)
            return "generator"

        assert env.run(env.gather([
            (on_timer, 3), child(), (at_call, "now"), (then_generator, 1),
        ])) == [3, "generator", "now", "forked"]
        assert ran == [5] and env.now == 5

    @pytest.mark.parametrize("how", ["raises", "fails", "fork raises"])
    def test_a_failing_call_member_fails_the_join(self, env, how):
        def member(_argument, member):
            if how == "raises":
                raise RuntimeError("boom")
            if how == "fails":
                env.timeout(1).callbacks.append(
                    lambda _timer: member.fail(RuntimeError("boom")))
                return

            def rest():
                yield env.timeout(1)
                raise RuntimeError("boom")

            member.fork(rest())
            member.succeed()

        def sibling():
            yield env.timeout(3)

        def parent():
            try:
                yield env.gather([(member, None), sibling()])
            except RuntimeError as exc:
                return str(exc), env.now

        assert env.run(env.process(parent())) == (
            "boom", 0 if how == "raises" else 1)

    def test_a_call_that_waits_once_costs_what_a_generator_does(self, env):
        """One start entry, five timers, the last completion, the join —
        and no generator: each member's completion finished it."""
        members = []

        def call(_argument, member):
            members.append(member)
            env.timeout(1).callbacks.append(
                lambda _timer: member.succeed())

        def batched():
            yield env.gather([(call, None)] * 5)

        assert scheduled(env, batched()) == 1 + 5 + 1 + 1
        assert [member._generator for member in members] == [None] * 5


class TestSpawnAll:
    def test_first_step_returners_never_become_processes(
            self, env, monkeypatch):
        built = []
        init = process_module.DetachedProcess.__init__

        def counting_init(self, env, generator):
            built.append(generator)
            init(self, env, generator)

        monkeypatch.setattr(process_module.DetachedProcess, "__init__",
                            counting_init)
        ran = []

        def member(ident, waits):
            ran.append(ident)
            if waits:
                yield env.timeout(1)
                ran.append(f"{ident} resumed")

        before = env._seq
        assert env.spawn_all(member(i, i == 2) for i in range(4)) is None
        env.run()
        assert ran == [0, 1, 2, 3, "2 resumed"]
        assert len(built) == 1
        assert env._seq - before == 2  # the batch entry and one timeout

    def test_empty_batch_schedules_nothing(self, env):
        env.spawn_all([])
        assert env._seq == 0

    def test_first_step_crash_surfaces_and_the_rest_start_next_run(
            self, env):
        ran = []

        def member(ident):
            ran.append(ident)
            if ident == 1:
                raise RuntimeError("member 1")
            yield env.timeout(1)
            ran.append(f"{ident} resumed")

        env.spawn_all(member(i) for i in range(4))
        with pytest.raises(RuntimeError, match="member 1"):
            env.run()
        assert ran == [0, 1]
        env.run()
        assert ran == [0, 1, 2, 3, "0 resumed", "2 resumed", "3 resumed"]

    def test_wipe_discards_a_pending_batch(self, env):
        ran = []

        def member(ident):
            ran.append(ident)
            yield env.timeout(1)

        join = env.gather(member(i) for i in range(2))
        env.spawn_all(member(i) for i in range(2, 4))
        env.wipe()
        env.run()
        assert ran == []
        assert not join.triggered
        assert not env._lane and not env._queue

    def test_takes_each_member_inside_the_entry_after_the_one_before(
            self, env):
        """The iterable is consumed by the batch entry, not the call: a
        member built by a call sees what its predecessors' first steps
        did, as the lazy writer's ``self._evict(v) for v in victims``
        needs."""
        log = []

        def member(ident):
            log.append(("ran", ident))
            yield env.timeout(1)

        def make(ident):
            log.append(("made", ident, env.now))
            return member(ident) if ident % 2 else ()

        env.spawn_all(make(i) for i in range(4))
        assert log == []
        env.run(until=0.5)
        assert log == [("made", 0, 0), ("made", 1, 0), ("ran", 1),
                       ("made", 2, 0), ("made", 3, 0), ("ran", 3)]

    def test_finished_members_schedule_nothing(self, env, monkeypatch):
        built = []
        monkeypatch.setattr(process_module.DetachedProcess, "_bind",
                            lambda self, env, generator: built.append(self))
        before = env._seq
        env.spawn_all(() for _ in range(5))
        env.run()
        assert built == []
        assert env._seq - before == 1  # the batch entry alone

    def test_requires_generators(self, env):
        """A member that is neither a generator nor ``()`` crashes the
        run in the entry that takes it: the call does not look."""
        env.spawn_all([lambda: None])
        with pytest.raises(TypeError):
            env.run()
