"""Per-check fixture snippets: each check has flagged and clean cases,
and a suppressed case showing that the removed ``# repro: noqa`` comment
no longer silences it.

A snippet is checked under a path, so the scoping of :func:`in_scope`
is exercised too.  The snippets intentionally violate the invariants —
they are the test fixtures, not repo code (tests/statics is excluded in
the ruff per-file-ignores for the same reason).  RPL002 has no AST
check: its invariant is checked on the imported classes
(:class:`TestSlotsHotpath`).
"""

import ast
import enum
import gc
import importlib
import pkgutil
import re
import textwrap
from pathlib import Path

import repro
from tests.statics.checks import CHECKS, in_scope


def findings(code, source, path):
    """What check ``code`` reports on ``source`` placed at ``path``."""
    if not in_scope(code, path):
        return []
    check = CHECKS[code][0]
    return list(check(ast.parse(textwrap.dedent(source))))


class CheckCase:
    """One check's fixtures: ``CODE`` is the check, ``PATH`` a file in
    its scope, ``SUPPRESSED`` one violation carrying a noqa comment."""

    CODE = PATH = SUPPRESSED = ""

    def flagged(self, source, path=None):
        """How many findings the check reports on ``source``."""
        return len(findings(self.CODE, source, path or self.PATH))

    def test_suppressed(self):
        # The checks read no comments: there is no line suppression.
        assert self.flagged(self.SUPPRESSED) == 1


class TestTracerGuard(CheckCase):
    CODE = "RPL001"
    PATH = "src/repro/engine/buffer_pool.py"
    SUPPRESSED = """
        def f(tracer, page):
            tracer.record("pin", page)  # repro: noqa[RPL001]
        """

    def test_unguarded_call_flagged(self):
        assert self.flagged("""
            def f(tracer, page):
                tracer.record("pin", page)
            """) == 1

    def test_guarded_call_clean(self):
        assert self.flagged("""
            def f(tracer, page):
                if tracer.enabled:
                    tracer.record("pin", page)
            """) == 0

    def test_early_exit_guard_clean(self):
        assert self.flagged("""
            def f(tracer, page):
                if not tracer.enabled:
                    return
                tracer.record("pin", page)
            """) == 0

    def test_sim_path_flagged(self):
        # The whole package is in scope, the kernel included.
        assert self.flagged("""
            def f(self, event):
                self.tracer.instant("wake", event)
            """, "src/repro/sim/environment.py") == 1

    def test_out_of_scope_path_clean(self):
        assert self.flagged("""
            def f(tracer, page):
                tracer.record("pin", page)
            """, "tests/engine/test_buffer_pool.py") == 0


#: Modules whose classes are on the hot path: one instance per event,
#: process, request, frame or SSD record, or one manager vtable hit per
#: fetch, puts attribute storage on the kernel's allocation budget.
HOT_PATH_ROOTS = (
    "repro.sim", "repro.storage.request", "repro.storage.device",
    "repro.storage.hdd", "repro.engine.buffer_pool", "repro.engine.page",
    "repro.core.ssd_manager", "repro.core.ssd_buffer_table")


def _in_package(module_name, package):
    return module_name == package or module_name.startswith(package + ".")


def _exempt(cls):
    """Enums and exceptions: slots are wrong or pointless there."""
    return issubclass(cls, (BaseException, enum.Enum))


def hot_path_classes():
    """The classes defined in the roots plus their ``repro`` subclasses."""
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(repro.__path__, "repro.")
               if not info.name.endswith("__main__")]
    found = {cls for module in modules
             if any(_in_package(module.__name__, root)
                    for root in HOT_PATH_ROOTS)
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and not _exempt(cls)}
    frontier = list(found)
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if (sub not in found and _in_package(sub.__module__, "repro")
                    and not _exempt(sub)):
                found.add(sub)
                frontier.append(sub)
    return found


def unslotted(classes):
    """The classes whose instances carry a ``__dict__``."""
    return sorted((cls for cls in classes if cls.__dictoffset__ != 0),
                  key=lambda cls: (cls.__module__, cls.__qualname__))


#: The removed line-suppression comment, with or without codes.
NOQA = re.compile(r"#\s*repro:\s*noqa")


class TestSlotsHotpath:
    """RPL002, checked on the imported classes: the whole MRO of every
    hot-path class and of each ``repro`` subclass declares ``__slots__``,
    so no instance regains a ``__dict__``."""

    def test_hot_path_classes_are_slotted(self):
        classes = hot_path_classes()
        assert len(classes) >= 38
        assert unslotted(classes) == []

    def test_unslotted_class_flagged(self):
        class Widget:
            def __init__(self):
                self.x = 1
        assert unslotted([Widget]) == [Widget]

    def test_slotted_class_clean(self):
        class Base:
            __slots__ = ()

        class Widget(Base):
            __slots__ = ("x",)
        assert unslotted([Base, Widget]) == []

    def test_exception_class_exempt(self):
        from repro.sim.events import SimulationError
        from repro.storage.request import IoKind
        classes = hot_path_classes()
        assert not classes & {SimulationError, IoKind}

    def test_hdd_helper_classes_are_on_the_hot_path(self):
        # HddArray's per-request record is defined in a root, not found
        # as a subclass of another root's class.
        from repro.storage.hdd import HddArray, _Striped
        assert {HddArray, _Striped} <= hot_path_classes()

    def test_unslotted_subclass_of_hotpath_base_flagged(self):
        # An unslotted subclass anywhere in the package regains __dict__
        # and silently undoes the base's layout.
        from repro.sim.events import Event

        class Sub(Event):
            __module__ = "repro.core.fixture"
        try:
            assert unslotted(hot_path_classes()) == [Sub]
        finally:
            del Sub
            gc.collect()  # drop it from Event.__subclasses__()

    def test_suppressed(self):
        # Nothing reads ``# repro: noqa`` comments any more, so one left
        # in the package would suppress nothing and only mislead a reader.
        stale = [f"{path}:{number}"
                 for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
                 for number, line in enumerate(
                     path.read_text(encoding="utf-8").splitlines(), 1)
                 if NOQA.search(line)]
        assert stale == []


class TestDeterminism(CheckCase):
    CODE = "RPL003"
    PATH = "src/repro/sim/clocky.py"
    SUPPRESSED = """
        import time
        def f():
            return time.time()  # repro: noqa[RPL003]
        """

    def test_wall_clock_flagged(self):
        assert self.flagged("""
            import time
            def f():
                return time.time()
            """) == 1

    def test_global_random_flagged(self):
        assert self.flagged("""
            import random
            def f():
                return random.random()
            """) == 1

    def test_seeded_rng_clean(self):
        assert self.flagged("""
            import random
            def f(seed):
                return random.Random(seed).random()
            """) == 0

    def test_set_iteration_feeding_scheduler_flagged(self):
        assert self.flagged("""
            def f(env, waiters):
                for w in set(waiters):
                    env.schedule(w)
            """) == 1

    def test_list_iteration_clean(self):
        assert self.flagged("""
            def f(env, waiters):
                for w in list(waiters):
                    env.schedule(w)
            """) == 0

    def test_out_of_scope_harness_clean(self):
        assert self.flagged("""
            import time
            def f():
                return time.monotonic()
            """, "src/repro/harness/sweep.py") == 0

    def test_out_of_scope_runstore_clean(self):
        assert self.flagged("""
            import time
            def f():
                return time.time()
            """, "src/repro/runstore/store.py") == 0

    def test_global_random_in_workloads_flagged(self):
        # The layers that draw randomness are in scope.
        assert self.flagged("""
            import random
            def next_item(items):
                return items[int(random.random() * len(items))]
            """, "src/repro/workloads/tpcc.py") == 1


class TestFaultSafety(CheckCase):
    CODE = "RPL004"
    PATH = "src/repro/core/mymanager.py"
    SUPPRESSED = """
        def f(self, request):
            yield self.device.submit(request)  # repro: noqa[RPL004]
        """

    def test_naked_device_await_flagged(self):
        assert self.flagged("""
            def f(self, request):
                yield self.device.submit(request)
            """) == 1

    def test_submit_flagged(self):
        assert self.flagged("""
            def f(self):
                yield self.wal.device.submit(req)
            """) == 1

    def test_try_reaching_fault_error_clean(self):
        assert self.flagged("""
            from repro.faults import IoFault
            def f(self, request):
                try:
                    yield self.device.submit(request)
                except IoFault:
                    pass
            """) == 0

    def test_retry_helper_clean(self):
        assert self.flagged("""
            def _ssd_io(self, request, must, fault):
                yield self.device.submit(request)
            """) == 0

    def test_lambda_thunk_clean(self):
        # A submit inside a thunk is no yield's operand: the helper the
        # thunk is handed to awaits what it returns.
        assert self.flagged("""
            def f(self, request):
                ok = yield from self._ssd_io(
                    lambda: self.device.submit(request))
            """) == 0


class TestNoSwallow(CheckCase):
    CODE = "RPL005"
    PATH = "src/repro/anywhere.py"
    SUPPRESSED = """
        def f():
            try:
                g()
            except Exception:  # repro: noqa[RPL005]
                pass
        """

    def test_bare_except_flagged(self):
        assert self.flagged("""
            def f():
                try:
                    g()
                except:
                    pass
            """) == 1

    def test_swallowing_broad_except_flagged(self):
        assert self.flagged("""
            def f():
                try:
                    g()
                except Exception:
                    pass
            """) == 1

    def test_broad_except_with_handling_clean(self):
        assert self.flagged("""
            def f(log):
                try:
                    g()
                except Exception as exc:
                    log.warning("g failed: %s", exc)
            """) == 0

    def test_narrow_except_pass_clean(self):
        assert self.flagged("""
            def f(users, req):
                try:
                    users.remove(req)
                except ValueError:
                    pass
            """) == 0


class TestSpawnDiscarded(CheckCase):
    CODE = "RPL007"
    PATH = "src/repro/engine/thing.py"
    SUPPRESSED = """
        def start(self):
            self.env.process(self._loop())  # repro: noqa[RPL007]
        """

    def test_discarded_handle_flagged(self):
        assert self.flagged("""
            def start(self):
                self.env.process(self._loop())
            """) == 1

    def test_bare_env_name_flagged(self):
        assert self.flagged("""
            def start(env, worker):
                env.process(worker(env))
            """) == 1

    def test_spawn_clean(self):
        assert self.flagged("""
            def start(self):
                self.env.spawn(self._loop())
            """) == 0

    def test_kept_handle_clean(self):
        assert self.flagged("""
            def start(self, ios):
                proc = self.env.process(self._loop())
                ios.append(self.env.process(self._io()))
                return self.env.run(self.env.process(self._main()))
            """) == 0

    def test_non_generator_call_argument_clean(self):
        # ``process(x)`` on something that is not starting a generator
        # (no call argument) is none of this rule's business.
        assert self.flagged("""
            def handle(pipeline, record):
                pipeline.process(record)
            """) == 0

    def test_out_of_scope_path_clean(self):
        assert self.flagged("""
            def start(env, worker):
                env.process(worker(env))
            """, "tests/sim/test_process.py") == 0


class TestStartTogether(CheckCase):
    CODE = "RPL008"
    PATH = "src/repro/engine/thing.py"
    SUPPRESSED = """
        def reference(env, gens):
            yield env.all_of(  # repro: noqa[RPL008]
                [env.process(g()) for g in gens])
        """

    def test_all_of_over_comprehension_of_starts_flagged(self):
        assert self.flagged("""
            def wave(self, frames):
                yield self.env.all_of(
                    [self.env.process(self._flush(f)) for f in frames])
            """) == 1

    def test_all_of_over_named_list_of_starts_flagged(self):
        assert self.flagged("""
            def wave(self, frames):
                pending = [
                    self.env.process(self._flush(f)) for f in frames
                ]
                results = yield self.env.all_of(pending)
            """) == 1

    def test_all_of_over_appended_starts_flagged(self):
        assert self.flagged("""
            def prefetch(self, plan):
                ios = []
                if plan.disk_count:
                    ios.append(self.env.process(self._disk_run(plan)))
                for pid in plan.ssd_pages:
                    ios.append(self.env.process(self._ssd_single(pid)))
                yield self.env.all_of(ios)
            """) == 1

    def test_all_of_over_named_starts_flagged(self):
        assert self.flagged("""
            def dual_write(self, frame):
                disk_write = self.env.process(self.disk.write(frame))
                ssd_write = self.env.process(self._cache_page(frame))
                yield self.env.all_of([disk_write, ssd_write])
            """) == 1

    def test_all_of_over_concatenated_starts_flagged(self):
        assert self.flagged("""
            def run(env, streams, refresher):
                procs = [env.process(s()) for s in streams]
                yield env.all_of(procs + [env.process(refresher())])
            """) == 1

    def test_gather_clean(self):
        assert self.flagged("""
            def wave(self, frames):
                results = yield self.env.gather(
                    self._flush(f) for f in frames)
            """) == 0

    def test_all_of_over_plain_events_clean(self):
        # Joins over events that are not process starts keep all_of.
        assert self.flagged("""
            def wait(self, requests, handles):
                done = [self.device.submit(r) for r in requests]
                yield self.env.all_of(done)
                yield self.env.all_of(handles)
                yield self.env.all_of([self.env.timeout(1), self._wake])
            """) == 0

    def test_spawn_loop_flagged(self):
        assert self.flagged("""
            def lazywriter(self, victims):
                for victim in victims:
                    victim.io_busy = self.env.event()
                    self._evicting += 1
                    self.env.spawn(self._evict(victim))
            """) == 1

    def test_bare_spawn_loop_flagged(self):
        assert self.flagged("""
            def start(env, workers):
                for worker in workers:
                    env.spawn(worker(env))
            """) == 1

    def test_spawn_all_clean(self):
        assert self.flagged("""
            def start(env, workers):
                env.spawn_all(worker(env) for worker in workers)
            """) == 0

    def test_spawn_loop_that_yields_clean(self):
        # Time passes between the starts: not started together.
        assert self.flagged("""
            def trickle(self, jobs):
                for job in jobs:
                    slot = yield self.slots.get()
                    self.env.spawn(self._run(job, slot))
            """) == 0

    def test_spawn_among_other_effects_clean(self):
        assert self.flagged("""
            def arm(self, specs):
                for spec in specs:
                    if spec.kind == "die":
                        self.env.spawn(self._die_at(spec))
                    else:
                        self.env.spawn(self._stall_at(spec))
                for spec in specs:
                    self.register(spec)
                    self.env.spawn(self._watch(spec))
            """) == 0

    def test_out_of_scope_path_clean(self):
        assert self.flagged("""
            def churn(env, worker):
                procs = [env.process(worker()) for _ in range(8)]
                env.run(env.all_of(procs))
            """, "tests/conftest.py") == 0


class TestOneWayToSleep(CheckCase):
    CODE = "RPL009"
    PATH = "src/repro/engine/thing.py"
    SUPPRESSED = """
        def loop(self):
            yield self.env.timeout(0.5)  # repro: noqa[RPL009]
        """

    def test_yielded_fresh_timeout_flagged(self):
        assert self.flagged("""
            def loop(self, env, rng):
                yield self.env.timeout(self.interval)
                value = yield env.timeout(rng.uniform(0.0, 0.01))
            """) == 2

    def test_yielded_delay_clean(self):
        assert self.flagged("""
            def loop(self, when):
                yield self.interval
                yield when - self.env.now
            """) == 0

    def test_timer_built_before_its_yield_clean(self):
        # It took its sequence number where it was built: yielding the
        # delay at the yield would move it.
        assert self.flagged("""
            def loop(self, env):
                timer = env.timeout(1.0)
                yield from self.step()
                yield timer
            """) == 0

    def test_raced_timeout_clean(self):
        assert self.flagged("""
            def wait(self, batch):
                yield self.env.any_of([batch.trigger,
                                       self.env.timeout(0.01)])
            """) == 0

    def test_out_of_scope_path_clean(self):
        assert self.flagged("""
            def loop(env):
                yield env.timeout(1)
            """, "tests/sim/test_process.py") == 0


class TestSuppressionForms:
    def test_mismatched_code_does_not_suppress(self):
        assert len(findings("RPL001", """
            def f(tracer):
                tracer.record("x")  # repro: noqa[RPL005]
            """, "src/repro/engine/x.py")) == 1


class TestPathScope:
    SOURCE = """
        def start(env, worker):
            env.process(worker(env))
        """

    def test_scope_is_the_path_inside_the_package(self):
        # A checkout named ``repro`` does not put its tests in the
        # package; the package inside it is in scope wherever it lives.
        assert len(findings("RPL007", self.SOURCE, "src/repro/x.py")) == 1
        assert findings("RPL007", self.SOURCE,
                        "/home/u/repro/tests/x.py") == []
        assert len(findings("RPL007", self.SOURCE,
                            "/home/u/repro/src/repro/engine/x.py")) == 1
