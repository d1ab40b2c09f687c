"""Per-rule fixture snippets: each rule has a positive (flagged),
negative (clean), and suppressed (noqa) case.

The snippets are linted in memory with :func:`check_source` under a
path inside the rule's scope, so the path-gating logic is exercised
too.  The snippets intentionally violate the invariants — they are the
test fixtures, not repo code (tests/statics is excluded in the ruff
per-file-ignores for the same reason).  RPL002 has no AST rule: its
invariant is checked on the imported classes (:class:`TestSlotsHotpath`).
"""

import enum
import gc
import importlib
import pkgutil
import textwrap
from pathlib import Path

import repro
from repro.statics import check_source
from repro.statics.engine import noqa_codes


def lint(source, path):
    return check_source(textwrap.dedent(source), path=path)


def codes(result):
    return [f.code for f in result.findings]


class TestTracerGuard:
    PATH = "src/repro/engine/buffer_pool.py"

    def test_unguarded_call_flagged(self):
        result = lint("""
            def f(tracer, page):
                tracer.record("pin", page)
            """, self.PATH)
        assert codes(result) == ["RPL001"]

    def test_guarded_call_clean(self):
        result = lint("""
            def f(tracer, page):
                if tracer.enabled:
                    tracer.record("pin", page)
            """, self.PATH)
        assert codes(result) == []

    def test_early_exit_guard_clean(self):
        result = lint("""
            def f(tracer, page):
                if not tracer.enabled:
                    return
                tracer.record("pin", page)
            """, self.PATH)
        assert codes(result) == []

    def test_out_of_scope_path_clean(self):
        result = lint("""
            def f(tracer, page):
                tracer.record("pin", page)
            """, "src/repro/statics/engine.py")
        assert codes(result) == []

    def test_suppressed(self):
        result = lint("""
            def f(tracer, page):
                tracer.record("pin", page)  # repro: noqa[RPL001]
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


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


class TestSlotsHotpath:
    """RPL002, checked on the imported classes: the whole MRO of every
    hot-path class and of each ``repro`` subclass declares ``__slots__``,
    so no instance regains a ``__dict__``."""

    def test_hot_path_classes_are_slotted(self):
        classes = hot_path_classes()
        assert len(classes) >= 39
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
        from repro.sim.environment import EmptySchedule
        from repro.sim.events import SimulationError
        from repro.storage.request import IoKind
        classes = hot_path_classes()
        assert not classes & {EmptySchedule, SimulationError, IoKind}

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
        # The runtime check reads no comments, so a ``noqa[RPL002]`` in
        # the package would suppress nothing and only mislead a reader.
        stale = [f"{path}:{number}"
                 for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
                 for number, named in noqa_codes(
                     path.read_text(encoding="utf-8").splitlines()).items()
                 if named and "RPL002" in named]
        assert stale == []


class TestDeterminism:
    PATH = "src/repro/sim/clocky.py"

    def test_wall_clock_flagged(self):
        result = lint("""
            import time
            def f():
                return time.time()
            """, self.PATH)
        assert codes(result) == ["RPL003"]

    def test_global_random_flagged(self):
        result = lint("""
            import random
            def f():
                return random.random()
            """, self.PATH)
        assert codes(result) == ["RPL003"]

    def test_seeded_rng_clean(self):
        result = lint("""
            import random
            def f(seed):
                return random.Random(seed).random()
            """, self.PATH)
        assert codes(result) == []

    def test_set_iteration_feeding_scheduler_flagged(self):
        result = lint("""
            def f(env, waiters):
                for w in set(waiters):
                    env.schedule(w)
            """, self.PATH)
        assert codes(result) == ["RPL003"]

    def test_list_iteration_clean(self):
        result = lint("""
            def f(env, waiters):
                for w in list(waiters):
                    env.schedule(w)
            """, self.PATH)
        assert codes(result) == []

    def test_out_of_scope_harness_clean(self):
        result = lint("""
            import time
            def f():
                return time.monotonic()
            """, "src/repro/harness/sweep.py")
        assert codes(result) == []

    def test_suppressed(self):
        result = lint("""
            import time
            def f():
                return time.time()  # repro: noqa[RPL003]
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


class TestFaultSafety:
    PATH = "src/repro/core/mymanager.py"

    def test_naked_device_await_flagged(self):
        result = lint("""
            def f(self):
                yield self.device.read(0, 1)
            """, self.PATH)
        assert codes(result) == ["RPL004"]

    def test_submit_flagged(self):
        result = lint("""
            def f(self):
                yield self.wal.device.submit(req)
            """, self.PATH)
        assert codes(result) == ["RPL004"]

    def test_try_reaching_fault_error_clean(self):
        result = lint("""
            from repro.faults import IoFault
            def f(self):
                try:
                    yield self.device.read(0, 1)
                except IoFault:
                    pass
            """, self.PATH)
        assert codes(result) == []

    def test_retry_helper_clean(self):
        result = lint("""
            def _ssd_io(self, submit):
                yield self.device.read(0, 1)
            """, self.PATH)
        assert codes(result) == []

    def test_lambda_thunk_clean(self):
        # The canonical call shape: the raw submit is wrapped in a
        # thunk handed to the retry helper.
        result = lint("""
            def f(self):
                ok = yield from self._ssd_io(
                    lambda: self.device.write(0, 1))
            """, self.PATH)
        assert codes(result) == []

    def test_suppressed(self):
        result = lint("""
            def f(self):
                yield self.device.read(0, 1)  # repro: noqa[RPL004]
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


class TestNoSwallow:
    PATH = "src/repro/anywhere.py"

    def test_bare_except_flagged(self):
        result = lint("""
            def f():
                try:
                    g()
                except:
                    pass
            """, self.PATH)
        assert codes(result) == ["RPL005"]

    def test_swallowing_broad_except_flagged(self):
        result = lint("""
            def f():
                try:
                    g()
                except Exception:
                    pass
            """, self.PATH)
        assert codes(result) == ["RPL005"]

    def test_broad_except_with_handling_clean(self):
        result = lint("""
            def f(log):
                try:
                    g()
                except Exception as exc:
                    log.warning("g failed: %s", exc)
            """, self.PATH)
        assert codes(result) == []

    def test_narrow_except_pass_clean(self):
        result = lint("""
            def f(users, req):
                try:
                    users.remove(req)
                except ValueError:
                    pass
            """, self.PATH)
        assert codes(result) == []

    def test_suppressed(self):
        result = lint("""
            def f():
                try:
                    g()
                except Exception:  # repro: noqa[RPL005]
                    pass
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


class TestTelemetryLabels:
    PATH = "src/repro/telemetry/thing.py"

    def test_dynamic_metric_name_flagged(self):
        result = lint("""
            def f(registry, name):
                return registry.counter("prefix_" + name, "help")
            """, self.PATH)
        assert codes(result) == ["RPL006"]

    def test_literal_metric_name_clean(self):
        result = lint("""
            def f(registry):
                return registry.counter("faults_total", "help",
                                        labelnames=("device", "kind"))
            """, self.PATH)
        assert codes(result) == []

    def test_dynamic_labelnames_flagged(self):
        result = lint("""
            def f(registry, names):
                return registry.counter("faults_total", "help",
                                        labelnames=names)
            """, self.PATH)
        assert codes(result) == ["RPL006"]

    def test_suppressed(self):
        result = lint("""
            def f(registry, name):
                return registry.counter("p_" + name, "h")  # repro: noqa[RPL006]
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


class TestSpawnDiscarded:
    PATH = "src/repro/engine/thing.py"

    def test_discarded_handle_flagged(self):
        result = lint("""
            def start(self):
                self.env.process(self._loop())
            """, self.PATH)
        assert codes(result) == ["RPL007"]

    def test_bare_env_name_flagged(self):
        result = lint("""
            def start(env, worker):
                env.process(worker(env))
            """, self.PATH)
        assert codes(result) == ["RPL007"]

    def test_spawn_clean(self):
        result = lint("""
            def start(self):
                self.env.spawn(self._loop())
            """, self.PATH)
        assert codes(result) == []

    def test_kept_handle_clean(self):
        result = lint("""
            def start(self, ios):
                proc = self.env.process(self._loop())
                ios.append(self.env.process(self._io()))
                return self.env.run(self.env.process(self._main()))
            """, self.PATH)
        assert codes(result) == []

    def test_non_generator_call_argument_clean(self):
        # ``process(x)`` on something that is not starting a generator
        # (no call argument) is none of this rule's business.
        result = lint("""
            def handle(pipeline, record):
                pipeline.process(record)
            """, self.PATH)
        assert codes(result) == []

    def test_out_of_scope_path_clean(self):
        result = lint("""
            def start(env, worker):
                env.process(worker(env))
            """, "tests/sim/test_process.py")
        assert codes(result) == []

    def test_suppressed(self):
        result = lint("""
            def start(self):
                self.env.process(self._loop())  # repro: noqa[RPL007]
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


class TestStartTogether:
    PATH = "src/repro/engine/thing.py"

    def test_all_of_over_comprehension_of_starts_flagged(self):
        result = lint("""
            def wave(self, frames):
                yield self.env.all_of(
                    [self.env.process(self._flush(f)) for f in frames])
            """, self.PATH)
        assert codes(result) == ["RPL008"]

    def test_all_of_over_named_list_of_starts_flagged(self):
        result = lint("""
            def wave(self, frames):
                pending = [
                    self.env.process(self._flush(f)) for f in frames
                ]
                results = yield self.env.all_of(pending)
            """, self.PATH)
        assert codes(result) == ["RPL008"]

    def test_all_of_over_appended_starts_flagged(self):
        result = lint("""
            def prefetch(self, plan):
                ios = []
                if plan.disk_count:
                    ios.append(self.env.process(self._disk_run(plan)))
                for pid in plan.ssd_pages:
                    ios.append(self.env.process(self._ssd_single(pid)))
                yield self.env.all_of(ios)
            """, self.PATH)
        assert codes(result) == ["RPL008"]

    def test_all_of_over_named_starts_flagged(self):
        result = lint("""
            def dual_write(self, frame):
                disk_write = self.env.process(self.disk.write(frame))
                ssd_write = self.env.process(self._cache_page(frame))
                yield self.env.all_of([disk_write, ssd_write])
            """, self.PATH)
        assert codes(result) == ["RPL008"]

    def test_all_of_over_concatenated_starts_flagged(self):
        result = lint("""
            def run(env, streams, refresher):
                procs = [env.process(s()) for s in streams]
                yield env.all_of(procs + [env.process(refresher())])
            """, self.PATH)
        assert codes(result) == ["RPL008"]

    def test_gather_clean(self):
        result = lint("""
            def wave(self, frames):
                results = yield self.env.gather(
                    self._flush(f) for f in frames)
            """, self.PATH)
        assert codes(result) == []

    def test_all_of_over_plain_events_clean(self):
        # Joins over events that are not process starts keep all_of.
        result = lint("""
            def wait(self, requests, handles):
                done = [self.device.submit(r) for r in requests]
                yield self.env.all_of(done)
                yield self.env.all_of(handles)
                yield self.env.all_of([self.env.timeout(1), self._wake])
            """, self.PATH)
        assert codes(result) == []

    def test_spawn_loop_flagged(self):
        result = lint("""
            def lazywriter(self, victims):
                for victim in victims:
                    victim.io_busy = self.env.event()
                    self._evicting += 1
                    self.env.spawn(self._evict(victim))
            """, self.PATH)
        assert codes(result) == ["RPL008"]

    def test_bare_spawn_loop_flagged(self):
        result = lint("""
            def start(env, workers):
                for worker in workers:
                    env.spawn(worker(env))
            """, self.PATH)
        assert codes(result) == ["RPL008"]

    def test_spawn_all_clean(self):
        result = lint("""
            def start(env, workers):
                env.spawn_all(worker(env) for worker in workers)
            """, self.PATH)
        assert codes(result) == []

    def test_spawn_loop_that_yields_clean(self):
        # Time passes between the starts: not started together.
        result = lint("""
            def trickle(self, jobs):
                for job in jobs:
                    slot = yield self.slots.get()
                    self.env.spawn(self._run(job, slot))
            """, self.PATH)
        assert codes(result) == []

    def test_spawn_among_other_effects_clean(self):
        result = lint("""
            def arm(self, specs):
                for spec in specs:
                    if spec.kind == "die":
                        self.env.spawn(self._die_at(spec))
                    else:
                        self.env.spawn(self._stall_at(spec))
                for spec in specs:
                    self.register(spec)
                    self.env.spawn(self._watch(spec))
            """, self.PATH)
        assert codes(result) == []

    def test_out_of_scope_path_clean(self):
        result = lint("""
            def churn(env, worker):
                procs = [env.process(worker()) for _ in range(8)]
                env.run(env.all_of(procs))
            """, "tests/conftest.py")
        assert codes(result) == []

    def test_suppressed(self):
        result = lint("""
            def reference(env, gens):
                yield env.all_of(  # repro: noqa[RPL008]
                    [env.process(g()) for g in gens])
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


class TestPathScope:
    SOURCE = """
        def start(env, worker):
            env.process(worker(env))
        """

    def test_scope_is_the_path_inside_the_package(self):
        # A checkout named ``repro`` does not put its tests in the
        # package; the package inside it is in scope wherever it lives.
        assert codes(lint(self.SOURCE, "src/repro/x.py")) == ["RPL007"]
        assert codes(lint(self.SOURCE, "/home/u/repro/tests/x.py")) == []
        assert codes(lint(self.SOURCE,
                          "/home/u/repro/src/repro/engine/x.py")) == ["RPL007"]


class TestSuppressionForms:
    PATH = "src/repro/engine/x.py"

    def test_blanket_noqa_suppresses_any_code(self):
        result = lint("""
            def f(tracer):
                tracer.record("x")  # repro: noqa
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1

    def test_mismatched_code_does_not_suppress(self):
        result = lint("""
            def f(tracer):
                tracer.record("x")  # repro: noqa[RPL005]
            """, self.PATH)
        assert codes(result) == ["RPL001"]
        assert result.suppressed == 0
