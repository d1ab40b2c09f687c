"""Per-rule fixture snippets: each rule has a positive (flagged),
negative (clean), and suppressed (noqa) case.

The snippets are linted in memory with :func:`check_source` under a
path inside the rule's scope, so the path-gating logic is exercised
too.  The snippets intentionally violate the invariants — they are the
test fixtures, not repo code (tests/statics is excluded in the ruff
per-file-ignores for the same reason).
"""

import textwrap

from repro.statics import check_source


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


class TestSlotsHotpath:
    PATH = "src/repro/sim/things.py"

    def test_unslotted_class_flagged(self):
        result = lint("""
            class Widget:
                def __init__(self):
                    self.x = 1
            """, self.PATH)
        assert codes(result) == ["RPL002"]

    def test_slotted_class_clean(self):
        result = lint("""
            class Widget:
                __slots__ = ("x",)
                def __init__(self):
                    self.x = 1
            """, self.PATH)
        assert codes(result) == []

    def test_exception_class_exempt(self):
        result = lint("""
            class WidgetError(Exception):
                pass
            """, self.PATH)
        assert codes(result) == []

    def test_hdd_helper_classes_are_on_the_hot_path(self):
        # One per request and one per drive: not subclasses of anything
        # in device.py, so only the root itself brings them in scope.
        result = lint("""
            class _Striped:
                def __init__(self, request, done):
                    self.request, self.done, self.left = request, done, 0
            """, "src/repro/storage/hdd.py")
        assert codes(result) == ["RPL002"]

    def test_unslotted_subclass_of_hotpath_base_flagged(self):
        # The subclass lives outside the hot-path roots but inherits
        # from a class inside them: an un-slotted subclass regains
        # __dict__, silently undoing the base's optimisation.
        hot = lint("""
            class Base:
                __slots__ = ()
            """, "src/repro/sim/base.py")
        assert codes(hot) == []
        # Cross-module closure needs both modules in one run.
        from repro.statics.engine import LintConfig, LintResult, ModuleInfo
        from repro.statics.engine import _run_rules
        modules = [
            ModuleInfo("src/repro/sim/base.py",
                       "class Base:\n    __slots__ = ()\n"),
            ModuleInfo("src/repro/core/sub.py",
                       "from repro.sim.base import Base\n"
                       "class Sub(Base):\n    pass\n"),
        ]
        result = LintResult()
        _run_rules(modules, LintConfig(select=("RPL002",)), result)
        assert [f.code for f in result.findings] == ["RPL002"]
        assert result.findings[0].path == "src/repro/core/sub.py"

    def test_suppressed(self):
        result = lint("""
            class Widget:  # repro: noqa[RPL002]
                def __init__(self):
                    self.x = 1
            """, self.PATH)
        assert codes(result) == []
        assert result.suppressed == 1


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
