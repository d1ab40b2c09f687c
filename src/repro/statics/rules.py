"""The built-in ``RPL0xx`` rules (DESIGN.md §9 maps each to its PR).

Every rule encodes an invariant another PR established at runtime:

* RPL001 tracer-guard      — zero-cost telemetry off-path (PR 5)
* RPL002 slots-hotpath     — ``__slots__`` on the event kernel (PR 5;
  PR 10 extended the roots to the buffer pool and the SSD managers)
* RPL003 determinism       — seeded, replayable simulation (PRs 1–5)
* RPL004 fault-safety      — device I/O reaches retry/degradation (PR 4)
* RPL005 no-swallow        — no silently swallowed exceptions (PR 4)
* RPL006 telemetry-labels  — statically known metric cardinality (PR 2)
* RPL007 spawn-discarded   — a dropped process handle means ``spawn`` (PR 13)
* RPL008 start-together    — a fan-out starts through ``gather``/``spawn_all``
  (PR 15)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.statics.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    rule,
)

#: Recording methods of ``repro.telemetry.tracer.Tracer``.
TRACER_METHODS = frozenset(
    {"record", "span", "instant", "complete", "counter"})

#: Exception names that satisfy the RPL004 fault-handling requirement.
FAULT_EXCEPTIONS = frozenset(
    {"IoFault", "TransientIoError", "DeviceDeadError",
     "Exception", "BaseException"})


def _is_tracerish(expr: ast.AST) -> bool:
    """Whether ``expr`` denotes a tracer (``tracer``/``self._tracer``/…)."""
    dotted = dotted_name(expr)
    if dotted is None:
        return False
    last = dotted.rsplit(".", 1)[-1]
    return last in ("tracer", "_tracer")


def _mentions_tracer_enabled(test: ast.AST) -> bool:
    """Whether an ``if`` test consults ``<tracer>.enabled`` positively."""
    for node in ast.walk(test):
        if (isinstance(node, ast.Attribute) and node.attr == "enabled"
                and _is_tracerish(node.value)):
            return True
    return False


@rule
class TracerGuardRule(Rule):
    """RPL001: tracer calls must be dominated by a ``tracer.enabled`` check.

    PR 5's speedups depend on the telemetry off-path allocating nothing:
    an unguarded ``tracer.instant(...)`` still builds its args dict and
    enters the call even under :class:`NullTracer`.  A call site is
    accepted when an enclosing ``if`` consults ``<tracer>.enabled``, or
    when the enclosing function starts with an early exit of the form
    ``if not <tracer>.enabled: return``.
    """

    code = "RPL001"
    name = "tracer-guard"
    description = ("tracer.record/span/instant/complete/counter calls must "
                   "be guarded by a tracer.enabled check")
    paths = ("repro/engine/", "repro/storage/", "repro/core/",
             "repro/workloads/", "repro/harness/", "repro/faults/")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in TRACER_METHODS
                    and _is_tracerish(node.func.value)):
                continue
            if self._guarded(module, node):
                continue
            yield self.finding(
                module, node,
                f"tracer.{node.func.attr}(...) is not guarded by a "
                f"tracer.enabled check (zero-cost telemetry off-path)")

    def _guarded(self, module: ModuleInfo, call: ast.Call) -> bool:
        for ancestor in module.ancestors(call):
            if (isinstance(ancestor, ast.If)
                    and _mentions_tracer_enabled(ancestor.test)):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return self._early_exit_guard(ancestor, call)
        return False

    @staticmethod
    def _early_exit_guard(function: ast.AST, call: ast.Call) -> bool:
        """``if not tracer.enabled: return`` before the call dominates it."""
        for stmt in function.body:  # type: ignore[attr-defined]
            if stmt.lineno >= call.lineno:
                break
            if not isinstance(stmt, ast.If) or stmt.orelse:
                continue
            test = stmt.test
            if not (isinstance(test, ast.UnaryOp)
                    and isinstance(test.op, ast.Not)
                    and _mentions_tracer_enabled(test.operand)):
                continue
            if stmt.body and isinstance(
                    stmt.body[-1], (ast.Return, ast.Continue, ast.Raise)):
                return True
        return False


@rule
class SlotsHotpathRule(Rule):
    """RPL002: hot-path classes (and their subclasses) need ``__slots__``.

    One instance per event/process/request makes attribute storage part
    of the kernel's allocation budget; a single un-slotted subclass
    gives every instance a ``__dict__`` again and silently reverts the
    PR 5 speedups.  The rule collects classes defined under the hot-path
    roots, closes over their in-repo subclasses (by base name, across
    files), and flags any that lack a ``__slots__`` declaration.
    Enums and exception types are excluded.
    """

    code = "RPL002"
    name = "slots-hotpath"
    description = ("classes on the simulator hot path (and their "
                   "subclasses) must declare __slots__")
    #: Where hot-path classes are *defined* (subclasses are found anywhere).
    #: The engine/core entries cover the partitioned buffer pool and the
    #: SSD managers: one frame/record per page and one manager vtable hit
    #: per fetch put their attribute storage on the same budget as the
    #: kernel's events.  ``storage/device.py``, ``storage/hdd.py``: a
    #: callback-completed I/O costs little besides attribute loads.
    hotpath_roots: Sequence[str] = (
        "repro/sim/", "repro/storage/request.py",
        "repro/storage/device.py", "repro/storage/hdd.py",
        "repro/engine/buffer_pool.py", "repro/engine/page.py",
        "repro/core/ssd_manager.py", "repro/core/ssd_buffer_table.py")
    #: Findings are only emitted for first-party sources, not test files.
    paths = ("repro/",)

    _EXCEPTION_BASES = frozenset(
        {"Exception", "BaseException", "ArithmeticError", "ValueError",
         "TypeError", "RuntimeError", "KeyError", "LookupError", "OSError"})
    _ENUM_BASES = frozenset({"Enum", "IntEnum", "Flag", "IntFlag"})

    def __init__(self) -> None:
        #: class name -> the module and node of its (last) definition
        self._classes: Dict[str, Tuple[ModuleInfo, ast.ClassDef]] = {}
        #: class name -> the last segment of each of its base names
        self._bases: Dict[str, Tuple[str, ...]] = {}

    def collect(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            # Last definition wins; same-named helpers in different test
            # fixtures are out of scope anyway (findings are per-class).
            self._classes[node.name] = (module, node)
            bases = []
            for base in node.bases:
                dotted = dotted_name(base)
                if dotted is not None:
                    bases.append(dotted.rsplit(".", 1)[-1])
            self._bases[node.name] = tuple(bases)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        hotpath = self._hotpath_closure()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in hotpath:
                continue
            recorded = self._classes.get(node.name)
            if recorded is None or recorded[1] is not node:
                continue
            if self._has_slots(node) or self._is_exempt_kind(node.name):
                continue
            yield self.finding(
                module, node,
                f"hot-path class {node.name} does not declare __slots__ "
                f"(instances would regain a __dict__)")

    def _hotpath_closure(self) -> Set[str]:
        """Hot-path classes plus everything that subclasses them."""
        roots = {
            name for name, (module, _node) in self._classes.items()
            if module.in_scope(self.hotpath_roots)
            and not self._is_exempt_kind(name)
        }
        closed = set(roots)
        changed = True
        while changed:
            changed = False
            for name, bases in self._bases.items():
                if name in closed or self._is_exempt_kind(name):
                    continue
                if any(base in closed for base in bases):
                    closed.add(name)
                    changed = True
        return closed

    def _is_exempt_kind(self, name: str) -> bool:
        """Enums and exceptions: slots are wrong or pointless there."""
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for base in self._bases.get(current, ()):
                if base in self._ENUM_BASES:
                    return True
                if base in self._EXCEPTION_BASES or base.endswith("Error"):
                    return True
                frontier.append(base)
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        # @dataclass(slots=True) also removes the __dict__.
        for decorator in node.decorator_list:
            if (isinstance(decorator, ast.Call)
                    and any(kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                            for kw in decorator.keywords)):
                return True
        return False


@rule
class DeterminismRule(Rule):
    """RPL003: the simulator must not consult wall clocks or global RNG.

    Every figure is a seeded, replayable run; ``time.time()`` or the
    module-level ``random.*`` functions (whose state is shared and
    unseeded) make results machine-dependent, and iterating a bare
    ``set`` to feed the scheduler makes event order depend on hash
    randomization.
    """

    code = "RPL003"
    name = "determinism"
    description = ("no wall-clock time, global random state, or "
                   "set-ordered scheduling inside the simulator")
    paths = ("repro/sim/", "repro/core/", "repro/engine/",
             "repro/storage/ftl/")

    _FORBIDDEN_CALLS = {
        "time.time": "wall-clock time",
        "time.monotonic": "wall-clock time",
        "time.perf_counter": "wall-clock time",
        "datetime.now": "wall-clock time",
        "datetime.utcnow": "wall-clock time",
        "datetime.datetime.now": "wall-clock time",
        "datetime.datetime.utcnow": "wall-clock time",
        "os.urandom": "unseeded entropy",
    }
    #: Calls that schedule work; a set-ordered loop feeding one of these
    #: makes the event order depend on hash randomization.
    _SCHEDULING = frozenset(
        {"schedule", "heappush", "succeed", "fail", "process", "push",
         "submit"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                finding = self._check_call(module, node)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.For):
                finding = self._check_set_loop(module, node)
                if finding is not None:
                    yield finding

    def _check_call(self, module: ModuleInfo,
                    node: ast.Call) -> Optional[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        reason = self._FORBIDDEN_CALLS.get(dotted)
        if reason is not None:
            return self.finding(
                module, node,
                f"{dotted}() introduces {reason} into a deterministic "
                f"simulation; derive times from env.now and entropy from "
                f"a seeded random.Random")
        if dotted.startswith("random.") and dotted != "random.Random":
            return self.finding(
                module, node,
                f"{dotted}() uses the shared module-level RNG; draw from "
                f"a seeded random.Random instance instead")
        return None

    def _check_set_loop(self, module: ModuleInfo,
                        node: ast.For) -> Optional[Finding]:
        if not self._is_bare_set(node.iter, node, module):
            return None
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Call)
                    and isinstance(inner.func, (ast.Attribute, ast.Name))):
                name = (inner.func.attr if isinstance(inner.func,
                                                      ast.Attribute)
                        else inner.func.id)
                if name in self._SCHEDULING:
                    return self.finding(
                        module, node,
                        f"iterating a set to call {name}() makes event "
                        f"order depend on hash randomization; sort the "
                        f"set (or use a list/dict) first")
        return None

    def _is_bare_set(self, iterable: ast.AST, loop: ast.For,
                     module: ModuleInfo) -> bool:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id in ("set", "frozenset")):
            return True
        # Local-variable inference: `x = set()` / `x = {...}` earlier in
        # the same function.
        if isinstance(iterable, ast.Name):
            function = module.enclosing_function(loop)
            if function is None:
                return False
            for stmt in ast.walk(function):
                if (isinstance(stmt, ast.Assign)
                        and stmt.lineno < loop.lineno
                        and any(isinstance(t, ast.Name)
                                and t.id == iterable.id
                                for t in stmt.targets)
                        and self._is_set_expr(stmt.value)):
                    return True
        return False

    @staticmethod
    def _is_set_expr(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("set", "frozenset"))


@rule
class FaultSafetyRule(Rule):
    """RPL004: raw device I/O must reach the fault machinery.

    PR 4 made every device submission fallible (transient errors, device
    death).  An awaited ``device.submit/read/write`` that neither sits
    in a ``try`` reaching an I/O-fault handler nor routes through one of
    the retry helpers (``_ssd_io`` and friends) turns an injected fault
    into an unhandled crash instead of a retry or a graceful detach.
    """

    code = "RPL004"
    name = "fault-safety"
    description = ("awaited Device.submit/read/write calls must be inside "
                   "fault handling or a retry helper")
    paths = ("repro/engine/", "repro/core/")

    #: Functions whose body *is* the fault handling (callers may await
    #: raw device events inside them, or pass lambdas into them).
    retry_helpers = ("_ssd_io", "_ssd_read_frame", "_ssd_write_frame")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_device_io(node):
                continue
            if not self._is_awaited(module, node):
                continue
            if self._is_protected(module, node):
                continue
            assert isinstance(node.func, ast.Attribute)
            yield self.finding(
                module, node,
                f"awaited device.{node.func.attr}(...) has no fault "
                f"handling; wrap it in try/except IoFault or route it "
                f"through a retry helper ({', '.join(self.retry_helpers)})")

    @staticmethod
    def _is_device_io(node: ast.Call) -> bool:
        if not isinstance(node.func, ast.Attribute):
            return False
        receiver = dotted_name(node.func.value)
        if receiver is None:
            return False
        last = receiver.rsplit(".", 1)[-1]
        if node.func.attr == "submit":
            return True
        return (node.func.attr in ("read", "write")
                and (last == "device" or last.endswith("_device")))

    def _is_awaited(self, module: ModuleInfo, node: ast.Call) -> bool:
        """The call's event is waited on (yield / yield from / await)."""
        parent = module.parents.get(node)
        return isinstance(parent, (ast.Yield, ast.YieldFrom, ast.Await))

    def _is_protected(self, module: ModuleInfo, node: ast.Call) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.Lambda):
                # A thunk handed to a retry helper; the helper awaits it
                # under its own try/except.
                return True
            if isinstance(ancestor, ast.Try):
                for handler in ancestor.handlers:
                    if self._handler_catches_faults(handler):
                        return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor.name in self.retry_helpers
        return False

    @staticmethod
    def _handler_catches_faults(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        for expr in types:
            dotted = dotted_name(expr)
            if dotted is not None and (
                    dotted.rsplit(".", 1)[-1] in FAULT_EXCEPTIONS):
                return True
        return False


@rule
class NoSwallowRule(Rule):
    """RPL005: no silently swallowed exceptions.

    A bare ``except:`` (which also eats ``KeyboardInterrupt`` and the
    kernel's crash propagation) is always flagged; ``except Exception``
    / ``except BaseException`` are flagged when the handler body does
    nothing but ``pass``.  Intentional cases carry a line suppression.
    """

    code = "RPL005"
    name = "no-swallow"
    description = ("no bare except: and no except Exception: pass "
                   "handlers")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare except: swallows everything including "
                    "KeyboardInterrupt and kernel crash propagation; "
                    "name the exception types")
                continue
            dotted = dotted_name(node.type)
            if dotted in ("Exception", "BaseException") and self._only_pass(
                    node.body):
                yield self.finding(
                    module, node,
                    f"except {dotted}: pass silently swallows every "
                    f"error; narrow the type or handle it")

    @staticmethod
    def _only_pass(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            # A docstring or bare `...` is still "does nothing".
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and (stmt.value.value is Ellipsis
                         or isinstance(stmt.value.value, str))):
                continue
            return False
        return True


@rule
class TelemetryLabelsRule(Rule):
    """RPL006: metric names and label sets must be string literals.

    The registry keys time series by (name, labelnames); a computed name
    or label tuple makes metric cardinality impossible to audit
    statically (PR 2's registry design assumes a fixed instrument set).
    Label *values* may be dynamic — only the name and the label schema
    must be literal.
    """

    code = "RPL006"
    name = "telemetry-labels"
    description = ("registry.counter/gauge/histogram names and labelnames "
                   "must be string literals")
    paths = ("repro/",)

    _FACTORIES = frozenset({"counter", "gauge", "histogram"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr in self._FACTORIES and self._is_registry(
                    node.func.value):
                yield from self._check_factory(module, node)
            elif node.func.attr == "labels":
                yield from self._check_labels(module, node)

    @staticmethod
    def _is_registry(expr: ast.AST) -> bool:
        dotted = dotted_name(expr)
        if dotted is None:
            return False
        return dotted.rsplit(".", 1)[-1] in ("registry", "_registry")

    def _check_factory(self, module: ModuleInfo,
                       node: ast.Call) -> Iterator[Finding]:
        assert isinstance(node.func, ast.Attribute)
        name_arg: Optional[ast.expr] = None
        if node.args:
            name_arg = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_arg = keyword.value
        if name_arg is not None and not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            yield self.finding(
                module, name_arg,
                f"registry.{node.func.attr}(...) metric name must be a "
                f"string literal so cardinality stays statically known")
        for keyword in node.keywords:
            if keyword.arg != "labelnames":
                continue
            if not self._literal_str_sequence(keyword.value):
                yield self.finding(
                    module, keyword.value,
                    f"registry.{node.func.attr}(...) labelnames must be a "
                    f"tuple/list of string literals")

    def _check_labels(self, module: ModuleInfo,
                      node: ast.Call) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg is None:  # .labels(**computed)
                yield self.finding(
                    module, node,
                    ".labels(**...) hides the label schema; pass each "
                    "label as an explicit keyword")

    @staticmethod
    def _literal_str_sequence(expr: ast.AST) -> bool:
        if not isinstance(expr, (ast.Tuple, ast.List)):
            return False
        return all(isinstance(el, ast.Constant) and isinstance(el.value, str)
                   for el in expr.elts)


def _starts_process(expr: ast.AST) -> bool:
    """Whether ``expr`` is ``<env>.process(<call>)``."""
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "process"
            and len(expr.args) == 1
            and isinstance(expr.args[0], ast.Call))


@rule
class SpawnDiscardedRule(Rule):
    """RPL007: a process whose handle is dropped is started with ``spawn``.

    ``env.process(gen())`` as a bare statement schedules a completion
    event nobody can wait on; ``env.spawn(gen())`` starts the same
    process without it.  One way to do each: handle wanted →
    ``process``, handle dropped → ``spawn``.
    """

    code = "RPL007"
    name = "spawn-discarded"
    description = ("a bare `<env>.process(<call>)` statement discards the "
                   "handle and must be `<env>.spawn(<call>)`")
    paths = ("repro/",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Expr) and _starts_process(node.value):
                yield self.finding(
                    module, node.value,
                    "process(...) handle is discarded; start "
                    "fire-and-forget processes with spawn(...) (no "
                    "completion event is scheduled)")


@rule
class StartTogetherRule(Rule):
    """RPL008: processes started back-to-back share one queue entry.

    ``env.all_of([env.process(g) for g in ...])`` pays a bootstrap, a
    completion event and a subscription per child, and a ``for`` loop of
    ``env.spawn(g)`` a bootstrap per member; ``env.gather(...)`` and
    ``env.spawn_all(...)`` run the same schedule from one entry
    (DESIGN.md §13, "Starting together").  ``all_of`` stays for joins
    over events that are not process starts.

    The ``all_of`` argument is followed through the enclosing function:
    a list, tuple, comprehension or ``+`` of them, a name assigned one,
    a name ``.append``-ed a fresh process, and element names assigned
    ``<env>.process(<call>)``.
    """

    code = "RPL008"
    name = "start-together"
    description = ("`all_of` over freshly started processes must be "
                   "`gather(...)`; a `for` body that only assigns and "
                   "`spawn`s must be `spawn_all(...)`")
    paths = ("repro/",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                if self._is_spawn_loop(node):
                    yield self.finding(
                        module, node,
                        "loop only starts fire-and-forget processes; "
                        "start them together with spawn_all(...) (one "
                        "queue entry, same schedule)")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "all_of"
                    and len(node.args) == 1):
                scope = module.enclosing_function(node) or module.tree
                if self._fresh(node.args[0], scope, follow=True):
                    yield self.finding(
                        module, node,
                        "all_of(...) over freshly started processes; pass "
                        "the generators to gather(...) (one start entry, "
                        "one completion event, same schedule)")

    @staticmethod
    def _is_spawn_loop(loop: ast.For) -> bool:
        spawns = 0
        for stmt in loop.body:
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr == "spawn"
                    and len(stmt.value.args) == 1
                    and isinstance(stmt.value.args[0], ast.Call)):
                return False
            spawns += 1
        # A yield in the body (``x = yield ...``) lets time pass between
        # the starts: those are not started together.
        return spawns > 0 and not any(
            isinstance(inner, (ast.Yield, ast.YieldFrom, ast.Await))
            for stmt in loop.body for inner in ast.walk(stmt))

    def _fresh(self, expr: ast.AST, scope: ast.AST, follow: bool) -> bool:
        """Whether ``expr`` holds processes started where it was built."""
        if isinstance(expr, (ast.List, ast.Tuple)):
            return any(self._fresh(el, scope, follow) for el in expr.elts)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return _starts_process(expr.elt)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return (self._fresh(expr.left, scope, follow)
                    or self._fresh(expr.right, scope, follow))
        if isinstance(expr, ast.Name) and follow:
            return self._bound_fresh(expr.id, scope)
        return _starts_process(expr)

    def _bound_fresh(self, name: str, scope: ast.AST) -> bool:
        """Whether ``name`` is assigned or appended fresh processes."""
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == name
                       for t in node.targets) \
                        and self._fresh(node.value, scope, follow=False):
                    return True
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                    and len(node.args) == 1
                    and _starts_process(node.args[0])):
                return True
        return False
