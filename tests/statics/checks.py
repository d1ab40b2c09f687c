"""The ``RPL0xx`` source checks (DESIGN.md §9 maps each to its invariant).

Each check takes one parsed module and yields ``(node, message)`` per
violation; ``test_selfcheck.py`` runs every check over each file of
``src/repro`` in its scope.  They read the source rather than run it,
so they also see the lines no test run reaches.

* RPL001 tracer guard      — zero-cost telemetry off-path
* RPL003 determinism       — seeded, replayable simulation
* RPL004 fault safety      — device I/O reaches retry/degradation
* RPL005 no swallow        — no silently swallowed exceptions
* RPL007 spawn discarded   — a dropped process handle means ``spawn``
* RPL008 start together    — a fan-out starts through ``gather``/``spawn_all``
* RPL009 one way to sleep  — a process sleeps by yielding its delay

RPL002 (``__slots__`` on the hot path) is checked on the imported
classes by ``test_rules.py::TestSlotsHotpath``.  Codes are never reused.
"""

import ast

from tests.statics.astutil import (
    FUNCTIONS, ancestors, dotted_name, enclosing_function, parent_map)

#: Recording methods of ``repro.telemetry.tracer.Tracer``.
TRACER_METHODS = frozenset({"record", "instant", "complete", "counter"})


def _is_tracerish(expr):
    """Whether ``expr`` denotes a tracer (``tracer``/``self._tracer``/…)."""
    dotted = dotted_name(expr)
    return (dotted is not None
            and dotted.rsplit(".", 1)[-1] in ("tracer", "_tracer"))


def _mentions_tracer_enabled(test):
    """Whether an ``if`` test consults ``<tracer>.enabled``."""
    return any(isinstance(node, ast.Attribute) and node.attr == "enabled"
               and _is_tracerish(node.value) for node in ast.walk(test))


def tracer_guard(tree):
    """RPL001: tracer calls are dominated by a ``tracer.enabled`` check.

    An unguarded ``tracer.instant(...)`` still builds its args and enters
    the call under ``NullTracer``.  A call is guarded by an enclosing
    ``if`` that consults ``<tracer>.enabled``, or by an early
    ``if not <tracer>.enabled: return`` in the enclosing function.
    """
    parents = parent_map(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TRACER_METHODS
                and _is_tracerish(node.func.value)
                and not _tracer_guarded(parents, node)):
            yield node, (f"tracer.{node.func.attr}(...) is not guarded by a "
                         f"tracer.enabled check (zero-cost telemetry "
                         f"off-path)")


def _tracer_guarded(parents, call):
    for ancestor in ancestors(parents, call):
        if (isinstance(ancestor, ast.If)
                and _mentions_tracer_enabled(ancestor.test)):
            return True
        if isinstance(ancestor, FUNCTIONS):
            return _early_exit_guard(ancestor, call)
    return False


def _early_exit_guard(function, call):
    """``if not tracer.enabled: return`` before the call dominates it."""
    for stmt in function.body:
        if stmt.lineno >= call.lineno:
            break
        if (isinstance(stmt, ast.If) and not stmt.orelse
                and isinstance(stmt.test, ast.UnaryOp)
                and isinstance(stmt.test.op, ast.Not)
                and _mentions_tracer_enabled(stmt.test.operand)
                and isinstance(stmt.body[-1],
                               (ast.Return, ast.Continue, ast.Raise))):
            return True
    return False


_WALL_CLOCKS = {
    "time.time": "wall-clock time",
    "time.monotonic": "wall-clock time",
    "time.perf_counter": "wall-clock time",
    "datetime.now": "wall-clock time",
    "datetime.utcnow": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "os.urandom": "unseeded entropy",
}
#: Calls that schedule work; a set-ordered loop feeding one makes the
#: event order depend on hash randomization.
_SCHEDULING = frozenset(
    {"schedule", "heappush", "succeed", "fail", "process", "push", "submit"})


def determinism(tree):
    """RPL003: no wall clock, global RNG or set-ordered scheduling.

    Every figure is a seeded, replayable run: ``time.time()`` or the
    shared, unseeded module-level ``random.*`` functions make results
    machine-dependent, and a loop over a bare ``set`` that schedules
    work makes event order depend on hash randomization.
    """
    parents = parent_map(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in _WALL_CLOCKS:
                yield node, (f"{dotted}() introduces {_WALL_CLOCKS[dotted]} "
                             f"into a deterministic simulation; derive "
                             f"times from env.now and entropy from a "
                             f"seeded random.Random")
            elif (dotted is not None and dotted.startswith("random.")
                    and dotted != "random.Random"):
                yield node, (f"{dotted}() uses the shared module-level "
                             f"RNG; draw from a seeded random.Random "
                             f"instance instead")
        elif isinstance(node, ast.For) and _iterates_set(parents, node):
            name = next((name for name in _called_names(node)
                         if name in _SCHEDULING), None)
            if name is not None:
                yield node, (f"iterating a set to call {name}() makes "
                             f"event order depend on hash randomization; "
                             f"sort the set (or use a list/dict) first")


def _called_names(loop):
    """The callee names (``f`` of ``f()`` and ``x.f()``) in a loop."""
    for inner in ast.walk(loop):
        if isinstance(inner, ast.Call):
            if isinstance(inner.func, ast.Attribute):
                yield inner.func.attr
            elif isinstance(inner.func, ast.Name):
                yield inner.func.id


def _is_set_expr(expr):
    return (isinstance(expr, (ast.Set, ast.SetComp))
            or (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("set", "frozenset")))


def _iterates_set(parents, loop):
    """The loop walks a set literal or call, or a local assigned one."""
    if _is_set_expr(loop.iter):
        return True
    if not isinstance(loop.iter, ast.Name):
        return False
    function = enclosing_function(parents, loop)
    if function is None:
        return False
    return any(isinstance(stmt, ast.Assign) and stmt.lineno < loop.lineno
               and any(isinstance(t, ast.Name) and t.id == loop.iter.id
                       for t in stmt.targets)
               and _is_set_expr(stmt.value)
               for stmt in ast.walk(function))


#: Exception names that count as handling an I/O fault (RPL004).
FAULT_EXCEPTIONS = frozenset(
    {"IoFault", "TransientIoError", "DeviceDeadError",
     "Exception", "BaseException"})
#: Functions whose body *is* the fault handling: they may await raw
#: device events, and callers may pass lambdas into them.
RETRY_HELPERS = ("_ssd_io", "_ssd_read_frame", "_ssd_write_frame")


def fault_safety(tree):
    """RPL004: an awaited raw device I/O reaches the fault machinery.

    Every device submission is fallible.  An awaited
    ``device.submit/read/write`` outside a ``try`` that catches I/O
    faults and outside the retry helpers turns an injected fault into an
    unhandled crash instead of a retry or a graceful detach.
    """
    parents = parent_map(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _is_device_io(node)
                and isinstance(parents.get(node),
                               (ast.Yield, ast.YieldFrom, ast.Await))
                and not _fault_protected(parents, node)):
            yield node, (f"awaited device.{node.func.attr}(...) has no "
                         f"fault handling; wrap it in try/except IoFault "
                         f"or route it through a retry helper "
                         f"({', '.join(RETRY_HELPERS)})")


def _is_device_io(node):
    if not isinstance(node.func, ast.Attribute):
        return False
    receiver = dotted_name(node.func.value)
    if receiver is None:
        return False
    last = receiver.rsplit(".", 1)[-1]
    return node.func.attr == "submit" or (
        node.func.attr in ("read", "write")
        and (last == "device" or last.endswith("_device")))


def _fault_protected(parents, node):
    for ancestor in ancestors(parents, node):
        if isinstance(ancestor, ast.Lambda):
            # A thunk handed to a retry helper, which awaits it under its
            # own try/except.
            return True
        if isinstance(ancestor, ast.Try) and any(
                _catches_faults(h) for h in ancestor.handlers):
            return True
        if isinstance(ancestor, FUNCTIONS):
            return ancestor.name in RETRY_HELPERS
    return False


def _catches_faults(handler):
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any((dotted_name(expr) or "").rsplit(".", 1)[-1]
               in FAULT_EXCEPTIONS for expr in types)


def no_swallow(tree):
    """RPL005: no silently swallowed exceptions.

    A bare ``except:`` also eats ``KeyboardInterrupt`` and the kernel's
    crash propagation, so it is always flagged; ``except Exception`` /
    ``except BaseException`` are flagged when the handler does nothing.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node, ("bare except: swallows everything including "
                         "KeyboardInterrupt and kernel crash propagation; "
                         "name the exception types")
            continue
        dotted = dotted_name(node.type)
        if (dotted in ("Exception", "BaseException")
                and all(_does_nothing(stmt) for stmt in node.body)):
            yield node, (f"except {dotted}: pass silently swallows every "
                         f"error; narrow the type or handle it")


def _does_nothing(stmt):
    """``pass``, a docstring or a bare ``...``."""
    return isinstance(stmt, ast.Pass) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        and (stmt.value.value is Ellipsis
             or isinstance(stmt.value.value, str)))


def _starts_process(expr):
    """Whether ``expr`` is ``<env>.process(<call>)``."""
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "process"
            and len(expr.args) == 1
            and isinstance(expr.args[0], ast.Call))


def spawn_discarded(tree):
    """RPL007: a process whose handle is dropped is started with ``spawn``.

    ``env.process(gen())`` as a bare statement schedules a completion
    event nobody can wait on; ``env.spawn(gen())`` starts the same
    process without it.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and _starts_process(node.value):
            yield node.value, ("process(...) handle is discarded; start "
                               "fire-and-forget processes with spawn(...) "
                               "(no completion event is scheduled)")


def start_together(tree):
    """RPL008: processes started back-to-back share one queue entry.

    ``env.all_of([env.process(g) for g in ...])`` pays a bootstrap, a
    completion event and a subscription per child, and a ``for`` loop
    of ``env.spawn(g)`` a bootstrap per member; ``env.gather(...)`` and
    ``env.spawn_all(...)`` run the same schedule from one entry.
    ``all_of`` stays for joins over events that are not process starts.
    Its argument is followed through the enclosing function: a list,
    tuple, comprehension or ``+`` of them, a name assigned one, a name
    ``.append``-ed a fresh process, and element names assigned
    ``<env>.process(<call>)``.
    """
    parents = parent_map(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_spawn_loop(node):
            yield node, ("loop only starts fire-and-forget processes; "
                         "start them together with spawn_all(...) (one "
                         "queue entry, same schedule)")
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "all_of" and len(node.args) == 1
                and _fresh(node.args[0],
                           enclosing_function(parents, node) or tree,
                           follow=True)):
            yield node, ("all_of(...) over freshly started processes; pass "
                         "the generators to gather(...) (one start entry, "
                         "one completion event, same schedule)")


def _is_spawn_loop(loop):
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
    # A yield in the body (``x = yield ...``) lets time pass between the
    # starts: those are not started together.
    return spawns > 0 and not any(
        isinstance(inner, (ast.Yield, ast.YieldFrom, ast.Await))
        for stmt in loop.body for inner in ast.walk(stmt))


def _fresh(expr, scope, follow):
    """Whether ``expr`` holds processes started where it was built."""
    if isinstance(expr, (ast.List, ast.Tuple)):
        return any(_fresh(el, scope, follow) for el in expr.elts)
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
        return _starts_process(expr.elt)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return (_fresh(expr.left, scope, follow)
                or _fresh(expr.right, scope, follow))
    if isinstance(expr, ast.Name) and follow:
        return _bound_fresh(expr.id, scope)
    return _starts_process(expr)


def _bound_fresh(name, scope):
    """Whether ``name`` is assigned or appended fresh processes."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            if (any(isinstance(t, ast.Name) and t.id == name
                    for t in node.targets)
                    and _fresh(node.value, scope, follow=False)):
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


def one_way_to_sleep(tree):
    """RPL009: a process sleeps by yielding its delay.

    ``yield env.timeout(d)`` builds a ``Timeout``, its callback list and
    a bound method that the kernel drops when the sleep ends; ``yield d``
    wakes at the same instant with the same sequence number on the
    process's own entry (DESIGN.md §13, "Waits").  Only the one
    expression is flagged: a timer built earlier and yielded later took
    its sequence number when it was built, and one raced in ``any_of``
    is not a sleep.
    """
    for node in ast.walk(tree):
        if (isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "timeout"):
            yield node, ("yield <env>.timeout(d) builds a Timeout to "
                         "sleep; yield the delay d itself (same wake time "
                         "and sequence number, nothing allocated)")


#: code → (check, the paths inside ``src/repro`` it covers, the ones it
#: skips); ``""`` is the whole package.  RPL003's two skips read the
#: clock on purpose: the sweep's progress ETA and the run store's row
#: timestamps.
CHECKS = {
    "RPL001": (tracer_guard, ("",), ()),
    "RPL003": (determinism, ("",), ("harness/sweep.py", "runstore/")),
    "RPL004": (fault_safety, ("engine/", "core/"), ()),
    "RPL005": (no_swallow, ("",), ()),
    "RPL007": (spawn_discarded, ("",), ()),
    "RPL008": (start_together, ("",), ()),
    "RPL009": (one_way_to_sleep, ("",), ()),
}


def in_scope(code, path):
    """Whether check ``code`` covers the file at ``path``.

    The scope is the path inside the package (the part after
    ``src/repro/``), so neither where the checkout lives nor its name
    changes the verdict, and ``tests/`` is never in scope.
    """
    _, package, inside = ("/" + path).rpartition("/src/repro/")
    _, paths, skips = CHECKS[code]
    return (bool(package) and inside.startswith(paths)
            and not inside.startswith(skips))


def parse_package(package):
    """Every module under ``package`` (a ``src/repro`` directory),
    parsed: path from the checkout root → tree.  A module that does not
    parse raises :class:`SyntaxError` naming its file."""
    root = package.parents[1]
    return {path.relative_to(root).as_posix():
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(package.rglob("*.py"))}


def report(code, sources):
    """One ``path:line: CODE message`` line per finding of check
    ``code`` over the parsed ``sources`` in its scope."""
    check = CHECKS[code][0]
    return [f"{path}:{node.lineno}: {code} {message}"
            for path, tree in sources.items() if in_scope(code, path)
            for node, message in check(tree)]
