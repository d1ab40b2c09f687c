"""The simulation environment: virtual clock plus event scheduler."""

from __future__ import annotations

import gc
import math
from functools import partial
from heapq import heappop, heappush
from typing import (Any, Callable, Generator, Iterable, List, Optional,
                    Tuple, Union)

from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import (Call, DetachedProcess, Gather, Process,
                               Step, _require_generator)


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


def _exhausted() -> bool:
    """The heap kernel's ``_advance``: its ``_current`` is the whole
    queue, so once that is empty nothing is left to refill it."""
    return False


class Environment:
    """Execution environment for a deterministic discrete-event simulation.

    Time is a float in *virtual seconds* starting at ``initial_time``.
    Events scheduled at the same instant are processed in scheduling order,
    which makes runs fully deterministic.

    The scheduler is the hottest code in the repository (every benchmark
    figure is millions of events), so the hot paths are hand-flattened:
    the tie-break sequence is a plain int (not an ``itertools.count``),
    event factories push onto the heap directly, and :meth:`run` inlines
    the :meth:`step` loop with the queue and heap functions hoisted into
    locals.

    The queue is seen through four slots, which is how the timer wheel
    (:class:`~repro.sim.wheel.WheelEnvironment`) slots in behind the one
    loop without a branch on the hot path:

    * ``_push`` — where the event factories schedule: a C-level
      ``partial(heappush, queue)`` here, the wheel's bound ``push``;
    * ``_current`` — the heap :meth:`run`, :meth:`step` and :meth:`peek`
      pop from: ``_queue`` itself here, the wheel's slot being drained;
    * ``_near`` — the rule every schedule follows: an entry whose time
      is earlier goes ``heappush(_current, entry)``, any other
      ``_push(entry)``.  ``-inf`` here, so every entry takes ``_push``;
      on the wheel, the first instant past the slot being drained;
    * ``_advance`` — refills ``_current`` when it runs dry, False when
      nothing is left: :func:`_exhausted` here, the wheel's cascade.

    ``_current`` is mutated in place and never rebound (the wheel
    refills it with ``current[:] = ...``, :meth:`wipe` clears it), so
    the aliases :meth:`run` hoists stay valid across callbacks that
    advance, crash or wipe the environment.
    """

    __slots__ = ("_now", "_queue", "_seq", "_crash", "_push", "_current",
                 "_near", "_advance")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        if self._now != self._now:
            raise ValueError(f"initial_time must be a number, got "
                             f"{initial_time}")
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0  # same-instant tie-break, incremented per schedule
        self._push: Callable[[Tuple[float, int, Event]], None] = (
            partial(heappush, self._queue))
        self._current = self._queue
        self._near = -math.inf
        self._advance: Callable[[], bool] = _exhausted
        self._crash: Optional[BaseException] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any]) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def spawn(self, generator: Generator[Any, Any, Any]) -> None:
        """Start a process nobody will wait on (fire and forget).

        Returns no handle, which is what lets the process skip its
        completion event; an uncaught exception still surfaces through
        :meth:`run`.  Use :meth:`process` when the handle is wanted.
        """
        _require_generator(generator)
        self.spawn_all((generator,))

    def spawn_all(self, steps: Iterable[Step]) -> None:
        """:meth:`spawn` several processes together: one queue entry.

        ``steps`` is consumed inside that entry, one member at a time: a
        member built by a call (``self._evict(v) for v in victims``) is
        built there, after the member before it ran its first step.  The
        entry runs each generator's first step in order — the schedule
        one ``spawn`` per member gives, since consecutive bootstraps
        admit nothing between them — and only a generator that yields
        becomes a process at all; a ``()`` member finished at its call.
        An empty list or tuple queues nothing.
        """
        DetachedProcess.start_all(self, steps)

    def gather(self, members: Iterable[Union[Generator[Any, Any, Any],
                                             Call]]) -> Gather:
        """Start ``members`` together and join them.

        A member is a generator, or a :data:`~repro.sim.process.Call`
        ``(function, argument)`` made in the same entry (DESIGN.md §13, "An
        SSD read is a call").  The returned event triggers with the list
        of their return values, in input order, and fails with the first
        failure.  It replaces ``all_of([process(g) for g in ...])``;
        :meth:`all_of` remains for joins over events that are not
        process starts.
        """
        return Gather(self, members)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling / execution
    # ------------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        current = self._current
        if current or self._advance():
            return current[0][0]
        return float("inf")

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        current = self._current
        if not current and not self._advance():
            raise EmptySchedule("no scheduled events remain")
        when, _, event = heappop(current)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
            if self._crash is not None:
                # As in run(): the traceback takes this frame.
                del callback, callbacks, event
                raise self._take_crash()

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        * ``until is None`` — run until no events remain.
        * ``until`` is a number — run until virtual time reaches it.
        * ``until`` is an :class:`Event` — run until that event is
          processed, then return its value (raising if it failed).
        """
        if until is None:
            stop_at, stop_event = float("inf"), None
        elif isinstance(until, Event):
            stop_at, stop_event = float("inf"), until
            if until.processed:
                if not until.ok:
                    raise until.value
                return until.value
        else:
            stop_at, stop_event = float(until), None
            if not stop_at >= self._now:  # before now, or nan
                raise ValueError(
                    f"until must not be before now ({self._now}), got "
                    f"{until}")

        # The inlined step loop over the hoisted ``_current`` and
        # ``_advance`` (see the class docstring for why the aliases stay
        # valid); ``advance`` is entered only when ``current`` runs dry.
        #
        # The cyclic collector is paused for the duration of the loop: a
        # run churns through millions of short-lived generators, events,
        # and schedule tuples, which keeps the generational thresholds
        # permanently tripped, while almost none of that garbage is
        # cyclic (finished processes drop their frames by refcount).
        # Pausing collection roughly halves end-to-end run wall time at
        # a few tens of MB of peak RSS; anything cyclic is reclaimed by
        # the re-enabled collector after the loop (and ``wipe()`` calls
        # ``gc.collect()`` explicitly, which works while paused).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            current = self._current
            advance = self._advance
            pop = heappop
            if stop_event is None:
                # Run-until-time is the workload-driver case and covers
                # the overwhelming majority of events, so it gets its
                # own loop without the per-event stop-event probe.
                while current or advance():
                    if current[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    when, _, event = pop(current)
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                        if self._crash is not None:
                            # The traceback takes this frame: it must
                            # not hold the crashed process's resume.
                            del callback, callbacks, event
                            raise self._take_crash()
            else:
                while current or advance():
                    if stop_event.callbacks is None:
                        break
                    if current[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    when, _, event = pop(current)
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                        if self._crash is not None:
                            del callback, callbacks, event
                            raise self._take_crash()
        finally:
            if gc_was_enabled:
                gc.enable()

        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError(
                    "run() finished with the target event still pending")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value

        if stop_at != float("inf"):
            self._now = stop_at
        return None

    def wipe(self) -> None:
        """Discard every scheduled event (simulated power failure).

        Processes waiting on wiped events never resume: they are the
        in-flight work a crash destroys.  The clock does not move, and
        new processes can be started afterwards — this is what lets a
        crash-point harness dead-stop a system mid-I/O and then drive
        recovery on the same environment.

        Dropping the queue releases the last references to in-flight
        process generators; closing them (``GeneratorExit``) runs their
        ``finally`` blocks, which may ``succeed()`` events — scheduling
        wake-ups into the *post-crash* queue that would resurrect dead
        processes mid-recovery with their pre-crash local state.  The
        clear-and-collect loop discards those until no dying finalizer
        schedules anything more (``gc.collect`` also frees the
        waiter/event reference cycles non-queue-held processes sit in).
        """
        self._queue.clear()
        for _ in range(16):
            gc.collect()
            if not self._queue:
                break
            self._queue.clear()
        self._crash = None

    # ------------------------------------------------------------------
    # Crash handling (uncaught exceptions in un-awaited processes)
    # ------------------------------------------------------------------

    def _crashed(self, exc: BaseException) -> None:
        self._crash = exc

    def _take_crash(self) -> BaseException:
        """The crash to re-raise, cleared.  The raising frame must not
        hold it in a local: the frame goes on its traceback, a cycle."""
        crash, self._crash = self._crash, None
        assert crash is not None
        return crash


#: Registry of selectable kernels, shared by SystemConfig and the CLI.
KERNELS = ("heap", "wheel")


def make_environment(kernel: str = "heap",
                     initial_time: float = 0.0) -> Environment:
    """Build an environment running the named kernel (the timer wheel's
    module is imported only for ``"wheel"``)."""
    if kernel == "heap":
        return Environment(initial_time)
    if kernel == "wheel":
        from repro.sim.wheel import WheelEnvironment
        return WheelEnvironment(initial_time)
    raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
