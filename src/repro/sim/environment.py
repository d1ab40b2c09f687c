"""The simulation environment: virtual clock plus event scheduler."""

from __future__ import annotations

import gc
from functools import partial
from heapq import heappop, heappush
from typing import (Any, Callable, Generator, Iterable, List, Optional,
                    Tuple, Union)

from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import DetachedProcess, Gather, Process


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


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
    locals.  ``self._queue`` is mutated in place and never rebound —
    :meth:`wipe` relies on that, and so do the hoisted aliases in
    :meth:`run`.

    ``_push`` is the one indirection the event factories go through: a
    C-level ``partial(heappush, queue)`` here, the wheel's bound
    ``push`` on :class:`~repro.sim.wheel.WheelEnvironment` — which is
    how an alternative scheduler slots in behind the heap interface
    without a branch on the hot path.
    """

    __slots__ = ("_now", "_queue", "_seq", "_crash", "_push")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0  # same-instant tie-break, incremented per schedule
        self._push: Callable[[Tuple[float, int, Event]], None] = (
            partial(heappush, self._queue))
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
        self.spawn_all((generator,))

    def spawn_all(self,
                  generators: Iterable[Generator[Any, Any, Any]]) -> None:
        """:meth:`spawn` several processes together: one queue entry.

        The entry runs each generator's first step in order — the
        schedule one ``spawn`` per member gives, since consecutive
        bootstraps admit nothing between them — and only a generator
        that yields becomes a process at all.
        """
        DetachedProcess.start_all(self, generators)

    def gather(self,
               generators: Iterable[Generator[Any, Any, Any]]) -> Gather:
        """Start ``generators`` together and join them.

        The returned event triggers with the list of their return
        values, in input order, and fails with the first failure.  It
        replaces ``all_of([process(g) for g in ...])``; :meth:`all_of`
        remains for joins over events that are not process starts.
        """
        return Gather(self, generators)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling / execution
    # ------------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue a triggered event for processing at ``now + delay``."""
        self._seq = seq = self._seq + 1
        self._push((self._now + delay, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        try:
            when, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events remain") from None
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
            if self._crash is not None:
                crash, self._crash = self._crash, None
                raise crash

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
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self._now})")

        # The inlined step loop.  ``queue`` aliases self._queue (mutated in
        # place everywhere, including wipe()), so the alias stays valid
        # across callbacks that crash or wipe the environment.
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
            queue = self._queue
            pop = heappop
            if stop_event is None:
                # Run-until-time is the workload-driver case and covers
                # the overwhelming majority of events, so it gets its
                # own loop without the per-event stop-event probe.
                while queue:
                    if queue[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    when, _, event = pop(queue)
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                        if self._crash is not None:
                            crash, self._crash = self._crash, None
                            raise crash
            else:
                while queue:
                    if stop_event.callbacks is None:
                        break
                    if queue[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    when, _, event = pop(queue)
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                        if self._crash is not None:
                            crash, self._crash = self._crash, None
                            raise crash
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
