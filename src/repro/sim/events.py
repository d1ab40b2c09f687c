"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in virtual time.
Processes wait on events by ``yield``-ing them; when the event is triggered
the kernel resumes every waiting process with the event's value (or raises
the event's exception inside the process).  A process that only sleeps
yields its delay instead and needs no :class:`Timeout`
(:mod:`repro.sim.process`).

The classes here are on the hottest path of the simulator (every I/O
and every join is an event), so they are written for
throughput: ``__slots__`` everywhere, :meth:`Event.succeed` /
:meth:`Event.fail` append their entry to the environment's same-instant
lane inline, and :class:`Timeout` schedules inline by the environment's
``_near`` rule — a C-level ``heappush`` onto ``_current``, or the
pre-bound ``_push`` (the heap's ``heappush`` or the timer wheel's
``push``) — instead of going through a scheduling call.
"""

from __future__ import annotations

from heapq import heappush
from typing import (TYPE_CHECKING, Any, Callable, Iterable, List,
                    Optional)

if TYPE_CHECKING:
    from repro.sim.environment import Environment

#: Sentinel for "event has not been given a value yet".
_PENDING: Any = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Event:
    """A one-shot occurrence that processes can wait for.

    Life cycle: *pending* → *triggered* (scheduled on the event queue with a
    value or an exception) → *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value. Raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        env._lane.append((env._now, seq, self))
        return self

    def settle(self, value: Any = None) -> "Event":
        """Trigger *and retire* an event nobody is waiting on.

        Equivalent to :meth:`succeed` immediately followed by the
        kernel's callback pass, minus the queue round-trip: the event
        ends up *processed* (``callbacks is None``) without ever being
        scheduled.  Only valid while the callback list is empty **and**
        no new subscriber can reach the event (e.g. it was already
        removed from whatever registry handed it out).  Skipping the
        schedule is order-preserving: every later sequence number shifts
        down uniformly, so the relative order of all real events is
        unchanged.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        assert not self.callbacks, "settle() on an event with waiters"
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside every process that waits on the
        event.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq = seq = env._seq + 1
        env._lane.append((env._now, seq, self))
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if not delay >= 0:  # one comparison refuses nan too
            raise ValueError(f"delay must be >= 0, got {delay}")
        # Inlined Event.__init__ + schedule: a Timeout is born triggered,
        # so the generic pending-state checks are dead weight here.
        self.env = env
        self.callbacks = []  # type: Optional[List[Callable[[Event], None]]]
        self._ok = True
        self._value = value
        self.delay = delay
        env._seq = seq = env._seq + 1
        entry = (env._now + delay, seq, self)
        if entry[0] < env._near:
            heappush(env._current, entry)
        else:
            env._push(entry)


class AllOf(Event):
    """Triggers once every child event has triggered successfully, with
    ``{child: value}``; fails with the first child that fails."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({event: event._value for event in self.events})
