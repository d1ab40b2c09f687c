"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield`` hands the kernel an
:class:`~repro.sim.events.Event` to wait for; the process resumes when the
event triggers, receiving ``event.value`` as the result of the ``yield``
expression (or having the event's exception raised at the yield point).

A :class:`Process` is itself an event: it triggers when the generator
returns, with the generator's return value.

:meth:`Process._resume` is the single hottest function in the simulator —
every event a process waits on funnels through it once — so its common
path (send a value in, get the next wait target out, subscribe) touches
only slot attributes and locals.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import _PENDING, Event, Interrupt, SimulationError

if TYPE_CHECKING:
    from repro.sim.environment import Environment


class Process(Event):
    """A running simulation process (and the event of its completion)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment",
                 generator: Generator[Any, Any, Any]) -> None:
        # Exact-type check first: real generators are the only thing the
        # engine ever spawns, so the duck-typing fallback is cold.
        if type(generator) is not GeneratorType and \
                not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._generator = generator
        self._target: Optional[Event] = None
        # Bootstrap: resume the process at time `now`.  Inlined
        # construct-subscribe-succeed of a throwaway Event — one per
        # spawned process, so the generic pending-state check and the
        # separate append are dead weight here.
        bootstrap = Event.__new__(Event)
        bootstrap.env = env
        bootstrap.callbacks = [self._resume]
        bootstrap._ok = True
        bootstrap._value = None
        env._seq = seq = env._seq + 1
        env._push((env._now, seq, bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        interrupt_event = Event(self.env)
        assert interrupt_event.callbacks is not None
        interrupt_event.callbacks.append(self._resume)
        interrupt_event.fail(Interrupt(cause))

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        send = generator.send
        env._active_process = self
        try:
            while True:
                try:
                    if event is None or event._ok:
                        target = send(None if event is None
                                      else event._value)
                    else:
                        target = generator.throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self._target = None
                    self._fail_or_crash(exc)
                    return

                # Everything the engine yields is an Event; fetching its
                # callback list doubles as the type check (AttributeError
                # on a non-event is the cold error path).
                try:
                    target_callbacks = target.callbacks
                except AttributeError:
                    exc = SimulationError(
                        f"process yielded a non-event: {target!r}")
                    self._target = None
                    try:
                        generator.throw(exc)
                    except StopIteration as stop:
                        self.succeed(stop.value)
                        return
                    except BaseException as inner:
                        self._fail_or_crash(inner)
                        return
                    continue

                if target_callbacks is None:
                    # Already processed: loop immediately with its value.
                    event = target
                    continue
                self._target = target
                target_callbacks.append(self._resume)
                return
        finally:
            env._active_process = None

    def _fail_or_crash(self, exc: BaseException) -> None:
        """Propagate an uncaught process exception.

        If someone is waiting on this process, the exception flows to them
        via ``fail``; otherwise it would vanish silently, so the kernel
        records it as a crash that ``Environment.run`` re-raises.
        """
        if self.callbacks:
            self.fail(exc)
        else:
            self._ok = False
            self._value = exc
            self.env._crashed(self, exc)


class DetachedProcess(Process):
    """A process started through :meth:`Environment.spawn`.

    No handle to it exists, so nothing can subscribe to its completion
    and it retires off-queue (the :meth:`Event.settle` argument).  A
    process whose handle was handed out cannot, even with no waiter when
    it finishes: a holder that yields the handle later must still see it
    processed by the queue, not before.
    """

    __slots__ = ()

    def succeed(self, value: Any = None) -> Event:
        return self.settle(value)
