"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield`` hands the kernel an
:class:`~repro.sim.events.Event` to wait for; the process resumes when the
event triggers, receiving ``event.value`` as the result of the ``yield``
expression (or having the event's exception raised at the yield point).

A :class:`Process` is itself an event: it triggers when the generator
returns, with the generator's return value.

Processes started *together* (:meth:`Environment.gather`,
:meth:`Environment.spawn_all`) share one queue entry: started
back-to-back they would get consecutive sequence numbers at one
instant, so nothing could ever be ordered between their bootstraps, and
one entry that runs their first steps in order is the same schedule
(DESIGN.md §13, "Starting together").

A :data:`Step` is whatever ``yield from`` accepts: a generator when the
caller must wait, ``()`` when the work already finished at the call
(DESIGN.md §13, "Steps").  ``spawn_all`` takes steps, and a ``()``
member never becomes a process.

:meth:`Process._resume` is the single hottest function in the simulator —
every event a process waits on funnels through it once — so its common
path (send a value in, get the next wait target out, subscribe) touches
only slot attributes and locals.
"""

from __future__ import annotations

from functools import partial
from types import GeneratorType
from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterable,
                    Iterator, List, Tuple, Union)

from repro.sim.events import _PENDING, Event, SimulationError

if TYPE_CHECKING:
    from repro.sim.environment import Environment

#: What ``yield from`` accepts: a generator when the caller must wait,
#: ``()`` when the work finished at the call.  Hot callers test it
#: (``if step:``) and skip the delegation when it is ``()``.
Step = Union[Generator[Any, Any, Any], Tuple[()]]


def _require_generator(generator: Any) -> None:
    # Exact-type check first: real generators are the only thing the
    # engine ever starts, so the duck-typing fallback is cold.
    if type(generator) is not GeneratorType and \
            not hasattr(generator, "send"):
        raise TypeError(f"{generator!r} is not a generator")


def _queue_start(env: "Environment",
                 callback: Callable[[Event], None]) -> None:
    """Queue the one entry that starts a process, or a batch, at ``now``.

    Inlined construct-subscribe-succeed of a throwaway Event: the
    generic pending-state check and the separate append are dead weight
    here.  ``callback`` receives it as an ok event of value ``None``,
    which :meth:`Process._resume` turns into the generator's first
    ``send(None)``.
    """
    bootstrap = Event.__new__(Event)
    bootstrap.env = env
    bootstrap.callbacks = [callback]
    bootstrap._ok = True
    bootstrap._value = None
    env._seq = seq = env._seq + 1
    env._push((env._now, seq, bootstrap))


def _yielded_non_event(env: "Environment", target: Any) -> Event:
    """The failed pseudo-event that raises the diagnosis in the process."""
    event = Event(env)
    event._ok = False
    event._value = SimulationError(
        f"process yielded a non-event: {target!r}")
    return event


class Process(Event):
    """A running simulation process (and the event of its completion)."""

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment",
                 generator: Generator[Any, Any, Any]) -> None:
        self._bind(env, generator)
        _queue_start(env, self._resume)

    def _bind(self, env: "Environment",
              generator: Generator[Any, Any, Any]) -> None:
        """Everything ``__init__`` does short of queueing the bootstrap."""
        _require_generator(generator)
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._generator = generator

    def _resume(self, event: Event) -> None:
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._fail_or_crash(exc)
                return

            # Everything the engine yields is an Event; fetching its
            # callback list doubles as the type check (AttributeError
            # on a non-event is the cold error path).
            try:
                target_callbacks = target.callbacks
            except AttributeError:
                event = _yielded_non_event(self.env, target)
                continue

            if target_callbacks is None:
                # Already processed: loop immediately with its value.
                event = target
                continue
            target_callbacks.append(self._resume)
            return

    def _park(self, target: Any) -> None:
        """Wait on ``target``, which the generator's first step yielded.

        For a process whose batch entry ran that step itself
        (:meth:`DetachedProcess._first_steps`); the same three cases as
        the tail of :meth:`_resume`.
        """
        try:
            callbacks = target.callbacks
        except AttributeError:
            target, callbacks = _yielded_non_event(self.env, target), None
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

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
            self.env._crashed(exc)


class DetachedProcess(Process):
    """A process no handle exists to: started by ``spawn``/``spawn_all``.

    Nothing can subscribe to its completion, so it retires off-queue
    (the :meth:`Event.settle` argument).  A process whose handle was
    handed out cannot, even with no waiter when it finishes: a holder
    that yields the handle later must still see it processed by the
    queue, not before.

    It queues no bootstrap of its own: the batch entry ran its first
    step and built it only because that step yielded.
    """

    __slots__ = ()

    def __init__(self, env: "Environment",
                 generator: Generator[Any, Any, Any]) -> None:
        self._bind(env, generator)

    def succeed(self, value: Any = None) -> Event:
        return self.settle(value)

    @staticmethod
    def start_all(env: "Environment", steps: Iterable[Step]) -> None:
        """Queue one entry that starts ``steps`` in order.

        The entry, not this call, consumes ``steps``: an empty list or
        tuple queues nothing, any other iterable one entry.
        """
        if steps:
            _queue_start(env, partial(DetachedProcess._first_steps,
                                      env, iter(steps)))

    @staticmethod
    def _first_steps(env: "Environment", steps: Iterator[Step],
                     _bootstrap: Event) -> None:
        """The batch's queue entry: take each step and run its first step.

        A member is taken only once the one before it has run its first
        step, so a member built by a call sees what its predecessors
        did.  A ``()`` member finished at that call, and a generator
        that returns in its first step never becomes a process either.
        One that raises crashes the run the way a spawned process does:
        ``run()`` raises as soon as this callback returns, so the members
        after it go back on the queue and start on the next ``run()``.
        (A call that raises inside a generator expression ends it: Python
        closes the expression, so nothing after that member starts.)
        """
        for step in steps:
            if not step:
                continue
            try:
                _require_generator(step)
                target = step.send(None)
            except StopIteration:
                continue
            except BaseException as exc:
                env._crashed(exc)
            else:
                DetachedProcess(env, step)._park(target)
            if env._crash is not None:
                DetachedProcess.start_all(env, steps)
                return


class GatherMember(Process):
    """One child of a :class:`Gather`.  No handle to it exists either."""

    __slots__ = ("_join",)

    def __init__(self, env: "Environment",
                 generator: Generator[Any, Any, Any],
                 join: "Gather") -> None:
        self._bind(env, generator)
        self.callbacks = [join._check]
        self._join = join

    def succeed(self, value: Any = None) -> Event:
        join = self._join
        join._pending -= 1
        if join._pending:
            # Not the last to finish: its completion event would only
            # have counted, so it retires off-queue — settle(), past the
            # no-waiter assert (the join reads ``_value`` at the end).
            self._ok = True
            self._value = value
            self.callbacks = None
            return self
        return Event.succeed(self, value)


class Gather(Event):
    """Join over processes started together (:meth:`Environment.gather`).

    Triggers with the members' return values in input order once all
    have finished, or fails with the first member failure — what
    ``AllOf`` over freshly started processes did, minus the events that
    carried no order: one bootstrap entry runs every first step, and
    only the last finisher (or a failing member) schedules a completion
    event.  That last member keeps both of its hops — its completion,
    then this join — so the parent resumes at the same place among the
    events of that instant.
    """

    __slots__ = ("_members", "_pending")

    def __init__(self, env: "Environment",
                 generators: Iterable[Generator[Any, Any, Any]]) -> None:
        super().__init__(env)
        self._members: List[GatherMember] = [
            GatherMember(env, generator, self) for generator in generators]
        self._pending = len(self._members)
        if self._members:
            _queue_start(env, self._start)
        else:
            self.succeed([])

    def _start(self, bootstrap: Event) -> None:
        # A member that raises fails the join (it has a subscriber), so
        # nothing here can crash the run and cut the loop short.
        for member in self._members:
            member._resume(bootstrap)

    def _check(self, member: Event) -> None:
        if self._value is not _PENDING:
            return  # a member failed earlier
        # Let go of the members: each refers back to this join, and
        # run() pauses the cyclic collector that would reclaim the loop.
        members, self._members = self._members, []
        if member._ok:
            self.succeed([m._value for m in members])
        else:
            self.fail(member._value)
