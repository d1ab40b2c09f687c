"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield`` hands the kernel an
:class:`~repro.sim.events.Event` to wait for, or a delay: a float (or int)
of virtual seconds, ``>= 0``.  On an event the process resumes when it
triggers, receiving ``event.value`` as the result of the ``yield``
expression (or having the event's exception raised at the yield point).
On a delay it sleeps: it resumes, with None, at ``now + delay`` and
with the sequence number ``env.timeout(delay)`` would have taken, but
on a queue entry of its own, built at its first sleep and reused, so a
sleep allocates no :class:`~repro.sim.events.Timeout` (DESIGN.md §13,
"Waits").  Anything else raises ``SimulationError`` at the yield.

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
member never becomes a process.  ``gather`` takes generators and *call
members* (:data:`Call`): a call starts its work in the gather's entry
and finishes its member from whatever completion it subscribed, so a
member that waits on one event needs no generator (DESIGN.md §13, "An
SSD read is a call").

:meth:`Process._resume` is the single hottest function in the simulator —
every event a process waits on funnels through it once — so its common
path (send a value in, get the next wait target out, sleep or
subscribe the resume bound once per process) touches only slot
attributes and locals.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from types import GeneratorType
from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterable,
                    Iterator, List, Tuple, Union)

from repro.sim.events import _PENDING, Event, SimulationError, Timeout

if TYPE_CHECKING:
    from repro.sim.environment import Environment

#: What ``yield from`` accepts: a generator when the caller must wait,
#: ``()`` when the work finished at the call.  Hot callers test it
#: (``if step:``) and skip the delegation when it is ``()``.
Step = Union[Generator[Any, Any, Any], Tuple[()]]

#: A call member of a :class:`Gather`: ``(function, argument)``.  The
#: gather's entry calls ``function(argument, member)`` with the member's
#: :class:`GatherMember`, which the call (at once, or from a callback it
#: subscribed) finishes with ``succeed``/``fail``, after starting any
#: generator that must wait as a member of its own
#: (:meth:`GatherMember.fork`).
Call = Tuple[Callable[[Any, "GatherMember"], None], Any]


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
    ``send(None)``.  Like any trigger it rides the environment's lane.
    """
    bootstrap = Event.__new__(Event)
    bootstrap.env = env
    bootstrap.callbacks = [callback]
    bootstrap._ok = True
    bootstrap._value = None
    env._seq = seq = env._seq + 1
    env._lane.append((env._now, seq, bootstrap))


#: What :meth:`Process._resume` is handed to run a generator's first
#: step outside a bootstrap entry: an ok event of value None.
_FIRST_STEP = Event.__new__(Event)
_FIRST_STEP._ok = True
_FIRST_STEP._value = None


def _drop_own_frame(exc: BaseException) -> None:
    """Take the kernel frame that caught ``exc`` off its traceback.

    That frame holds the process that now holds ``exc``: a reference
    cycle, and ``run()`` pauses the cyclic collector.  The frames below
    it, the failing generator's lines, stay.
    """
    caught = exc.__traceback__
    assert caught is not None  # a caught exception was raised
    exc.__traceback__ = caught.tb_next


def _refused(env: "Environment", target: Any) -> Event:
    """The failed pseudo-event that raises the diagnosis in the process."""
    event = Event(env)
    event._ok = False
    event._value = SimulationError(
        f"process yielded {target!r}: neither an event nor a delay >= 0")
    return event


class Process(Event):
    """A running simulation process (and the event of its completion)."""

    #: ``_resumer`` is ``_resume`` bound once, what every wait
    #: subscribes; ``_wake`` the entry a sleep queues, ``_wakers`` its
    #: callback list.  Finishing drops the two that refer back to the
    #: process: ``run()`` pauses the cyclic collector.
    __slots__ = ("_generator", "_resumer", "_wake", "_wakers")

    def __init__(self, env: "Environment",
                 generator: Generator[Any, Any, Any]) -> None:
        self._bind(env, generator)
        _queue_start(env, self._resumer)

    def _bind(self, env: "Environment",
              generator: Generator[Any, Any, Any]) -> None:
        """Everything ``__init__`` does short of queueing the bootstrap."""
        _require_generator(generator)
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._generator = generator
        self._resumer = self._resume
        self._wake = None

    def _resume(self, event: Event) -> None:
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    failure = event._value
                    tb = failure.__traceback__
                    try:
                        target = generator.throw(failure)
                    finally:
                        # A failure's traceback stays where it was
                        # raised: the waiter's frame, which throwing
                        # adds, may hold the event that holds it.
                        failure.__traceback__ = tb
            except StopIteration as stop:
                self._resumer = self._wakers = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._resumer = self._wakers = None
                if exc is not event._value:  # not a failure passed on
                    _drop_own_frame(exc)
                self._fail_or_crash(exc)
                return

            if type(target) is float and target >= 0.0:  # nan is not
                # A sleep: requeue the wake entry, if there is one yet.
                wake = self._wake
                if wake is not None:
                    env = self.env
                    env._seq = seq = env._seq + 1
                    wake.callbacks = self._wakers
                    entry = (env._now + target, seq, wake)
                    if entry[0] < env._near:
                        heappush(env._current, entry)
                    else:
                        env._push(entry)
                    return
            # Anything else the engine yields is an Event; fetching its
            # callback list doubles as the type check (AttributeError
            # is the cold path: a first sleep, an int delay, the error).
            try:
                target_callbacks = target.callbacks
            except AttributeError:
                if type(target) in (float, int) and target >= 0:
                    self._park(target)
                    return
                event = _refused(self.env, target)
                continue

            if target_callbacks is None:
                # Already processed: loop immediately with its value.
                event = target
                continue
            target_callbacks.append(self._resumer)
            return

    def _park(self, target: Any) -> None:
        """Wait on ``target`` the cold way: what a batch entry's first
        step yielded (:meth:`DetachedProcess._first_steps`), a process's
        first sleep, or an int delay.

        A delay builds the process's wake entry: a ``Timeout``, the very
        schedule of ``env.timeout(delay)``, kept for the sleeps after it.
        """
        try:
            callbacks = target.callbacks
        except AttributeError:
            if type(target) in (float, int) and target >= 0:
                self._wake = wake = Timeout(self.env, target)
                self._wakers = wake.callbacks
                wake.callbacks.append(self._resumer)
                return
            target, callbacks = _refused(self.env, target), None
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resumer)

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

    def _fail_or_crash(self, exc: BaseException) -> None:
        """Crash the run (nothing can wait on it), keeping no reference
        to ``exc``: its traceback gets ``run()``'s frame, which holds
        this process's resume."""
        self._ok = False
        self._value = None
        self.env._crashed(exc)

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
    """One child of a :class:`Gather`: a generator, or a :data:`Call`.
    No handle to it exists either.

    The gather's entry starts it: a generator's first step, or the call.
    A call's member runs no generator: the call, or a completion it
    subscribed, starts one as a member of its own (:meth:`fork`), and
    finishes as a generator member does — ``succeed`` keeps the
    last-finisher rule, ``fail`` fails the join.  A call that raises in
    the entry fails the join too; a completion callback that raises
    crashes the run, as any callback does.
    """

    __slots__ = ("_join", "_call")

    def __init__(self, env: "Environment",
                 member: Union[Generator[Any, Any, Any], Call],
                 join: "Gather") -> None:
        call = member if type(member) is tuple else None
        if call is None:
            _require_generator(member)
        self.env = env
        self.callbacks = [join._check]
        self._value = _PENDING
        self._ok = None
        self._generator = None if call else member
        self._resumer = None if call else self._resume
        self._wake = None
        self._join = join
        self._call = call

    def _begin(self, bootstrap: Event) -> None:
        """The member's part of the gather's entry."""
        call = self._call
        if call is None:
            self._resume(bootstrap)
            return
        self._call = None
        try:
            call[0](call[1], self)
        except BaseException as exc:
            _drop_own_frame(exc)
            self._fail_or_crash(exc)

    def fork(self, generator: Generator[Any, Any, Any]) -> None:
        """Start ``generator`` now as one more member of this member's
        join: it runs its first step at once, and the join waits for it
        as for any member (the last-finisher rule counts it; a failure
        fails the join).  Its return value is not among the join's
        values.  A call member that starts several pieces of work hands
        one that must wait over to its own member this way (DESIGN.md
        §13, "An SSD read is a call")."""
        join = self._join
        member = GatherMember(self.env, generator, join)
        join._pending += 1
        member._resume(_FIRST_STEP)

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
    events of that instant.  A :data:`Call` member keeps the same rule.
    """

    __slots__ = ("_members", "_pending")

    def __init__(self, env: "Environment",
                 members: Iterable[Union[Generator[Any, Any, Any], Call]]
                 ) -> None:
        super().__init__(env)
        self._members: List[GatherMember] = [
            GatherMember(env, member, self) for member in members]
        self._pending = len(self._members)
        if self._members:
            _queue_start(env, self._start)
        else:
            self.succeed([])

    def _start(self, bootstrap: Event) -> None:
        # A member that raises fails the join (it has a subscriber), so
        # nothing here can crash the run and cut the loop short.
        for member in self._members:
            member._begin(bootstrap)

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
