"""The hop-chain ``Device`` of commit 73ef9f5, kept as a reference.

``repro.storage.device.Device`` serves a fault-free I/O in two calls: the
submitting call claims a channel, prices the request and starts its
service timer, and the timer's callback stamps, accounts, passes the
channel on and triggers ``done``.  This is the path it replaced,
verbatim but for its name: ``submit → _enter → _hop → _arrive → _hop →
_start → _stall`` on the way in, ``_finish → _outcome → record →
_release`` on the way out, with the three base-class steps it relied on
(``_hop``, ``_stall``, ``_outcome``) copied in beside it.  The schedule
is the same two events per I/O (four with an injector attached).
``tests/storage/test_device_equivalence.py`` runs random scripts
against both and demands the same wake-ups in the same order
(DESIGN.md §13).

:class:`ReferenceSsd` is the black-box ``Ssd`` priced as the real one
is (its ``service_time``, channel failures included) but served by this
path;
``tests/storage/reference_hdd.py``'s generator array derives from
:class:`HopDevice` as it derived from the old ``Device``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.sim import Environment, Event, Timeout
from repro.storage.device import KIND_LABELS, ChannelPool, DeviceBase
from repro.storage.request import IORequest
from repro.storage.ssd import DEFAULT_CHANNELS, Ssd

#: A submitted request and its completion event.
_Job = Tuple[IORequest, Event]


class HopDevice(DeviceBase):
    """A queueing-server model of a storage device: a set of channels
    fed from one FIFO.  Subclasses define the channel count and override
    :meth:`service_time`.

    An I/O costs two scheduled events and no process (DESIGN.md §13):
    the service timer, whose callback does the completion bookkeeping,
    and the ``done`` event that callback then triggers.
    """

    # No ``__slots__``: :class:`ReferenceSsd` lays this over ``Ssd``'s
    # slotted layout, which two slotted bases could not share.

    def __init__(self, env: Environment, name: str, channels: int):
        super().__init__(env, name)
        self.channels = ChannelPool(channels)
        self.reset()  # nothing is in flight

    def reset(self) -> None:
        """Forget in-flight work: the state of a new device, and of one
        after a simulated power failure.

        The event queue holding the service timers is wiped separately
        by :meth:`~repro.sim.environment.Environment.wipe`; this clears
        the device-side bookkeeping their callbacks would have unwound.
        """
        self.channels = ChannelPool(self.channels.capacity)
        self._outstanding = 0

    def check_invariants(self) -> None:
        """Assert that :attr:`pending` is what the channels hold (plus,
        with an injector attached, requests on a hop towards them)."""
        held = self.channels.check()
        assert held <= self.pending and (
            self.faults is not None or held == self.pending), (
            f"{self.name}: pending {self.pending}, channels hold {held}")

    @property
    def pending(self) -> int:
        return self._outstanding

    def _stall(self, request: IORequest, service: float) -> float:
        """As service starts: the virtual seconds the injector holds
        ``request`` back (stall windows, latency spikes)."""
        if self.faults is None:
            return 0.0
        return self.faults.pre_service_delay(request, service)

    def _outcome(self, request: IORequest) -> Optional[Exception]:
        """As the transfer ends: the fault to report instead of success,
        else None — and the request is stamped, its I/O span emitted."""
        failure = (self.faults.on_complete(request)
                   if self.faults is not None else None)
        if failure is None:
            request.completed_at = now = self.env._now
            if self._tracer.enabled:
                self._tracer.complete(KIND_LABELS[request.kind],
                                      request.submitted_at, now, "io",
                                      self._trace_track, ctx=request.ctx)
        return failure

    def _hop(self, step: Callable[[Any], None], job: Any) -> None:
        """Run ``step(job)``: at once, or — with a fault injector
        attached, whose hooks share an RNG and record trace instants, so
        their place among the events of one instant is observable — one
        queue hop later, where a process per I/O ran it (DESIGN.md §13).
        """
        if self.faults is None:
            step(job)
        else:
            Timeout(self.env, 0.0).callbacks.append(lambda _hop: step(job))

    def _enter(self, request: IORequest) -> Event:
        done = Event(self.env)
        self._outstanding += 1
        self._hop(self._arrive, (request, done))
        return done

    def _arrive(self, job: _Job) -> None:
        """Claim a free channel for ``job``, or queue it (FIFO)."""
        channels = self.channels
        if channels.busy < channels.capacity:
            channels.busy += 1
            self._hop(self._start, job)
        else:
            channels.waiting.append(job)

    def _start(self, job: _Job) -> None:
        """Begin serving ``job`` on the channel claimed for it."""
        try:
            request, done = job
            service = self.service_time(request)
            extra = self._stall(request, service)
            timed = (request, done, service)
            if extra > 0:
                # Its own timer: ``(now + extra) + service`` and
                # ``now + (extra + service)`` round differently.
                Timeout(self.env, extra, timed).callbacks.append(
                    self._delayed)
            else:
                Timeout(self.env, service, timed).callbacks.append(
                    self._finish)
        except BaseException:
            self._release()
            raise

    def _delayed(self, stall: Event) -> None:
        """The injected delay has passed; start the service timer."""
        timed = stall._value
        Timeout(self.env, timed[2], timed).callbacks.append(self._finish)

    def _finish(self, timer: Event) -> None:
        """Service-timer callback: account the I/O, pass the channel on,
        then trigger ``done`` — not earlier: I/Os finishing in one
        instant must all be accounted before the first waiter resumes
        and reads :attr:`pending`."""
        request, done, service = timer._value
        try:
            failure = self._outcome(request)
            if failure is None:
                self.stats.record(request, service)
                if self.traffic is not None:
                    self.traffic.record(self.env._now, request)
        except BaseException:
            self._release()
            raise
        try:
            self._release()
        finally:
            # Even if starting the *next* request raised.
            if failure is None:
                done.succeed(request)
            else:
                done.fail(failure)

    def _release(self) -> None:
        """One I/O left the device, on whatever path: a leaked channel
        would starve the queue, a leaked count wedge the §3.3.2 throttle
        shut.  The channel goes to the next queued request, if any."""
        self._outstanding -= 1
        channels = self.channels
        if channels.waiting:
            self._hop(self._start, channels.waiting.popleft())
        else:
            channels.busy -= 1


class ReferenceSsd(HopDevice, Ssd):
    """``Ssd``'s pricing on :class:`HopDevice`'s serving path."""

    def __init__(self, env: Environment, channels: int = DEFAULT_CHANNELS,
                 name: str = "ssd") -> None:
        # Ssd's constructor, whose base call lands on ``Device.__init__``
        # (after HopDevice's in this class's order) and ends in
        # HopDevice's ``reset``.
        Ssd.__init__(self, env, channels=channels, name=name)
