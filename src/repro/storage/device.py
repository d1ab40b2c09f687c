"""Base classes for simulated storage devices.

Submitting an :class:`~repro.storage.request.IORequest` returns an event
that triggers when the transfer finishes; the elapsed virtual time is
``queueing + service``, with the service time given by each device's
``service_time`` model.  :class:`Device` is a set of independent
*channels* (servers) fed from a FIFO queue.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim import Environment, Event, Timeout
from repro.storage.request import IoKind, IORequest, PAGE_SIZE_BYTES
from repro.telemetry import NULL_TELEMETRY

#: Label values used for ``io_*_total{kind=...}`` metrics and trace names.
KIND_LABELS = {kind: kind.name.lower() for kind in IoKind}


class DeviceStats:
    """Cumulative per-device counters."""

    __slots__ = ("busy_time", "by_kind", "pages_by_kind")

    def __init__(self) -> None:
        self.busy_time = 0.0
        self.by_kind: Dict[IoKind, int] = {kind: 0 for kind in IoKind}
        self.pages_by_kind: Dict[IoKind, int] = {kind: 0 for kind in IoKind}

    def record(self, request: IORequest, service: float) -> None:
        """Account one completed transfer: one per-drive *fragment* of a
        request on a striped array (which counts whole requests itself,
        in :attr:`DeviceBase.requests_by_kind`).  :meth:`Device._finish`
        books a plain device's requests the same way, inline."""
        kind = request.kind
        self.by_kind[kind] += 1
        self.pages_by_kind[kind] += request.npages
        self.busy_time += service

    @property
    def completed(self) -> int:
        """Transfers recorded, of every kind."""
        return sum(self.by_kind.values())

    @property
    def pages_read(self) -> int:
        """Pages transferred by reads."""
        return sum(pages for kind, pages in self.pages_by_kind.items()
                   if kind.is_read)

    @property
    def pages_written(self) -> int:
        """Pages transferred by writes."""
        return sum(pages for kind, pages in self.pages_by_kind.items()
                   if kind.is_write)


class TrafficRecorder:
    """Time-bucketed read/write traffic, for the paper's Figure 8.

    Buckets are ``bucket_seconds`` wide; each completed request adds its
    page count to the read or write series of the bucket it completed in.
    """

    __slots__ = ("bucket_seconds", "_reads", "_writes")

    def __init__(self, bucket_seconds: float):
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self._reads: Dict[int, int] = {}
        self._writes: Dict[int, int] = {}

    def record(self, when: float, request: IORequest) -> None:
        """Add a completed request to its time bucket."""
        bucket = int(when / self.bucket_seconds)
        series = self._reads if request.kind.is_read else self._writes
        series[bucket] = series.get(bucket, 0) + request.npages

    def series(self, until: Optional[float] = None) -> List[Tuple[float, float, float]]:
        """Return ``(bucket_start_time, read_MBps, write_MBps)`` triples."""
        if not self._reads and not self._writes:
            return []
        last = max(list(self._reads) + list(self._writes))
        if until is not None:
            # ceil, not floor: a run ending mid-bucket still owns that
            # (partial) bucket — flooring dropped the final one and
            # truncated the Figure 8 series.
            last = max(last, math.ceil(until / self.bucket_seconds) - 1)
        scale = PAGE_SIZE_BYTES / (1 << 20) / self.bucket_seconds
        return [
            (
                bucket * self.bucket_seconds,
                self._reads.get(bucket, 0) * scale,
                self._writes.get(bucket, 0) * scale,
            )
            for bucket in range(last + 1)
        ]


class ChannelPool:
    """A device's servers, and the FIFO of requests waiting for one."""

    __slots__ = ("capacity", "busy", "waiting")

    def __init__(self, capacity: int):
        if type(capacity) is not int or capacity < 1:
            raise ValueError(f"capacity must be an int >= 1, got {capacity!r}")
        self.capacity = capacity
        self.busy = 0
        self.waiting: Deque[Any] = deque()

    def check(self) -> int:
        """Assert the pool adds up; returns how many requests it holds."""
        assert 0 <= self.busy <= self.capacity and (
            not self.waiting or self.busy == self.capacity), (
            f"{self.busy} of {self.capacity} channels busy, "
            f"{len(self.waiting)} requests waiting")
        return self.busy + len(self.waiting)


class DeviceBase:
    """What a device is apart from its queues: a name, its counters,
    and the three places an I/O meets the fault injector (:meth:`submit`,
    :meth:`_stall`, :meth:`_outcome`; DESIGN.md §8).  A subclass says how
    a request waits and is served, and ends its constructor in its
    ``reset()``."""

    __slots__ = ("env", "name", "stats", "traffic", "faults", "telemetry",
                 "_tracer", "_trace_track", "requests_by_kind")

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.stats = DeviceStats()
        #: Whole requests completed, by kind: here exactly what ``stats``
        #: records; a striped array, whose ``stats`` see fragments, keeps
        #: its own.  ``io_requests_total`` reads this.
        self.requests_by_kind = self.stats.by_kind
        self.traffic: Optional[TrafficRecorder] = None
        #: Optional :class:`~repro.faults.injector.FaultInjector`.
        self.faults = None
        self.attach_telemetry(NULL_TELEMETRY)

    def attach_faults(self, injector) -> None:
        """Bind a fault injector; subsequent I/Os may fail or straggle."""
        self.faults = injector

    def attach_telemetry(self, telemetry) -> None:
        """Bind a telemetry sink: the device traces on its own track."""
        self.telemetry = telemetry
        self._tracer = telemetry.tracer
        self._trace_track = f"device:{self.name}"

    @property
    def pending(self) -> int:
        """I/Os submitted but not yet completed (the queue length the
        SSD throttle-control optimization monitors, §3.3.2)."""
        raise NotImplementedError

    def attach_traffic_recorder(self, bucket_seconds: float) -> TrafficRecorder:
        """Start recording time-bucketed traffic; returns the recorder."""
        self.traffic = TrafficRecorder(bucket_seconds)
        return self.traffic

    def service_time(self, request: IORequest) -> float:
        """Virtual seconds one channel needs to serve ``request``."""
        raise NotImplementedError

    def submit(self, request: IORequest) -> Event:
        """Submit a request; the returned event triggers on completion
        (or *fails* with an :class:`~repro.faults.errors.IoFault` when a
        fault injector rejects or aborts the I/O)."""
        request.submitted_at = self.env._now
        if self.faults is not None:
            error = self.faults.on_submit(request)
            if error is not None:  # refused: nothing enters the device
                return Event(self.env).fail(error)
        return self._enter(request)

    def _enter(self, request: IORequest) -> Event:
        """Take an accepted request in; returns its completion event."""
        raise NotImplementedError

    def _stall(self, request: IORequest, service: float) -> float:
        """As service starts, with an injector attached: the virtual
        seconds it holds ``request`` back (stall windows, latency
        spikes)."""
        return self.faults.pre_service_delay(request, service)

    def _outcome(self, request: IORequest) -> Optional[Exception]:
        """As the transfer ends, with an injector attached: the fault to
        report instead of success, else None."""
        return self.faults.on_complete(request)

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

    def _queue(self, request: IORequest, delay: float,
               callbacks: List[Callable[[IORequest], None]]) -> None:
        """Queue ``request`` itself as a timer: at ``now + delay`` the
        kernel calls ``callbacks`` with it, in the place a ``Timeout``
        built here would have taken (DESIGN.md §13, "A timer is a queue
        entry").  ``callbacks`` is one of the device's own lists, shared
        by every request: the loop never mutates it.  A zero delay is a
        hop within the instant, and rides the environment's lane."""
        env = self.env
        env._seq = seq = env._seq + 1
        request.callbacks = callbacks
        if not delay:
            env._lane.append((env._now, seq, request))
            return
        entry = (env._now + delay, seq, request)
        if entry[0] < env._near:
            heappush(env._current, entry)
        else:
            env._push(entry)


class Device(DeviceBase):
    """A queueing-server model of a storage device: a set of channels
    fed from one FIFO.  Subclasses define the channel count and override
    :meth:`service_time`.

    An I/O costs two scheduled events and no process (DESIGN.md §13):
    the service timer, whose callback does the completion bookkeeping,
    and the ``done`` event that callback then triggers.  With no fault
    injector attached that is one call in and one callback out:
    ``submit`` claims a channel, prices the request and queues the
    request itself as its timer; :meth:`_finish` stamps, accounts,
    passes the channel on and triggers ``done``.  An injector keeps the
    arrival and grant hops.
    """

    __slots__ = ("channels", "pending", "_finishing", "_delaying")

    def __init__(self, env: Environment, name: str, channels: int):
        self.channels = ChannelPool(channels)  # a bad count builds nothing
        super().__init__(env, name)
        # The callback lists of the request-as-timer entries (``_queue``).
        self._finishing = [self._finish]
        self._delaying = [self._delayed]
        self.reset()  # nothing is in flight

    def reset(self) -> None:
        """Forget in-flight work: the state of a new device, and of one
        after a simulated power failure.

        The event queue holding the service timers is wiped separately
        by :meth:`~repro.sim.environment.Environment.wipe`; this clears
        the device-side bookkeeping their callbacks would have unwound.
        """
        self.channels = ChannelPool(self.channels.capacity)
        #: I/Os submitted but not yet completed (the queue length the
        #: SSD throttle-control optimization monitors, §3.3.2).
        self.pending = 0

    def check_invariants(self) -> None:
        """Assert that :attr:`pending` is what the channels hold (plus,
        with an injector attached, requests on a hop towards them)."""
        held = self.channels.check()
        assert held <= self.pending and (
            self.faults is not None or held == self.pending), (
            f"{self.name}: pending {self.pending}, channels hold {held}")

    def _enter(self, request: IORequest) -> Event:
        request.done = done = Event(self.env)
        self.pending += 1
        channels = self.channels
        if self.faults is not None:
            self._hop(self._arrive, request)
        elif channels.busy < channels.capacity:
            channels.busy += 1
            self._start(request)
        else:
            channels.waiting.append(request)
        return done

    def _arrive(self, request: IORequest) -> None:
        """With an injector, one hop after ``submit``: claim a free
        channel for ``request`` and hop again to start it, or queue it."""
        channels = self.channels
        if channels.busy < channels.capacity:
            channels.busy += 1
            self._hop(self._start, request)
        else:
            channels.waiting.append(request)

    def _start(self, request: IORequest) -> None:
        """Begin serving ``request`` on the channel claimed for it: queue
        it as its own service timer, the entry a ``Timeout(service)``
        would have been."""
        try:
            request.service = service = self.service_time(request)
            if not service >= 0:  # one comparison refuses nan too
                raise ValueError(f"service time must be >= 0, got {service}")
            callbacks = self._finishing
            if self.faults is not None:
                extra = self._stall(request, service)
                if extra > 0:
                    # Its own timer: ``(now + extra) + service`` and
                    # ``now + (extra + service)`` round differently.
                    service, callbacks = extra, self._delaying
            env = self.env  # _queue, inlined: every I/O passes here
            env._seq = seq = env._seq + 1
            request.callbacks = callbacks
            entry = (env._now + service, seq, request)
            if entry[0] < env._near:
                heappush(env._current, entry)
            else:
                env._push(entry)
        except BaseException:
            self._release()
            raise

    def _delayed(self, request: IORequest) -> None:
        """The injected delay has passed; start the service timer."""
        self._queue(request, request.service, self._finishing)

    def _finish(self, request: IORequest) -> None:
        """Service-timer callback: the injector's verdict, if one is
        attached; then stamp, emit the I/O span, account, pass the
        channel on, and trigger ``done`` — not earlier: I/Os finishing
        in one instant must all be accounted before the first waiter
        resumes and reads :attr:`pending`."""
        done = request.done
        request.done = None  # ``done`` holds the request as its value
        try:
            failure = (self._outcome(request)
                       if self.faults is not None else None)
            if failure is None:
                request.completed_at = now = self.env._now
                if self._tracer.enabled:
                    self._tracer.complete(KIND_LABELS[request.kind],
                                          request.submitted_at, now, "io",
                                          self._trace_track, ctx=request.ctx)
                stats = self.stats  # DeviceStats.record, inlined
                kind = request.kind
                stats.by_kind[kind] += 1
                stats.pages_by_kind[kind] += request.npages
                stats.busy_time += request.service
                if self.traffic is not None:
                    self.traffic.record(now, request)
        except BaseException:
            self._release()
            raise
        # _release and _hop, inlined: every I/O passes here.
        self.pending -= 1
        channels = self.channels
        try:
            if not channels.waiting:
                channels.busy -= 1
            elif self.faults is None:
                self._start(channels.waiting.popleft())
            else:
                self._hop(self._start, channels.waiting.popleft())
        finally:
            # Even if starting the *next* request raised.
            if failure is None:
                # Event.succeed, inlined: ``done`` is pending and rides
                # the lane like any trigger.
                done._ok = True
                done._value = request
                env = self.env
                env._seq = seq = env._seq + 1
                env._lane.append((env._now, seq, done))
            else:
                done.fail(failure)

    def _release(self) -> None:
        """An I/O left the device on an error path: a leaked channel
        would starve the queue, a leaked count wedge the §3.3.2 throttle
        shut.  The channel goes to the next queued request, if any."""
        self.pending -= 1
        channels = self.channels
        if channels.waiting:
            self._hop(self._start, channels.waiting.popleft())
        else:
            channels.busy -= 1
