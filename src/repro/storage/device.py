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
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim import Environment, Event, Timeout
from repro.storage.request import IoKind, IORequest, PAGE_SIZE_BYTES
from repro.telemetry import NULL_TELEMETRY

#: A submitted request and its completion event.
_Job = Tuple[IORequest, Event]

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
        """Account one completed transfer: a request on a plain
        :class:`Device`, one per-drive *fragment* of a request on a
        striped array (which counts whole requests itself, in
        :attr:`Device.requests_by_kind`)."""
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
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
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
        """Bind a telemetry sink and publish this device's counts."""
        self.telemetry = telemetry
        self._tracer = telemetry.tracer
        self._trace_track = f"device:{self.name}"
        registry = telemetry.registry
        registry.counter(
            "io_pages_total", "Pages transferred per device and I/O kind",
            lambda: self._by_label(self.stats.pages_by_kind),
            labelnames=("device", "kind"))
        registry.counter(
            "io_requests_total", "Completed I/Os per device and I/O kind",
            lambda: self._by_label(self.requests_by_kind),
            labelnames=("device", "kind"))
        registry.gauge(
            "device_pending_ios", "I/Os submitted but not yet completed",
            lambda: {(self.name,): self.pending}, labelnames=("device",))

    def _by_label(
            self, counts: Dict[IoKind, int]) -> Dict[Tuple[str, str], int]:
        """``counts`` keyed the way this device's labeled metrics are."""
        return {(self.name, KIND_LABELS[kind]): count
                for kind, count in counts.items()}

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

    def read(self, address: int, npages: int = 1, random: bool = True,
             ctx=None) -> Event:
        """Convenience wrapper building and submitting a read request."""
        kind = IoKind.of("read", random)
        return self.submit(IORequest(kind, address, npages, ctx=ctx))

    def write(self, address: int, npages: int = 1, random: bool = True,
              ctx=None) -> Event:
        """Convenience wrapper building and submitting a write request."""
        kind = IoKind.of("write", random)
        return self.submit(IORequest(kind, address, npages, ctx=ctx))


class Device(DeviceBase):
    """A queueing-server model of a storage device: a set of channels
    fed from one FIFO.  Subclasses define the channel count and override
    :meth:`service_time`.

    An I/O costs two scheduled events and no process (DESIGN.md §13):
    the service timer, whose callback does the completion bookkeeping,
    and the ``done`` event that callback then triggers.
    """

    __slots__ = ("channels", "_outstanding")

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
