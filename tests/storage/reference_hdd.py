"""The generator-per-I/O ``HddArray`` of commit 254aabe, kept as a reference.

``repro.storage.hdd.HddArray`` serves a request with callbacks on timers;
this is the model it replaced, verbatim but for its name (and for two
registry increments, gone since instruments have no ``inc``, and for
deriving from the old ``Device``, which lives on as
``tests/storage/reference_device.py``'s ``HopDevice``): a process per
request (``_serve_fragments``), a process per fragment (``_serve_one``)
joined by ``env.gather``, and a :class:`Resource` per drive — seven
queue entries per single-stripe I/O where the port spends five.
``tests/storage/test_hdd_equivalence.py`` runs random scripts against
both and demands the same wake-ups in the same order (DESIGN.md §13).

:class:`Resource` and :class:`Request` lived in ``repro.sim.resources``
until this was their only user; they moved here with it, and their unit
tests (``tests/sim/test_resources.py``, ``tests/sim/test_stress.py``)
import them from here.
"""

from __future__ import annotations

from collections import deque
from types import TracebackType
from typing import Deque, List, Optional, Type

from repro.sim import Environment, Event
from repro.storage.device import KIND_LABELS
from repro.storage.hdd import (DEFAULT_STRIPE_PAGES, _READ_SEEK,
                               _SEQ_READ_PER_PAGE, _SEQ_WRITE_PER_PAGE,
                               _WRITE_SEEK)
from repro.storage.request import IORequest
from tests.storage.reference_device import HopDevice


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc_val: Optional[BaseException],
                 exc_tb: Optional[TracebackType]) -> None:
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue.

    Used to model device channels, worker slots, and latches.  The current
    queue length (:attr:`queue_len`) is exposed because the paper's SSD
    throttle-control optimization (§3.3.2) gates admission on the number of
    pending SSD I/Os.
    """

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiting)

    @property
    def in_flight(self) -> int:
        """Held units plus waiting requests (total pending work)."""
        return len(self._users) + len(self._waiting)

    def request(self) -> Request:
        """Claim one unit; the returned event triggers when granted."""
        return Request(self)

    def _request(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)

    def release(self, req: Request) -> None:
        """Return a unit to the pool, waking the next waiter if any.

        Releasing an ungranted (still-waiting) request cancels it.
        Releasing twice is a no-op, which makes the context-manager form
        safe even if the holder released early.
        """
        try:
            self._users.remove(req)
        except ValueError:
            try:
                self._waiting.remove(req)
            except ValueError:
                pass
            return
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()


class GeneratorHddArray(HopDevice):
    """A stripe set of identical hard drives.

    Page addresses are striped across the drives in ``stripe_pages`` units;
    a multi-page request is split into per-drive fragments that proceed in
    parallel, and the request completes when the slowest fragment does
    (this is what makes striped disks so strong at sequential reads, the
    effect the paper's admission policy is built around).
    """

    #: Per-drive LBA gap (pages) a drive can bridge without a full seek
    #: (~128 KB of short head movement).  Distances are measured in each
    #: drive's own block space, where a striped sequential stream is
    #: exactly contiguous.
    NEAR_PAGES = 16

    __slots__ = ("ndisks", "stripe_pages", "_disks", "_head")

    def __init__(self, env: Environment, ndisks: int = 8,
                 stripe_pages: int = DEFAULT_STRIPE_PAGES,
                 name: str = "hdd-array"):
        if ndisks < 1:
            raise ValueError(f"ndisks must be >= 1, got {ndisks}")
        # Before the base constructor: it ends in ``reset()``.
        self.ndisks = ndisks
        self.stripe_pages = stripe_pages
        super().__init__(env, name, channels=ndisks)
        self._disks: List[Resource] = [Resource(env, 1) for _ in range(ndisks)]
        # Per-drive head position: the page address just past the last
        # fragment each drive served.  Seek cost is *positional*: a
        # request pays the seek iff it is not near the head, whatever its
        # random/sequential tag says.  This is what makes concurrent
        # streams interleaving on one drive lose sequential bandwidth —
        # an effect the paper's TPC-H throughput test depends on.
        # Heads start parked far away so a drive's first I/O pays a seek.
        self._head: List[int] = [-(1 << 30)] * ndisks

    def disk_of(self, address: int) -> int:
        """Which drive holds page ``address``."""
        return (address // self.stripe_pages) % self.ndisks

    def lba_of(self, address: int) -> int:
        """Page address within its drive's own block space."""
        stripe_row = address // (self.stripe_pages * self.ndisks)
        return stripe_row * self.stripe_pages + address % self.stripe_pages

    def service_time(self, request: IORequest) -> float:
        """Service time of a single-drive fragment of ``request``.

        Uses the request's tag (kind) for the seek decision; the actual
        serving path (:meth:`_serve_one`) uses head position instead.
        """
        if request.kind.is_read:
            per_page, seek = _SEQ_READ_PER_PAGE, _READ_SEEK
        else:
            per_page, seek = _SEQ_WRITE_PER_PAGE, _WRITE_SEEK
        return (seek if request.kind.random else 0.0) + per_page * request.npages

    def _positional_service_time(self, fragment: IORequest,
                                 disk_index: int) -> float:
        """Seek iff the fragment is not near the drive's head position."""
        if fragment.kind.is_read:
            per_page, seek = _SEQ_READ_PER_PAGE, _READ_SEEK
        else:
            per_page, seek = _SEQ_WRITE_PER_PAGE, _WRITE_SEEK
        gap = abs(self.lba_of(fragment.address) - self._head[disk_index])
        seeking = gap > self.NEAR_PAGES
        return (seek if seeking else 0.0) + per_page * fragment.npages

    def submit(self, request: IORequest) -> Event:
        """Submit a request, splitting it into per-drive fragments."""
        request.submitted_at = self.env.now
        done = self.env.event()
        if self.faults is not None:
            error = self.faults.on_submit(request)
            if error is not None:
                done.fail(error)
                return done
        self._outstanding += 1
        fragments = self._split(request)
        self.env.spawn(self._serve_fragments(request, fragments, done))
        return done

    def reset(self) -> None:
        super().reset()
        self._disks = [Resource(self.env, 1) for _ in range(self.ndisks)]
        self._head = [-(1 << 30)] * self.ndisks

    def _split(self, request: IORequest) -> List[IORequest]:
        """Split a request into contiguous per-drive fragments."""
        if request.npages <= self.stripe_pages - (request.address % self.stripe_pages):
            return [request]
        fragments: List[IORequest] = []
        address, remaining = request.address, request.npages
        while remaining > 0:
            in_stripe = self.stripe_pages - (address % self.stripe_pages)
            take = min(in_stripe, remaining)
            fragments.append(IORequest(request.kind, address, take))
            address += take
            remaining -= take
        return fragments

    def _serve_fragments(self, request: IORequest, fragments, done: Event):
        failure = None
        try:
            if self.faults is not None:
                # Faults act on the whole request, not per fragment: one
                # straggling drive delays the stripe anyway.
                extra = self.faults.pre_service_delay(
                    request, self.service_time(request))
                if extra > 0:
                    yield self.env.timeout(extra)
            yield self.env.gather(
                self._serve_one(fragment) for fragment in fragments)
            if self.faults is not None:
                failure = self.faults.on_complete(request)
            if failure is None:
                request.completed_at = self.env.now
                if self._tracer.enabled:
                    self._tracer.complete(KIND_LABELS[request.kind],
                                          request.submitted_at, self.env.now,
                                          "io", self._trace_track,
                                          ctx=request.ctx)
        finally:
            # Same rule as Device._release: never leak the outstanding
            # count, or ``pending`` inflates and wedges the throttle.
            self._outstanding -= 1
        if failure is not None:
            done.fail(failure)
        else:
            done.succeed(request)

    def _serve_one(self, fragment: IORequest):
        disk_index = self.disk_of(fragment.address)
        disk = self._disks[disk_index]
        with disk.request() as slot:
            yield slot
            service = self._positional_service_time(fragment, disk_index)
            self._head[disk_index] = (self.lba_of(fragment.address)
                                      + fragment.npages)
            yield self.env.timeout(service)
            self.stats.record(fragment, service)
            if self.traffic is not None:
                self.traffic.record(self.env.now, fragment)
