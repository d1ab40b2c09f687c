"""Striped hard-disk-array model.

Models the paper's data volume: eight 1 TB 7,200 RPM SATA drives with the
database striped across them.  Each drive is a single server with a
seek-plus-transfer service time; a random I/O pays the seek, a sequential
one (read-ahead, group-cleaned writes) pays only per-page transfer.

The per-operation constants are calibrated so that the saturated 8-disk
aggregate matches the paper's Table 1 within a couple of percent:
1,015 random-read / 26,370 sequential-read / 895 random-write /
9,463 sequential-write IOPS at 8 KB.
"""

from __future__ import annotations

from typing import List, Set

from repro.sim import Environment, Event, Timeout
from repro.storage.device import KIND_LABELS, ChannelPool, DeviceBase
from repro.storage.request import IoKind, IORequest

#: Pages per stripe unit.  The paper stripes file groups across the disks;
#: SQL Server allocates in 8-page (64 KB) extents, so we stripe by extent.
DEFAULT_STRIPE_PAGES = 8

# Per-disk service-time constants (seconds), derived from Table 1:
#   sequential read:   26,370/8 disks = 3,296 pages/s  -> 303.4 us/page
#   random read:        1,015/8      =   126.9 IOPS    -> 7.881 ms/op
#   sequential write:   9,463/8      = 1,182.9 pages/s -> 845.4 us/page
#   random write:         895/8      =   111.9 IOPS    -> 8.938 ms/op
_SEQ_READ_PER_PAGE = 1.0 / (26_370.0 / 8)
_SEQ_WRITE_PER_PAGE = 1.0 / (9_463.0 / 8)
_READ_SEEK = 8 / 1_015.0 - _SEQ_READ_PER_PAGE
_WRITE_SEEK = 8 / 895.0 - _SEQ_WRITE_PER_PAGE
#: kind -> (seconds per page, seconds per seek)
_RATES = {kind: ((_SEQ_READ_PER_PAGE, _READ_SEEK) if kind.is_read
                 else (_SEQ_WRITE_PER_PAGE, _WRITE_SEEK)) for kind in IoKind}


class _Striped(Event):
    """A request's completion event; while the request is inside the
    array it also counts its fragments on the drives, unserved."""

    __slots__ = ("request", "left")

    def __init__(self, env: Environment, request: IORequest) -> None:
        super().__init__(env)
        self.request = request
        self.left = 0


class HddArray(DeviceBase):
    """A stripe set of identical hard drives.

    Page addresses are striped across the drives in ``stripe_pages`` units;
    a multi-page request is split into per-drive fragments that proceed in
    parallel, and the request completes when the slowest fragment does
    (this is what makes striped disks so strong at sequential reads, the
    effect the paper's admission policy is built around).

    A request of *f* fragments costs ``f + 4`` scheduled events and no
    process; why not :class:`Device`'s two is DESIGN.md §13.  Without an
    injector none of them is a ``Timeout``: the hop after ``submit`` and
    the two after the last fragment queue the request itself, and each
    fragment's timer queues the fragment, as :class:`Device` does.

    ``stats`` accounts each *fragment* as a drive finishes it (busy time
    and pages are per drive), so ``stats.completed`` and ``stats.by_kind``
    count fragments; whole requests are counted once, on completion, in
    ``requests_by_kind`` (``tpch_dw``: 7,205 requests of 10,695
    fragments).
    """

    #: Per-drive LBA gap (pages) a drive can bridge without a full seek
    #: (~128 KB of short head movement).  Distances are measured in each
    #: drive's own block space, where a striped sequential stream is
    #: exactly contiguous.
    NEAR_PAGES = 16

    __slots__ = ("ndisks", "stripe_pages", "_drives", "_head", "_inflight",
                 "_admitting", "_serving", "_joining", "_completing")

    def __init__(self, env: Environment, ndisks: int = 8,
                 stripe_pages: int = DEFAULT_STRIPE_PAGES,
                 name: str = "hdd-array"):
        if ndisks < 1:
            raise ValueError(f"ndisks must be >= 1, got {ndisks}")
        if type(stripe_pages) is not int or stripe_pages < 1:
            raise ValueError(
                f"stripe_pages must be an int >= 1, got {stripe_pages!r}")
        self.ndisks = ndisks
        self.stripe_pages = stripe_pages
        super().__init__(env, name)
        self.requests_by_kind = {kind: 0 for kind in IoKind}
        # One callback list per hop, shared by every entry queued for it
        # (``DeviceBase._queue``).
        self._admitting = [self._admit]
        self._serving = [self._served]
        self._joining = [self._joined]
        self._completing = [self._complete]
        self.reset()

    @property
    def pending(self) -> int:
        return len(self._inflight)

    def disk_of(self, address: int) -> int:
        """Which drive holds page ``address``."""
        return (address // self.stripe_pages) % self.ndisks

    def lba_of(self, address: int) -> int:
        """Page address within its drive's own block space."""
        stripe_row = address // (self.stripe_pages * self.ndisks)
        return stripe_row * self.stripe_pages + address % self.stripe_pages

    def service_time(self, request: IORequest) -> float:
        """Service time of a single-drive fragment of ``request``.

        Uses the request's kind for the seek decision; the actual
        serving path (:meth:`_start`) uses head position instead.
        """
        per_page, seek = _RATES[request.kind]
        return (seek if request.kind.random else 0.0) + per_page * request.npages

    def _enter(self, request: IORequest) -> Event:
        """The request will split into per-drive fragments."""
        request.done = done = _Striped(self.env, request)
        self._inflight.add(done)
        # The hop every request keeps: its fragments start one queue entry
        # later, behind those that drives freed in this instant go on to.
        self._queue(request, 0.0, self._admitting)
        return done

    def reset(self) -> None:
        self._drives = [ChannelPool(1) for _ in range(self.ndisks)]
        # Per-drive head position: the page address just past the last
        # fragment each drive served.  Seek cost is *positional*: a
        # request pays the seek iff it is not near the head, whatever its
        # random/sequential tag says.  This is what makes concurrent
        # streams interleaving on one drive lose sequential bandwidth —
        # an effect the paper's TPC-H throughput test depends on.
        # Heads start parked far away so a drive's first I/O pays a seek.
        self._head: List[int] = [-(1 << 30)] * self.ndisks
        #: Every request between ``submit`` and its completion.
        self._inflight: Set[_Striped] = set()

    def check_invariants(self) -> None:
        """Assert the drives hold the pending requests' unserved fragments."""
        held = sum(drive.check() for drive in self._drives)
        unserved = sum(job.left for job in self._inflight)
        assert held == unserved, (
            f"{self.name}: drives hold {held} of {unserved} unserved fragments")

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

    def _admit(self, request: IORequest) -> None:
        """One hop after ``submit``: past the injector's stall, if any."""
        if self.faults is None:
            self._arrive(request)
            return
        # Faults act on the whole request, not per fragment: one
        # straggling drive delays the stripe anyway.
        extra = self._stall(request, self.service_time(request))
        if extra > 0:
            Timeout(self.env, extra).callbacks.append(
                lambda stall: self._hop(self._arrive, request))
        else:
            self._hop(self._arrive, request)

    def _arrive(self, request: IORequest) -> None:
        """Hand each fragment to its drive, or to the drive's queue."""
        job = request.done
        fragments = self._split(request)
        job.left = len(fragments)
        for fragment in fragments:
            fragment.done = job
            drive = self._drives[self.disk_of(fragment.address)]
            if drive.busy:
                drive.waiting.append(fragment)
            else:
                drive.busy = 1
                self._hop(self._start, fragment)

    def _start(self, fragment: IORequest) -> None:
        """Seek the drive to ``fragment`` and queue the fragment as its
        own service timer."""
        index = self.disk_of(fragment.address)
        try:
            per_page, seek = _RATES[fragment.kind]
            lba = self.lba_of(fragment.address)
            seeking = abs(lba - self._head[index]) > self.NEAR_PAGES
            fragment.service = service = (
                (seek if seeking else 0.0) + per_page * fragment.npages)
            self._head[index] = lba + fragment.npages
            self._queue(fragment, service, self._serving)
        except BaseException:
            self._inflight.discard(fragment.done)
            self._release(index)
            raise

    def _served(self, fragment: IORequest) -> None:
        """Service-timer callback: account the fragment, pass the drive
        on, and if it was the request's last, head for completion."""
        job = fragment.done
        try:
            self.stats.record(fragment, fragment.service)
            if self.traffic is not None:
                self.traffic.record(self.env._now, fragment)
        finally:
            # The fragment is served even if its accounting raised, and
            # the request moves on even if starting the drive's next does.
            try:
                self._release(self.disk_of(fragment.address))
            finally:
                job.left -= 1
                if not job.left:
                    self._queue(job.request, 0.0, self._joining)

    def _release(self, index: int) -> None:
        """Pass the drive on to its next queued fragment, or idle it."""
        drive = self._drives[index]
        if drive.waiting:
            self._hop(self._start, drive.waiting.popleft())
        else:
            drive.busy = 0

    def _joined(self, request: IORequest) -> None:
        """First hop after the last fragment's timer."""
        self._queue(request, 0.0, self._completing)

    def _complete(self, request: IORequest) -> None:
        """Second hop: the request leaves the array and triggers, failed
        if an attached injector says so, else stamped, its I/O span
        emitted and counted."""
        job = request.done
        request.done = None  # ``job`` holds the request
        try:
            failure = (self._outcome(request)
                       if self.faults is not None else None)
            if failure is None:
                request.completed_at = now = self.env._now
                if self._tracer.enabled:
                    self._tracer.complete(KIND_LABELS[request.kind],
                                          request.submitted_at, now, "io",
                                          self._trace_track, ctx=request.ctx)
                self.requests_by_kind[request.kind] += 1
        finally:
            # Same rule as Device._finish: never leak the count, or
            # ``pending`` inflates and wedges whoever throttles on it.
            self._inflight.discard(job)
        if failure is None:
            job.succeed(request)
        else:
            job.fail(failure)
