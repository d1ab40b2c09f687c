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

from typing import List

from repro.sim import Environment, Event, Resource
from repro.storage.device import Device, KIND_LABELS
from repro.storage.request import IORequest

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


class HddArray(Device):
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
        super().__init__(env, name, channels=ndisks)
        self.ndisks = ndisks
        self.stripe_pages = stripe_pages
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
                self._tm_requests[request.kind].inc()
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
            self._tm_pages[fragment.kind].inc(fragment.npages)
            if self.traffic is not None:
                self.traffic.record(self.env.now, fragment)
