"""The disk manager: asynchronous page I/O against the database volume.

Wraps the striped HDD array with a page-addressed interface and keeps the
authoritative *disk image* — the version of every page as currently stored
on disk — which is what checkpointing and recovery reason about.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.errors import IoFault, retry_io
from repro.sim import Environment
from repro.storage.hdd import HddArray
from repro.storage.request import IoKind, IORequest
from repro.telemetry import NULL_TELEMETRY


class DiskManager:
    """Page-level read/write interface over the database's disk volume."""

    def __init__(self, env: Environment, device: HddArray, npages: int,
                 telemetry=None):
        self.env = env
        self.device = device
        self.npages = npages
        #: Persistent content: page id -> version currently on disk.
        #: Allocated pages start at version 0 (the loaded database).
        self._image: Dict[int, int] = {}
        self.retries = 0
        #: Writes that landed older than, or equal to, the disk image.
        self.stale_landings = self.same_version_writes = 0
        self.telemetry = telemetry or NULL_TELEMETRY
        self._tracer = self.telemetry.tracer

    # ------------------------------------------------------------------
    # Persistent image (versions)
    # ------------------------------------------------------------------

    def disk_version(self, page_id: int) -> int:
        """Version of ``page_id`` as stored on disk right now."""
        return self._image.get(page_id, 0)

    def _persist(self, page_id: int, version: int) -> None:
        # Monotone: concurrent writers (evictions, the cleaners,
        # checkpoints) may complete out of order; a real implementation
        # orders them with frame latches, which this guard stands in for.
        # What it drops is counted: a stale landing is a write a real
        # disk would have taken backwards.
        current = self._image.get(page_id, -1)
        if version > current:
            self._image[page_id] = version
        elif version == current:
            self.same_version_writes += 1
        else:
            self.stale_landings += 1

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def _retry(self, request: IORequest, fault: IoFault):
        """Process step: ``request`` failed with ``fault``; submit it
        again as :func:`~repro.faults.errors.retry_io` says.

        A dead device (or a spent budget) re-raises to the caller — the
        data volume has no fallback, so that is a hard error.
        """
        def note(attempt: int) -> None:
            self.retries += 1
            if self._tracer.enabled:
                self._tracer.instant(
                    "io_retry", "fault", "faults",
                    {"device": self.device.name, "attempt": attempt,
                     "address": request.address})

        fault = yield from retry_io(
            fault, lambda: self.device.submit(request), False, note)
        if fault is not None:
            raise fault

    def read(self, page_id: int, npages: int = 1, sequential: bool = False,
             ctx=None):
        """Process step: read ``npages`` contiguous pages.

        Returns the list of on-disk versions, captured at I/O completion.
        """
        self._check_range(page_id, npages)
        kind = IoKind.SEQUENTIAL_READ if sequential else IoKind.RANDOM_READ
        request = IORequest(kind, page_id, npages, ctx=ctx)
        try:
            yield self.device.submit(request)
        except IoFault as fault:
            yield from self._retry(request, fault)
        return [self.disk_version(page_id + i) for i in range(npages)]

    def write(self, page_id: int, version: int, ctx=None):
        """Process step: write one page, a random write; the image
        updates at completion."""
        self._check_range(page_id, 1)
        request = IORequest(IoKind.RANDOM_WRITE, page_id, 1, ctx=ctx)
        try:
            yield self.device.submit(request)
        except IoFault as fault:
            yield from self._retry(request, fault)
        self._persist(page_id, version)

    def write_run(self, page_id: int, versions: List[int], ctx=None):
        """Process step: write a contiguous run of pages as a single I/O.

        Used by group cleaning (§3.3.5): up to α dirty SSD pages with
        consecutive disk addresses go to disk in one sequential write.
        """
        self._check_range(page_id, len(versions))
        kind = (IoKind.SEQUENTIAL_WRITE if len(versions) > 1
                else IoKind.RANDOM_WRITE)
        request = IORequest(kind, page_id, len(versions), ctx=ctx)
        try:
            yield self.device.submit(request)
        except IoFault as fault:
            yield from self._retry(request, fault)
        for offset, version in enumerate(versions):
            self._persist(page_id + offset, version)

    def _check_range(self, page_id: int, npages: int) -> None:
        if page_id < 0 or page_id + npages > self.npages:
            raise ValueError(
                f"page range [{page_id}, {page_id + npages}) outside "
                f"database of {self.npages} pages")
