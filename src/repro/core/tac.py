"""Temperature-Aware Caching (TAC) — the Canim et al. baseline (§2.5).

TAC's page flow differs from the paper's designs in three ways that the
evaluation leans on:

1. **Write-through on read**: a page that qualifies is written to the SSD
   immediately after being read from disk, while forward processing may
   want the page — the write holds the frame latch, which is the extra
   latch contention the paper measured (~25% longer latch waits).  And if
   a transaction dirties the page *before* the write starts, TAC must
   skip it (the SSD would otherwise hold a version newer than disk,
   violating write-through); pages dirtied on first touch, and pages
   created on the fly (B+-tree splits), therefore never reach the SSD.
2. **Logical invalidation**: dirtying a buffered page marks the SSD copy
   invalid but does not free its frame, so invalid pages waste SSD space
   (the paper measured 7–10 GB of a 140 GB SSD on TPC-C).
3. **Temperature-based admission/replacement**: each 32-page extent has a
   temperature, incremented on every buffer-pool miss by the milliseconds
   the SSD would have saved; after the SSD fills, a page is admitted only
   if its extent is hotter than the coldest cached page, which is then
   replaced — valid or not.

Aggressive filling (τ) and throttle control (μ) are applied to TAC too,
matching the paper's implementation notes (§3.3.1–3.3.2).
"""

from __future__ import annotations

from typing import Dict

from repro.core.heaps import LazyMinHeap
from repro.core.ssd_manager import SsdManagerBase
from repro.engine.page import Frame
from repro.storage.request import IoKind, IORequest
from repro.telemetry import ADMISSION_CTX, EVICTION_CTX


class TemperatureAwareManager(SsdManagerBase):
    """TAC: temperature-aware second-level write-through cache."""

    __slots__ = ("temperatures", "temp_heap", "_saving_ms",
                 "_saving_seq_ms", "admission_writes")

    name = "TAC"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.temperatures: Dict[int, float] = {}
        self.temp_heap = LazyMinHeap(
            key=self._record_temperature,
            member=lambda r: r.occupied)
        # Milliseconds saved by serving one random 8 KB read from the SSD
        # instead of the disk — the temperature increment unit.
        probe = IORequest(IoKind.RANDOM_READ, 0, 1)
        saving = (self.disk.device.service_time(probe)
                  - self.device.service_time(probe))
        self._saving_ms = max(0.0, saving * 1000.0)
        probe_seq = IORequest(IoKind.SEQUENTIAL_READ, 0, 1)
        saving_seq = (self.disk.device.service_time(probe_seq)
                      - self.device.service_time(probe_seq))
        self._saving_seq_ms = max(0.0, saving_seq * 1000.0)
        #: Pages written to the SSD right after a disk read.
        self.admission_writes = 0

    # ------------------------------------------------------------------
    # Temperature bookkeeping
    # ------------------------------------------------------------------

    def extent_of(self, page_id: int) -> int:
        """The 32-page extent that owns ``page_id``."""
        return page_id // self.config.extent_pages

    def temperature_of(self, page_id: int) -> float:
        """Current temperature of the page's extent."""
        return self.temperatures.get(self.extent_of(page_id), 0.0)

    def _record_temperature(self, record) -> float:
        if record.page_id is None:
            return float("-inf")
        return self.temperature_of(record.page_id)

    def _bump(self, page_id: int, sequential: bool = False) -> None:
        extent = self.extent_of(page_id)
        saving = self._saving_seq_ms if sequential else self._saving_ms
        self.temperatures[extent] = self.temperatures.get(extent, 0.0) + saving

    # ------------------------------------------------------------------
    # Read path: every call is a buffer-pool miss, so bump temperature
    # ------------------------------------------------------------------

    def start_read(self, page_id: int, ctx=None):
        """Serve a miss from the SSD, bumping the extent temperature
        first: every attempt is a buffer-pool miss."""
        self._bump(page_id)
        return super().start_read(page_id, ctx)

    def _reheap(self, record) -> None:
        """TAC replacement is temperature-ordered, not LRU-2: reads do
        not change a record's replacement priority."""

    # ------------------------------------------------------------------
    # TAC's page flow
    # ------------------------------------------------------------------

    def on_read_from_disk(self, frame: Frame) -> None:
        """Step (ii): schedule an immediate write of the page to the SSD.

        The write runs as its own process; by the time it starts, forward
        processing may already have dirtied (or evicted) the page, in
        which case the write is abandoned — TAC cannot cache a page whose
        SSD copy would be newer than disk.
        """
        if frame.sequential:
            self._bump(frame.page_id, sequential=True)
        if self.config.ssd_frames == 0 or self.detached:
            return
        self.env.spawn(self._write_after_read(frame))

    def _write_after_read(self, frame: Frame):
        if frame.dirty or frame.io_busy is not None:
            self.stats.missed_dirty_writes += 1
            return
        if not self._admit(frame.page_id):
            return
        # Hold the frame latch for the duration of the SSD write — the
        # §2.5 latch-contention effect.
        busy = self.env.event()
        frame.io_busy = busy
        frame.busy_reason = "admission-write"
        started = self.env.now
        try:
            cached = yield from self._cache_page(
                frame.page_id, frame.version, dirty=False, ctx=ADMISSION_CTX)
            if cached:
                self.admission_writes += 1
        finally:
            frame.io_busy = None
            frame.busy_reason = None
            busy.succeed()
            if self._tracer.enabled:
                self._tracer.complete("admission_write", started,
                                      self.env.now, "ssd", "ssd_manager",
                                      {"page": frame.page_id})

    def _admit(self, page_id: int) -> bool:
        """Temperature admission: always before the fill threshold, then
        only if hotter than the coldest cached page."""
        if self.used_frames < self.config.fill_target_frames:
            return True
        if self.table.free_count > 0:
            return True
        coldest = self.temp_heap.peek()
        if coldest is None:
            return True
        return self.temperature_of(page_id) > self._record_temperature(coldest)

    def _evict_for_space(self):
        """The frame, when none is free: the coldest — valid or not."""
        return super()._evict_for_space(self.temp_heap)

    def _file(self, record) -> None:
        self.temp_heap.push(record)

    def on_evict_clean(self, frame: Frame):
        """TAC caches on read, not on eviction: nothing to do."""
        return ()

    def on_evict_dirty(self, frame: Frame):
        """Step (iv): write to disk; if an *invalidated* version of the
        page sits in the SSD, also write the new version there."""
        record = self.table.lookup(frame.page_id)
        stale = record is not None and not record.valid
        yield self._write_through(frame, EVICTION_CTX, stale and (
            self._revalidate_write(record, frame.page_id, frame.version)))

    def _revalidate_write(self, record, page_id: int, version: int):
        if self.detached:
            return
        if self._throttled():
            self.stats.declined_throttle += 1
            return
        if (not record.occupied or record.page_id != page_id
                or record.valid):
            # The frame's state changed between scheduling and execution
            # (another write re-validated or replaced it): stand down.
            return
        self.table.revalidate(record, version, self.env.now)
        self.temp_heap.push(record)
        self.stats.writes += 1
        # An abandoned write un-claims as TAC invalidates: logically.
        yield from self._ssd_write_frame(
            record, page_id, version, EVICTION_CTX,
            unclaim=self.table.invalidate_logical)

    # ------------------------------------------------------------------
    # Logical invalidation (§2.5: the frame is *not* reclaimed)
    # ------------------------------------------------------------------

    def _invalidate_record(self, record) -> None:
        """Logical invalidation: mark invalid but keep the frame.

        The record stays in the temperature heap: TAC may replace a
        valid page while invalid ones linger — the §4.2 waste."""
        self.table.invalidate_logical(record)

    def _drop_record(self, record) -> None:
        self.temp_heap.remove(record)
        self.table.release(record)

    def heaps(self):
        """Plus the temperature heap: detach and cold restart empty it
        with the others (extent temperatures themselves are statistics,
        not mapping state, and survive — as they would in a server that
        logs them)."""
        return dict(super().heaps(), temp=self.temp_heap)

    #: Checkpoint flush: the eviction flow (disk write, plus the SSD if an
    #: invalidated copy can be refreshed).
    checkpoint_write = on_evict_dirty
