"""The Lazy-Cleaning (LC) design (§2.3.3, §3.3.5).

Dirty pages evicted from the buffer pool are written *only* to the SSD
(write-back), so the SSD can hold a page's newest copy.  What that
obliges (the changed sharp checkpoint of §3.2, copy-back, SSD death) and
the background thread's λ policy are ``SsdManagerBase``'s, shared with
every write-back design (DESIGN.md §5.1).  LC's own is the *round* its
cleaner and its checkpoint run, group cleaning: each batch gathers up to
α dirty pages with consecutive disk addresses and writes them to disk
with a single I/O.  Pages cannot move SSD→disk directly — they are read
into memory first, so cleaning consumes both SSD read and disk write
bandwidth (the throughput drop visible in Figure 6 when the λ threshold
is first crossed).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.ssd_buffer_table import SsdRecord
from repro.core.ssd_manager import SsdManagerBase
from repro.engine.page import Frame
from repro.faults.errors import IoFault
from repro.telemetry import CLEANER_CTX


class LazyCleaningManager(SsdManagerBase):
    """LC: write-back caching of dirty evictions with a cleaner thread."""

    __slots__ = ("_above_lambda", "_cleaning_frames")

    name = "LC"

    #: Empty drain rounds between dirty-heap reseed attempts.
    _RESEED_AFTER = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        registry = self.telemetry.registry
        registry.counter(
            "lc_cleaner_rounds_total", "Group-clean batches the LC cleaner ran",
            lambda: self.stats.cleaner_ios)
        registry.counter(
            "lc_cleaner_pages_total", "Dirty SSD pages the LC cleaner wrote back",
            lambda: self.stats.cleaner_pages)
        registry.counter(
            "lc_lambda_crossings_total",
            "Upward crossings of the dirty-fraction threshold (lambda)",
            lambda: self.stats.lambda_crossings)

    def _reset_transients(self) -> None:
        super()._reset_transients()
        self._above_lambda = False
        #: SSD frame slots with a clean-back transfer in flight; their
        #: records are legitimately absent from the dirty heap and must
        #: not be re-seeded into it.
        self._cleaning_frames: Set[int] = set()

    def _note_lambda(self) -> None:
        """Record crossings of λ (in either direction) as trace instants."""
        above = self.table.dirty_count > self.config.dirty_limit_frames
        if above == self._above_lambda:
            return
        self._above_lambda = above
        if above:
            self.stats.lambda_crossings += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "lambda_crossed" if above else "lambda_recovered",
                "cleaner", "cleaner",
                {"dirty_fraction": self.dirty_fraction})

    # ------------------------------------------------------------------
    # The decision, and the lazy-cleaning thread
    # ------------------------------------------------------------------

    def on_evict_dirty(self, frame: Frame):
        """The decision (§2.3): write-back — the SSD alone, and a new
        dirty page may push the dirty fraction over λ."""
        if (yield from self._evict_write_back(frame)):
            self._after_dirty_cached()

    def _after_dirty_cached(self) -> None:
        self._note_lambda()
        super()._after_dirty_cached()

    def start_cleaner(self) -> None:
        """Launch the background cleaner process (idempotent)."""
        if self._cleaner is None:
            self._start_lambda_cleaner(self._clean_round,
                                       self._note_drain_stall)

    def _clean_round(self):
        """Process step: the cleaner's round.  Several group batches in
        flight — a serial cleaner is capped at one page per disk-write
        latency and silently turns λ into "never" under load — but none
        that would take the count below the target."""
        spare = self.table.dirty_count - self.config.clean_target_frames
        return self._clean_batches(
            min(self.config.cleaner_concurrency, spare))

    def _clean_batches(self, count: int):
        """Process step: ``count`` group batches together; returns the
        pages they cleaned."""
        return sum((yield self.env.gather(
            self._clean_batch() for _ in range(count))))

    def _clean_batch(self):
        """Process step: clean one group of dirty SSD pages (§3.3.5).

        Starting from the oldest dirty page (dirty-heap root), gathers up
        to α dirty pages with consecutive disk addresses, reads each from
        the SSD into memory, writes them to disk as one I/O, and marks
        them clean.  Returns the number of pages cleaned.
        """
        group = self._gather_group()
        if not group:
            return 0
        round_started = self.env.now
        # Capture addresses/versions now: a page may be invalidated (and
        # its record even reused for a different page) while the cleaning
        # I/O is in flight.
        first = group[0].page_id
        versions = [record.version for record in group]
        captured = [(record, record.page_id, record.version)
                    for record in group]
        frames = [record.frame_no for record in group]
        self._cleaning_frames.update(frames)
        try:
            # SSD -> memory: one read per page (they are scattered on the
            # SSD).  These are transfer reads, not page accesses: the
            # LRU-2 history of the records must not be touched.
            landed = all((yield self.env.gather(
                self._ssd_read_frame(record.frame_no, ctx=CLEANER_CTX)
                for record in group)))
            if landed:
                try:
                    yield from self.disk.write_run(first, versions,
                                                   ctx=CLEANER_CTX)
                except IoFault:
                    landed = False
        finally:
            self._cleaning_frames.difference_update(frames)
        for record, page_id, version in captured:
            # Only if the record still describes the exact page/version
            # captured — it may have been invalidated (re-dirtied in the
            # pool) or reused for another page while the I/O was in
            # flight.
            if record.dirty and record.holds(page_id, version):
                if landed:
                    self._mark_clean(record)
                else:
                    # A read failed past the retry budget, the device
                    # died or the disk write was abandoned: nothing was
                    # transferred.  Requeue for a later attempt (or for
                    # the detach redo) and report no progress.
                    self.dirty_heap.push(record)
        if not landed:
            return 0
        self.stats.cleaner_pages += len(group)
        self.stats.cleaner_ios += 1
        if self._tracer.enabled:
            self._tracer.complete("clean_batch", round_started, self.env.now,
                                  "cleaner", "cleaner",
                                  {"pages": len(group), "first_page": first})
        self._note_lambda()
        return len(group)

    def _gather_group(self) -> List[SsdRecord]:
        """Oldest dirty page plus dirty neighbours at consecutive disk
        addresses, up to α pages, sorted by disk address."""
        seed = self.dirty_heap.pop()
        if seed is None:
            return []
        group = [seed]
        limit = self.config.group_clean_pages
        # Extend left, then right, while neighbours are dirty in the SSD.
        for step in (-1, 1):
            page_id = seed.page_id + step
            while len(group) < limit:
                record = self._dirty_record(page_id)
                if record is None:
                    break
                self.dirty_heap.remove(record)
                group.insert(0 if step < 0 else len(group), record)
                page_id += step
        return group

    def _dirty_record(self, page_id: int) -> Optional[SsdRecord]:
        record = self.table.lookup_valid(page_id)
        return record if record is not None and record.dirty else None

    # ------------------------------------------------------------------
    # Drain liveness (dirty-heap/table desync recovery)
    # ------------------------------------------------------------------

    def _note_drain_stall(self, empty_rounds: int) -> None:
        """React to consecutive empty drain rounds.

        Empty rounds are legitimate while other batches hold records in
        flight (``_cleaning_frames``), but ``dirty_count > 0`` with an
        empty dirty heap and *nothing* in flight means the heap and the
        table have desynced — without intervention the drain loop would
        busy-spin forever.  Every ``_RESEED_AFTER`` rounds the heap is
        re-seeded from the table (the authoritative source); if that
        finds nothing and nothing is in flight, the counters themselves
        are inconsistent and we fail loudly rather than hang.
        """
        if empty_rounds % self._RESEED_AFTER != 0:
            return
        reseeded = self._reseed_dirty_heap()
        if reseeded:
            return
        if not self._cleaning_frames and self.table.dirty_count > 0:
            raise RuntimeError(
                f"LC drain stalled: dirty_count={self.table.dirty_count} "
                f"but no dirty records exist in the table and none are in "
                f"flight — table/counter desync")
        self._give_up(empty_rounds, "LC drain",
                      f"{len(self._cleaning_frames)} transfers in flight")

    def _reseed_dirty_heap(self) -> int:
        """Re-push every table-dirty record absent from in-flight batches.

        Duplicate pushes are harmless (the lazy heap re-validates on
        pop).  Returns the number of records pushed; healthy runs never
        get here, so the count doubles as a desync detector.
        """
        reseeded = 0
        for record in self.table.occupied_records():
            if (record.valid and record.dirty
                    and record.frame_no not in self._cleaning_frames):
                self.dirty_heap.push(record)
                reseeded += 1
        if reseeded:
            self.stats.heap_reseeds += 1
            if self._tracer.enabled:
                self._tracer.instant("dirty_heap_reseed", "cleaner",
                                     "cleaner", {"records": reseeded})
        return reseeded

    # ------------------------------------------------------------------
    # Checkpoint integration (§3.2)
    # ------------------------------------------------------------------

    def on_checkpoint(self):
        """The base drain, α pages to a disk write: LC's dirty pages sit
        in a heap, so the checkpoint reuses the cleaner's group batches
        (§3.3.5) instead of copying back page by page."""
        return self._drain(lambda: self.table.dirty_count > 0,
                           self._checkpoint_round, self._note_drain_stall,
                           wait_detach=True)

    def _checkpoint_round(self):
        cleaned = yield from self._clean_batches(
            self.config.cleaner_concurrency)
        self.stats.checkpoint_ssd_flushes += cleaned
        return cleaned
