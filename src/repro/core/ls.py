"""The log-structured (LS) design family (ROADMAP item 2, DESIGN.md §10).

The paper's CW/DW/LC/TAC designs update the SSD cache with random
in-place page writes.  On modelled flash internals (``repro.storage.ftl``)
that traffic leaves GC victims full of valid pages and amplifies every
host write into several NAND writes.  LS instead lays the SSD buffer
pool out as a pool of append-only *segments* (LFS style):

* **Group-commit admission** — evicted pages stage into a batch; the
  batch flushes as a single *sequential* multi-page device write when it
  fills, when its timeout expires, or when the buffer pool's eviction
  pressure drains (:meth:`admission_flush_hint`).  Fresh admissions
  append to the *hot* open segment; when it fills, the next free
  segment opens.
* **Supersede-in-place mapping** — re-admitting a page appends a new log
  entry and marks the old record logically invalid; the in-DRAM hash
  always points at the newest entry, so the mapping tolerates the log's
  constant relocation.
* **Greedy segment cleaning with hot/cold separation** — space is
  reclaimed a whole segment at a time, and the victim is the *deadest*
  closed segment (fewest live entries), not the oldest.  Superseded and
  invalidated entries are dead and dropped; live entries relocate to a
  separate *cold* append stream (sequential read + sequential write, so
  the traffic stays log shaped), capped so every reclaim nets real
  space — a mostly-live victim evicts its least-recently-accessed
  entries instead.  Keeping relocated (proven-live) entries out of the
  hot stream lets hot segments turn fully dead, so most cleanings
  relocate nothing.  Entries holding the sole newest copy of a page are
  flushed to disk before being dropped.  The reclaimed segment is
  TRIMmed before reuse, which is exactly what keeps the FTL's own GC
  victims empty and the measured WAF at 1.0 ("How to Write to SSDs",
  PVLDB 2026).
* **Log replay on restart** — every log record carries its append
  epoch, so the on-flash layout is self-describing; the mapping is
  rebuilt by replaying records in epoch order, and entries whose
  version matches the redone disk become warm clean hits (the recovery
  benefit "Flash-Based Extended Cache", PVLDB 2012, measures).

The decision is write-back, and what that obliges is the base
manager's (DESIGN.md §5.1), as are the λ policy of the dirty cleaner and
the loop under both background threads; LS supplies their rounds.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Set, Tuple)

from repro.core.ssd_manager import SsdManagerBase
from repro.core.ssd_buffer_table import SsdRecord
from repro.sim import Event
from repro.telemetry import CLEANER_CTX, EVICTION_CTX

#: Seconds a partial admission batch waits before flushing anyway.  A
#: backstop, not a tunable: the buffer pool's lazy writer flushes partial
#: batches as eviction pressure drains (:meth:`LogStructuredManager
#: .admission_flush_hint`), so it almost never binds.  2 ms is about three
#: SSD page writes: long enough to gather a burst of evictions, far short
#: of the disk write an eviction would otherwise cost.
_BATCH_TIMEOUT = 0.002

#: One staged admission: (page_id, version, dirty, rec_lsn).
_Entry = Tuple[int, int, bool, int]

#: One durable log record: an admission plus its append epoch — the
#: global write order a real log record header carries, and what makes
#: crash replay order-correct across multiple append streams.
_JournalEntry = Tuple[int, int, bool, int, int]


class _LogBatch:
    """One group-commit admission batch."""

    __slots__ = ("entries", "trigger", "done", "ok", "closed")

    def __init__(self, env: Any) -> None:
        self.entries: List[_Entry] = []
        #: Succeeds when the batch should flush early (full / hint).
        self.trigger: Event = env.event()
        #: Succeeds when the flush finished (``ok`` says how it went).
        self.done: Event = env.event()
        self.ok = False
        self.closed = False


class LogStructuredManager(SsdManagerBase):
    """LS: the SSD buffer pool as a pool of append-only segments."""

    __slots__ = ("_seg_pages", "_nseg", "_open", "_cold", "_free_segs",
                 "_seg_seq", "_next_seq", "_next_epoch", "_free_slots",
                 "_journal", "_batch", "_pending_batches", "_reclaim_busy",
                 "_reclaimer", "batches", "batch_pages", "relocations",
                 "replays")

    name = "LS"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        nframes = self.config.ssd_frames
        #: Frames per segment (the last segment may be shorter).
        self._seg_pages = self.table.segment_pages
        self._nseg = (nframes + self._seg_pages - 1) // self._seg_pages
        self._reset_layout()
        #: Always-on tallies; the help texts below say what each counts.
        self.batches = 0
        self.batch_pages = 0
        self.relocations = 0
        self.replays = 0
        registry = self.telemetry.registry
        registry.counter(
            "ls_batches_total", "Group-commit admission batches flushed",
            lambda: self.batches)
        registry.counter(
            "ls_batch_pages_total", "Pages admitted through LS batches",
            lambda: self.batch_pages)
        registry.counter(
            "ls_reclaimed_segments_total",
            "Log segments reclaimed (greedy victim selection)",
            lambda: self.stats.cleaner_ios)
        registry.counter(
            "ls_reclaim_dirty_flushes_total",
            "Newest-copy pages flushed to disk during segment cleaning",
            lambda: self.stats.cleaner_pages)
        registry.counter(
            "ls_relocated_entries_total",
            "Live entries re-appended to the log during segment cleaning",
            lambda: self.relocations)
        registry.counter(
            "ls_replayed_entries_total",
            "Log entries replayed into the mapping after a crash",
            lambda: self.replays)

    @property
    def admission_fill_level(self) -> int:
        """Live entries only: dead log entries are reclaimable space."""
        return self.table.valid_count

    # ------------------------------------------------------------------
    # Segment geometry
    # ------------------------------------------------------------------

    @property
    def _head(self) -> int:
        """Next hot append position (diagnostics); -1 between segments."""
        if self._open[0] is None:
            return -1
        return self._seg_start(self._open[0]) + self._open[1]

    def _seg_start(self, seg: int) -> int:
        return seg * self._seg_pages

    def _seg_size(self, seg: int) -> int:
        return min(self._seg_pages,
                   self.config.ssd_frames - self._seg_start(seg))

    def _claim_frame(self, cold: bool = False) -> int:
        """Claim the next append slot (caller ensured free space).

        ``cold`` selects the relocation stream; fresh admissions use the
        hot stream.  Each stream opens the next free segment when its
        current one fills; a full segment closes immediately and becomes
        a cleaning candidate.  When the free pool is empty, the streams
        share whichever open segment still has room (degenerate tiny
        logs).
        """
        stream = self._cold if cold else self._open
        if stream[0] is None and not self._free_segs:
            stream = self._open if cold else self._cold
        if stream[0] is None:
            stream[0] = self._free_segs.pop(0)
            stream[1] = 0
            self._seg_seq[stream[0]] = self._next_seq
            self._next_seq += 1
        frame_no = self._seg_start(stream[0]) + stream[1]
        stream[1] += 1
        self._free_slots -= 1
        if stream[1] >= self._seg_size(stream[0]):
            stream[0] = None
        return frame_no

    # ------------------------------------------------------------------
    # Admission (group commit into the open segment)
    # ------------------------------------------------------------------

    def _cache_page(self, page_id: int, version: int, dirty: bool,
                    rec_lsn: int = 0,
                    ctx: Any = None) -> Generator[object, Any, bool]:
        """Process step: admit one page by appending a log entry — the
        base contract, but the entry is staged into the current
        group-commit batch and the caller waits for the batch flush."""
        settled = self._cache_guard(self.table.lookup_valid(page_id),
                                    version, dirty)
        if settled is not None:
            return settled
        if self.config.ssd_frames == 0:
            return False
        batch = self._batch
        if batch is None or batch.closed:
            batch = _LogBatch(self.env)
            self._batch = batch
            self._pending_batches[batch] = None
            self.env.spawn(self._flush_batch(batch))
        batch.entries.append((page_id, version, dirty, rec_lsn))
        if len(batch.entries) >= min(self.config.ls_batch_pages,
                                     self.config.ssd_frames):
            self._close_batch(batch)
        yield batch.done
        return batch.ok

    def _close_batch(self, batch: _LogBatch) -> None:
        """Stop accepting entries and release the flush to proceed."""
        batch.closed = True
        if self._batch is batch:
            self._batch = None
        if not batch.trigger.triggered:
            batch.trigger.succeed()

    def admission_flush_hint(self) -> None:
        """Eviction pressure drained: flush the partial batch now."""
        batch = self._batch
        if batch is not None and batch.entries:
            self._close_batch(batch)

    def _flush_batch(self, batch: _LogBatch) -> Generator[object, Any, None]:
        """Process step: group-commit one batch into the open segment."""
        try:
            if not batch.trigger.triggered:
                yield self.env.any_of([
                    batch.trigger, self.env.timeout(_BATCH_TIMEOUT)])
            self._close_batch(batch)
            if self.detached or not batch.entries:
                return
            npages = len(batch.entries)
            yield from self._ensure_log_space(npages)
            if self.detached or self._free_slots < npages:
                return
            frames = self._install_entries(batch)
            ok = yield from self._run_io(frames, self.device.write,
                                         EVICTION_CTX)
            if ok:
                batch.ok = True
                self.batches += 1
                self.batch_pages += npages
                if any(entry[2] for entry in batch.entries):
                    self._after_dirty_cached()
            else:
                self._roll_back(frames)
        finally:
            # Waiters must never hang, whatever path got us here.
            self._pending_batches.pop(batch, None)
            if not batch.done.triggered:
                batch.done.succeed()

    def _install_entries(self, batch: _LogBatch) -> List[int]:
        """Claim append slots and bind the batch's entries, without
        yielding: space was ensured synchronously before the call, so
        the claimed frames are guaranteed free."""
        frames: List[int] = []
        for page_id, version, dirty, rec_lsn in batch.entries:
            frames.append(self._bind(self._claim_frame(), page_id, version,
                                     dirty, rec_lsn).frame_no)
            self.stats.writes += 1
            if self._tracer.enabled:
                self._tracer.instant("admit", "ssd", "ssd_manager",
                                     {"page": page_id, "dirty": dirty})
        if self._reclaimer is not None:
            self._reclaimer()
        return frames

    def _bind(self, frame_no: int, page_id: int, version: int, dirty: bool,
              rec_lsn: int) -> SsdRecord:
        """Bind the claimed slot ``frame_no`` to a page image: the one
        place a log entry comes to be."""
        record = self._map(frame_no, page_id, version, dirty, rec_lsn,
                           self.env.now)
        self._reheap(record)
        self._journal[frame_no] = (page_id, version, dirty, rec_lsn,
                                   self._next_epoch)
        self._next_epoch += 1
        return record

    def _map(self, frame_no: int, page_id: int, version: int, dirty: bool,
             rec_lsn: int, now: float) -> SsdRecord:
        """Point the mapping at the log entry in ``frame_no``, as it is
        written and again as a crash replays it."""
        old = self.table.lookup(page_id)
        if old is not None and old.occupied:
            # Supersede in place: the old entry dies where it lies and
            # frees only when its segment gets cleaned.
            self._invalidate_record(old)
        record = self.table.take_frame(frame_no)
        self.table.install(record, page_id, version, dirty, now,
                           rec_lsn=rec_lsn)
        return record

    def _roll_back(self, frames: List[int]) -> None:
        """The device write failed: the frames hold nothing after all.

        Log discipline still applies — the slots stay consumed (dead)
        until their segment gets cleaned; only their contents are
        disowned.  Waiters see ``ok=False`` and fall back to disk, so no
        data is stranded.
        """
        for frame_no in frames:
            record = self.table.records[frame_no]
            if record.occupied and record.valid:
                self._invalidate_record(record)
            self._journal.pop(frame_no, None)

    def _striped_runs(self, frames: Iterable[int]) -> List[Tuple[int, int]]:
        """Coalesce ascending ``frames`` into contiguous runs and split
        each across the device's channels: ``(address, count)`` pieces.

        A monolithic N-page request occupies a single flash channel for
        N page-times; issuing the run as parallel sequential chunks
        keeps the addressing log-shaped while using the parallelism the
        paper's multi-channel card actually has (and that the in-place
        designs get for free from independent 1-page writes).
        """
        runs: List[List[int]] = []
        for frame_no in frames:
            if runs and runs[-1][0] + runs[-1][1] == frame_no:
                runs[-1][1] += 1
            else:
                runs.append([frame_no, 1])
        channels = max(1, self.device.channels.capacity)
        pieces = []
        for address, count in runs:
            chunk = -(-count // channels)
            pieces += [(address + offset, min(chunk, count - offset))
                       for offset in range(0, count, chunk)]
        return pieces

    def _run_io(self, frames: Iterable[int], submit: Callable[..., Any],
                ctx: Any, must: bool = False) -> Generator[object, Any, bool]:
        """Process step: one sequential device I/O (``submit`` is the
        device's ``read`` or ``write``) per striped run of ascending
        ``frames``, issued concurrently; True if every one landed.
        Claims are contiguous within a segment, so a batch that crossed
        into a fresh segment is (at most) two runs."""
        results = yield self.env.gather(self._ssd_io(
            lambda address=address, count=count: submit(
                address, count, random=False, ctx=ctx), must)
            for address, count in self._striped_runs(frames))
        return all(results)

    # ------------------------------------------------------------------
    # Eviction and invalidation
    # ------------------------------------------------------------------

    #: The decision (§2.3) is write-back and nothing more: the batch
    #: flush nudges the dirty cleaner once the entries are on the SSD,
    #: so nothing is woken here as LC must.
    on_evict_dirty = SsdManagerBase._evict_write_back

    def _invalidate_record(self, record: SsdRecord) -> None:
        """The log entry dies in place; its frame frees only when its
        segment gets cleaned."""
        self.clean_heap.remove(record)
        self.dirty_heap.remove(record)
        self.table.invalidate_logical(record)

    # ------------------------------------------------------------------
    # Greedy segment cleaning (GC-aware eviction)
    # ------------------------------------------------------------------

    @property
    def _reclaim_low_water(self) -> int:
        """Free-slot count below which the background reclaimer runs."""
        return min(max(2 * self.config.ls_segment_pages,
                       2 * self.config.ls_batch_pages),
                   max(1, self.config.ssd_frames // 8))

    def start_cleaner(self) -> None:
        """Launch the background reclaimer and dirty cleaner (idempotent).

        Segment cleaning is expensive — a sequential segment read plus a
        relocation write — so doing it on demand inside the admission
        path serialises every eviction behind it.  The reclaimer keeps
        free space above a low-water mark instead, and cleans far enough
        past it that the free pool holds whole segments: admission
        batches then never wait in :meth:`_ensure_log_space` (the
        backstop for bursts that outrun it) and the cold stream gets
        real segments instead of falling back to the hot one.  The dirty
        cleaner drains the dirty heap *in place* (SSD read + disk write,
        no log movement, so no WAF impact), which keeps dirty entries
        from piling up in cold segments where flushing them would put
        8 ms random disk writes inside the space-reclaim pipeline.
        """
        if self._cleaner is None:
            high = self._reclaim_low_water + 3 * self.config.ls_segment_pages
            self._reclaimer = self._start_background(
                lambda: self._free_slots < self._reclaim_low_water,
                lambda: (self._free_slots < high
                         and self.table.used_count > 0),
                self._reclaim_round)
            self._start_lambda_cleaner(self._dirty_round)

    def _dirty_round(self) -> Generator[object, Any, bool]:
        """Process step: the dirty cleaner's round — a wave of up to
        ``cleaner_concurrency`` in-place copy-backs off the dirty heap.
        Returns whether any landed."""
        wave = []
        while len(wave) < self.config.cleaner_concurrency:
            record = self.dirty_heap.pop()
            if record is None:
                break
            if not (record.occupied and record.valid and record.dirty):
                continue
            if record.version <= self.disk.disk_version(record.page_id):
                # Disk already has this version: clean by fiat.
                self._mark_clean(record)
                continue
            wave.append((record, record.page_id, record.version))
        if not wave:
            return False
        results = yield self.env.gather(
            self._copy_back(r, pid, ver) for r, pid, ver in wave)
        # Entries that stayed dirty (fault, or superseded and re-dirtied
        # mid-flight) go back in the heap so the cleaners and
        # checkpoints can still find them.
        for record, pid, ver in wave:
            if (record.occupied and record.valid and record.dirty
                    and record.page_id == pid):
                self.dirty_heap.push(record)
        return any(results)

    def _reclaim_round(self) -> Generator[object, Any, bool]:
        """Process step: clean one segment, single-flight; did it free a
        slot?"""
        before = self._free_slots
        if self._reclaim_busy is not None:
            # Another flush is already reclaiming; piggyback on it.
            yield self._reclaim_busy
        else:
            self._reclaim_busy = self.env.event()
            try:
                yield from self._do_reclaim()
            finally:
                busy, self._reclaim_busy = self._reclaim_busy, None
                if busy is not None and not busy.triggered:
                    busy.succeed()
        return self._free_slots > before

    def _ensure_log_space(self,
                          needed: int) -> Generator[object, Any, None]:
        """Process step: clean segments until ``needed`` slots fit."""
        return self._drain(
            lambda: (self._free_slots < needed
                     and self.table.used_count > 0),
            self._reclaim_round,
            lambda rounds: self._give_up(
                rounds, "LS reclaim",
                f"free={self._free_slots}, need={needed}"))

    def _pick_victim(self) -> Optional[int]:
        """Greedy victim selection: the closed segment with the fewest
        live entries — it frees the most slots per unit of relocation
        work and keeps the live fraction of the log, the actual cache
        capacity, high.  Ties break toward the oldest segment (lowest
        sequence number); open segments are exempt unless nothing else
        is allocated (degenerate tiny logs)."""
        open_segs = {self._open[0], self._cold[0]}
        closed = [seg for seg in self._seg_seq if seg not in open_segs]
        live = self.table.segment_valid
        return min(closed or self._seg_seq, default=None,
                   key=lambda seg: (live[seg], self._seg_seq[seg]))

    def _do_reclaim(self) -> Generator[object, Any, None]:
        """Process step: clean one whole segment (the module docstring's
        third bullet).

        Dead entries are simply dropped.  Live ones relocate (one
        sequential segment read plus one sequential append, so
        device-level WAF stays at 1), capped at half the segment so
        every round nets real space: when even the deadest segment is
        mostly live, its least-recently-accessed entries are evicted
        instead — relocation preserves ``last_access``, so the drop
        decision approximates LRU rather than FIFO — after those holding
        the sole newest copy of their page were flushed to disk.  The
        freed segment is TRIMmed so the FTL's own GC finds it empty.
        """
        victim = self._pick_victim()
        if victim is None:
            return
        start = self._seg_start(victim)
        size = self._seg_size(victim)
        for stream in (self._open, self._cold):
            if victim == stream[0]:
                # Degenerate tiny log: close the stream and forfeit the
                # unclaimed remainder until the reclaim below re-frees
                # it (keeps ``_free_slots`` honest across the yields).
                self._free_slots -= size - stream[1]
                stream[0] = None
        records = self.table.records[start:start + size]
        started = self.env.now
        live = sorted((r for r in records if r.valid),
                      key=lambda r: r.last_access, reverse=True)
        keep: Set[int] = {r.frame_no for r in live[:size // 2]}
        # Relocating entries move with their dirty flag intact — the
        # background dirty cleaner flushes them on its own λ schedule.
        # Only entries about to be *dropped* while holding the sole
        # newest copy of their page must reach disk first (the backstop
        # that makes capacity eviction safe).  With greedy victims these
        # are rare, which keeps 8 ms random disk writes out of the
        # reclaim pipeline — the pipeline every admission batch queues
        # behind under space pressure.
        targets = []
        for record in live[size // 2:]:
            if (record.dirty and record.version
                    > self.disk.disk_version(record.page_id)):
                targets.append((record, record.page_id, record.version))
        flushed = 0
        for wave_start in range(0, len(targets),
                                self.config.cleaner_concurrency):
            wave = targets[wave_start:wave_start
                           + self.config.cleaner_concurrency]
            results = yield self.env.gather(
                self._copy_back(r, pid, ver) for r, pid, ver in wave)
            if not all(results):
                # Fault or device death mid-flush: abandon this round
                # with the segment intact; the caller retries (or the
                # detach redo takes over).
                return
            flushed += len(wave)
        if self.detached:
            return
        if keep:
            # *Must* reads: a survivor may hold the only newest copy of
            # its page, and giving up would strand it.  Only device death
            # fails the read, and then the detach redo takes over.
            ok = yield from self._run_io(sorted(keep), self.device.read,
                                         CLEANER_CTX, must=True)
            if not ok or self.detached:
                return
        # Capture survivors *after* the last yield: an entry may have
        # been superseded, invalidated, or cleaned while the flush and
        # read I/Os were in flight.  From here to the relocation write
        # everything runs without yielding.
        survivors = [(r.page_id, r.version, r.dirty, r.rec_lsn, r.last_access)
                     for r in records if r.valid and r.frame_no in keep]
        dropped = 0
        for record in records:
            if record.occupied:
                if record.valid and record.frame_no not in keep:
                    self.stats.evictions += 1
                    dropped += 1
                self._drop_record(record)
            self._journal.pop(record.frame_no, None)
        self._free_slots += size
        self.device.trim(start, size)
        self._seg_seq.pop(victim, None)
        self._free_segs.append(victim)
        relocated = 0
        if survivors and not self.detached:
            new_frames: List[int] = []
            for page_id, version, dirty, rec_lsn, last_access in survivors:
                record = self._bind(self._claim_frame(cold=True), page_id,
                                    version, dirty, rec_lsn)
                # Relocation is not an access: keep the entry's true
                # recency so the next cleaning pass ranks it honestly.
                record.last_access = last_access
                new_frames.append(record.frame_no)
            ok = yield from self._run_io(new_frames, self.device.write,
                                         EVICTION_CTX)
            if ok:
                relocated = len(survivors)
                self.relocations += relocated
            else:
                self._roll_back(new_frames)
        self.stats.cleaner_pages += flushed
        self.stats.cleaner_ios += 1
        if self._tracer.enabled:
            self._tracer.complete(
                "log_reclaim", started, self.env.now, "cleaner", "cleaner",
                {"segment": victim, "segment_start": start, "pages": size,
                 "dirty_flushed": flushed, "valid_dropped": dropped,
                 "relocated": relocated})

    # ------------------------------------------------------------------
    # Checkpoint integration (§3.2, same rule as LC)
    # ------------------------------------------------------------------

    def oldest_dirty_rec_lsn(self) -> Optional[int]:
        """Include entries still staged in unflushed batches."""
        lsns = [r.rec_lsn for r in self.table.occupied_records()
                if r.valid and r.dirty]
        for batch in self._pending_batches:
            lsns.extend(rec_lsn for _, _, dirty, rec_lsn in batch.entries
                        if dirty)
        return min(lsns) if lsns else None

    def on_checkpoint(self) -> Generator[object, Any, None]:
        """Land staged batches — their dirty entries are in no table
        yet — then drain the table as every write-back design does."""
        batch = self._batch
        if batch is not None and batch.entries:
            self._close_batch(batch)
        for pending in list(self._pending_batches):
            if not pending.done.triggered:
                yield pending.done
        yield from super().on_checkpoint()

    # ------------------------------------------------------------------
    # Detach / crash / restart
    # ------------------------------------------------------------------

    def _clear_ssd_state(self) -> None:
        super()._clear_ssd_state()
        self._reset_layout()

    def _reset_layout(self) -> None:
        """An empty log: no segment open or allocated, no journal."""
        #: Hot append stream (fresh admissions): [segment, position].
        #: Hot entries die fast, so hot segments turn fully dead and
        #: clean for free.
        self._open: List[Any] = [None, 0]
        #: Cold append stream (cleaner relocations): proven-live entries
        #: stay packed together instead of polluting hot segments.
        self._cold: List[Any] = [None, 0]
        #: Free segments, reused FIFO (each was TRIMmed when freed).
        self._free_segs: List[int] = list(range(self._nseg))
        #: Allocation epoch per allocated segment (victim age proxy).
        self._seg_seq: Dict[int, int] = {}
        self._next_seq = 0
        #: Global append epoch: total order over journal entries.
        self._next_epoch = 0
        self._free_slots = self.config.ssd_frames
        #: Durable per-frame log metadata (what a restart can replay).
        self._journal: Dict[int, _JournalEntry] = {}

    def _reset_transients(self) -> None:
        """Plus the staged batches, the reclaim latch and the
        reclaimer's wake-up call: all died with the event queue."""
        super()._reset_transients()
        self._batch: Optional[_LogBatch] = None
        #: Batches staged or flushing (for checkpoint/LSN accounting),
        #: in staging order: a checkpoint waits on them one by one, and
        #: which it is parked on must not depend on where they sit in
        #: memory.
        self._pending_batches: Dict[_LogBatch, None] = {}
        #: Single-flight latch for segment cleaning.
        self._reclaim_busy: Optional[Event] = None
        #: Wakes the tail reclaimer, once :meth:`start_cleaner` ran.
        self._reclaimer: Optional[Callable[[], None]] = None

    def _survive_crash(self) -> None:
        """The journal and the segment layout (device-durable) survive,
        and the mapping is rebuilt by replaying the on-flash log.

        The in-DRAM hash dies with the crash, but the log records are on
        the device (modelled by ``_journal``), each carrying its append
        epoch — the total write order, which segment order alone cannot
        give once relocations append to a second stream.  Replaying in
        epoch order makes later entries supersede earlier ones exactly
        as the live path did.  Stale/uncommitted entries are weeded out
        by :meth:`on_restart` once redo has settled what disk truth is:
        an entry whose version equals the recovered disk's is a correct
        clean cache hit — LS's free warm restart.
        """
        SsdManagerBase._clear_ssd_state(self)   # the journal stays
        if self.detached:  # even mid-detach: a dead SSD replays nothing
            return
        for frame_no, entry in sorted(self._journal.items(),
                                      key=lambda item: item[1][4]):
            record = self._map(frame_no, *entry[:4], now=0.0)
            if not record.dirty:
                # A dirty entry waits for restart to settle it: filed
                # now, the restarted cleaner would copy it back to a
                # disk redo is still writing.
                self.clean_heap.push(record)
        if self._journal:
            self.replays += len(self._journal)
            if self._tracer.enabled:
                self._tracer.instant("ls_log_replay", "ssd", "ssd_manager",
                                     {"entries": len(self._journal)})
