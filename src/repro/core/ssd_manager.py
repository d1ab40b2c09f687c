"""The SSD manager: shared machinery for all designs (Figure 1, §2.2).

The buffer pool calls the SSD manager at five points:

* on a page miss, to try serving the read from the SSD (:meth:`try_read`);
* after reading a page from disk (:meth:`on_read_from_disk` — only TAC
  acts here);
* when evicting a clean or dirty page (:meth:`on_evict_clean` /
  :meth:`on_evict_dirty` — where the CW/DW/LC designs differ);
* when a buffered page is dirtied (:meth:`invalidate`);
* when planning a multi-page read (:meth:`trim_plan`, §3.3.3).

The checkpointer adds :meth:`checkpoint_write` and :meth:`on_checkpoint`;
crash/restart simulation adds :meth:`crash_reset` / :meth:`on_restart`.

What a *write-back* design owes is kept here once, keyed on what the
buffer table holds (``table.dirty_count``) and never on which design
runs: :meth:`_evict_write_back` (no new dirty page while a checkpoint
runs, §3.2), :meth:`_copy_back` (SSD → memory → disk, §3.3.5),
:meth:`on_checkpoint` (every dirty SSD page reaches disk before the log
is cut) and :meth:`_pre_detach` (SSD death is survived by redo, §2.4).
So is each mechanism of placement and background work: :meth:`_place`
(bind a frame, file, count, trace, write, un-claim on failure),
:meth:`_drain` (rounds while work is pending, back-off after an empty
one), :meth:`_start_background` (a loop asleep until there is work) and
:meth:`_start_lambda_cleaner` (§3.3.5: wake above λ, drain to just
below).  A design says its *decision* (:meth:`on_evict_dirty`, §2.3),
the *frame* a new page takes (:meth:`_evict_for_space`, or a layout's
:meth:`_cache_page`) and the *round* its cleaner or checkpoint runs.

Methods documented as *process steps* are generators to be driven with
``yield from``.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, Generator, List,
                    Optional, Sequence)

from repro.faults.errors import DeviceDeadError, IoFault, retry_io
from repro.sim import Environment
from repro.core.admission import AdmissionPolicy
from repro.core.config import SsdDesignConfig
from repro.core.heaps import LazyMinHeap
from repro.core.ssd_buffer_table import SsdBufferTable, SsdRecord
from repro.engine.disk_manager import DiskManager
from repro.engine.page import Frame
from repro.engine.recovery import RecoveryError
from repro.engine.wal import WriteAheadLog
from repro.storage.ssd import Ssd
from repro.telemetry import (
    CHECKPOINT_CTX,
    CLEANER_CTX,
    EVICTION_CTX,
    NULL_TELEMETRY,
    RECOVERY_CTX,
)

#: Concurrent disk writes per wave during degradation redo (matches the
#: checkpointer's FLUSH_BATCH).
DEGRADE_BATCH = 32


class TrimPlan:
    """Result of the §3.3.3 multi-page trimming decision.

    ``disk_start``/``disk_count`` describe the single contiguous disk read
    (count 0 means everything came from the SSD); ``ssd_pages`` are read
    from the SSD with individual I/Os; ``skip_in_run`` are pages inside the
    disk run whose disk copy must be discarded because a newer SSD copy is
    being read instead.

    Plain ``__slots__`` class (not a dataclass): one plan per multi-page
    read puts it on the RPL002 hot path, and the 3.10+ ``slots=True``
    dataclass option is out of reach on this codebase's 3.9 floor.
    """

    __slots__ = ("disk_start", "disk_count", "ssd_pages", "skip_in_run")

    def __init__(self, disk_start: int = 0, disk_count: int = 0,
                 ssd_pages: Sequence[int] = (),
                 skip_in_run: FrozenSet[int] = frozenset()):
        self.disk_start = disk_start
        self.disk_count = disk_count
        self.ssd_pages = ssd_pages
        self.skip_in_run = skip_in_run

    def __repr__(self) -> str:
        return (f"TrimPlan(disk_start={self.disk_start}, "
                f"disk_count={self.disk_count}, "
                f"ssd_pages={list(self.ssd_pages)!r}, "
                f"skip_in_run={sorted(self.skip_in_run)!r})")


class SsdStats:
    """Cumulative SSD-manager counters.

    Hand-slotted for the same reason as :class:`TrimPlan`; the counter
    set round-trips through :meth:`as_dict` (the sweep cache snapshots
    and restores it with ``SsdStats(**...)``).
    """

    __slots__ = (
        "reads",              # pages served from the SSD
        "writes",             # pages written to the SSD
        "declined_throttle",  # optional SSD I/Os skipped (μ)
        "invalidations",      # SSD copies invalidated on page dirty
        "evictions",          # SSD frames reclaimed by replacement
        "fallback_disk_writes",   # dirty evictions LC sent to disk
        "cleaner_pages",      # pages the LC cleaner wrote back
        "cleaner_ios",        # disk I/Os the cleaner issued
        "checkpoint_ssd_flushes",  # dirty SSD pages flushed at checkpoints
        "missed_dirty_writes",    # TAC: page dirtied before its SSD write
        "lambda_crossings",   # LC: upward crossings of the λ threshold
        "io_retries",         # SSD I/Os retried after transient faults
        "io_failures",        # SSD I/Os abandoned (budget/device death)
        "throttle_preserved",  # copies kept through a declined admit
        "detach_redo_pages",  # dirty pages redone to disk at SSD death
        "heap_reseeds",       # LC dirty-heap reseeds (desync recovery)
    )

    def __init__(self, **counters: int):
        for name in self.__slots__:
            setattr(self, name, counters.pop(name, 0))
        if counters:
            raise TypeError(
                f"SsdStats has no counter named {sorted(counters)}")

    def as_dict(self) -> Dict[str, int]:
        """Counter name → value, in slot order (snapshot format)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SsdStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"SsdStats({nonzero!r})"


#: A maintenance round: a process step returning how much it got done;
#: ``Stalled`` is told how many rounds in a row did nothing.
Round = Callable[[], Generator[Any, Any, Any]]
Stalled = Optional[Callable[[int], None]]


class SsdManagerBase:
    """Common implementation: table, heaps, admission, throttle, trimming."""

    # The manager sits on every page miss and eviction, so RPL002 keeps
    # its instances __dict__-free.  ``bp`` is assigned by the system
    # wiring after construction and must stay a slot.
    __slots__ = (
        "env", "device", "disk", "wal", "config", "admission", "table",
        "stats", "bp", "clean_heap", "dirty_heap", "detached",
        "_detach_complete", "telemetry", "_tracer", "_cleaner",
    )

    #: Name used in figures and reports; subclasses override.
    name = "base"

    #: Consecutive no-progress drain rounds before failing loudly.
    _STALL_LIMIT = 64

    def __init__(self, env: Environment, device: Ssd, disk: DiskManager,
                 wal: WriteAheadLog, config: Optional[SsdDesignConfig] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 telemetry=None):
        self.env = env
        self.device = device
        self.disk = disk
        self.wal = wal
        self.config = config or SsdDesignConfig()
        self.admission = admission or AdmissionPolicy(self.config)
        self.table = SsdBufferTable(self.config.ssd_frames,
                                    self.config.ls_segment_pages)
        self.stats = SsdStats()
        #: Set by the system wiring; lets designs see checkpoint state.
        self.bp = None
        self.clean_heap = LazyMinHeap(
            key=SsdRecord.lru2_key,
            member=lambda r: r.valid and not r.dirty)
        self.dirty_heap = LazyMinHeap(
            key=SsdRecord.lru2_key,
            member=lambda r: r.valid and r.dirty)
        #: True once the SSD has been dropped from service (device death,
        #: §2.4 degradation): the design continues as noSSD.
        self.detached = False
        self._reset_transients()
        self.telemetry = telemetry or NULL_TELEMETRY
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        registry.counter(
            "ssd_mgr_reads_total", "Pages served from the SSD buffer pool",
            lambda: self.stats.reads)
        registry.counter(
            "ssd_mgr_writes_total", "Pages admitted (written) to the SSD",
            lambda: self.stats.writes)
        registry.counter(
            "ssd_mgr_invalidations_total", "SSD copies invalidated on dirty",
            lambda: self.stats.invalidations)
        registry.counter(
            "ssd_mgr_declined_throttle_total",
            "Optional SSD I/Os skipped by throttle control (mu)",
            lambda: self.stats.declined_throttle)
        registry.counter(
            "ssd_mgr_evictions_total", "SSD frames reclaimed by replacement",
            lambda: self.stats.evictions)
        registry.counter(
            "ssd_mgr_fallback_disk_writes_total",
            "Dirty evictions sent to disk instead of the SSD",
            lambda: self.stats.fallback_disk_writes)
        registry.counter(
            "ssd_mgr_retries_total",
            "SSD I/Os retried after transient failures",
            lambda: self.stats.io_retries)
        registry.counter(
            "ssd_mgr_throttle_preserved_total",
            "Existing SSD copies preserved through a declined admission",
            lambda: self.stats.throttle_preserved)

        def per_heap(vital):
            return lambda: {(name,): vital(heap)
                            for name, heap in self._heaps().items()}
        registry.gauge(
            "ssd_mgr_heap_entries", "Binary-heap entries, garbage included",
            per_heap(len), labelnames=("heap",))
        registry.gauge(
            "ssd_mgr_heap_live", "Records filed in the heap",
            per_heap(lambda heap: heap.live_count), labelnames=("heap",))
        registry.counter(
            "ssd_mgr_heap_rekeys_total", "Entries re-keyed as they surfaced",
            per_heap(lambda heap: heap.rekeys), labelnames=("heap",))
        registry.counter(
            "ssd_mgr_heap_compactions_total", "Rebuilds that shed garbage",
            per_heap(lambda heap: heap.compactions), labelnames=("heap",))
        registry.gauge("ssd_used_frames", "Occupied SSD frames",
                       lambda: self.used_frames)
        registry.gauge("ssd_dirty_frames", "Dirty (newer-than-disk) SSD frames",
                       lambda: self.dirty_frames)
        registry.gauge("ssd_dirty_fraction",
                       "Dirty frames / SSD capacity (LC's lambda gauge)",
                       lambda: self.dirty_fraction)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _heaps(self) -> Dict[str, LazyMinHeap]:
        """The design's victim heaps, by their ``heap`` metric label."""
        return {"clean": self.clean_heap, "dirty": self.dirty_heap}

    @property
    def used_frames(self) -> int:
        """Occupied SSD frames."""
        return self.table.used_count

    @property
    def admission_fill_level(self) -> int:
        """Occupancy the admission fill phase (§3.3.2, τ·S) compares to.

        For the in-place designs every occupied frame is a cached page,
        so this is just :attr:`used_frames`.  LS overrides it with its
        valid-entry count: dead log entries awaiting tail reclaim are
        reclaimable space, not cached pages, and counting them would end
        the aggressive-fill phase while the cache is still half empty.
        """
        return self.used_frames

    @property
    def dirty_frames(self) -> int:
        """Dirty (newer-than-disk) SSD frames."""
        return self.table.dirty_count

    @property
    def dirty_fraction(self) -> float:
        """Dirty frames as a fraction of SSD capacity (LC's λ gauge)."""
        if self.config.ssd_frames == 0:
            return 0.0
        return self.table.dirty_count / self.config.ssd_frames

    def contains_valid(self, page_id: int) -> bool:
        """Whether the SSD holds a valid copy of ``page_id``."""
        return self.table.lookup_valid(page_id) is not None

    def contains_newer(self, page_id: int) -> bool:
        """SSD copy strictly newer than the disk copy (LC only)."""
        record = self.table.lookup_valid(page_id)
        return (record is not None
                and record.version > self.disk.disk_version(page_id))

    def oldest_dirty_rec_lsn(self) -> Optional[int]:
        """Smallest recovery LSN among dirty SSD pages (None if clean).

        Fuzzy checkpoints may not truncate the log past this point: the
        dirty SSD pages' updates exist only in the SSD and the log.
        """
        lsns = [r.rec_lsn for r in self.table.occupied_records()
                if r.valid and r.dirty]
        return min(lsns) if lsns else None

    def _throttled(self) -> bool:
        """True while optional SSD I/Os should be skipped (§3.3.2)."""
        return self.device.pending > self.config.throttle_limit

    def _checkpointing(self) -> bool:
        """True while a sharp checkpoint is flushing (§3.2)."""
        return self.bp is not None and self.bp.checkpoint_active

    def _disk_write(self, page_id: int, version: int, ctx):
        """Process step: one random page write to the database.

        Returns the disk manager's own generator, so a ``yield from``
        here costs no frame of its own."""
        return self.disk.write(page_id, version, sequential=False, ctx=ctx)

    # ------------------------------------------------------------------
    # Fault-hardened device access
    # ------------------------------------------------------------------

    def _ssd_io(self, submit, must: bool = False,
                fault: Optional[IoFault] = None):
        """Process step: one SSD I/O, retried as :func:`~repro.faults
        .errors.retry_io` says.

        ``submit`` is a zero-argument callable returning a fresh device
        event; ``fault`` is what a first attempt the caller already made
        failed with.  Returns True on success, and says why it gave up:
        None when the device died, False when an optional I/O
        (``must=False``) ran out of retries.  A *must* I/O guards the
        only newest copy of a page: it never gives up on transients,
        because falling back to disk would surface stale data; only
        device death stops it, and then degradation redo restores the
        page from the log.
        """
        if fault is None:
            try:
                yield submit()
                return True
            except IoFault as failure:
                fault = failure
        fault = yield from retry_io(self.env, fault, submit, must,
                                    self._note_retry)
        if fault is None:
            return True
        if isinstance(fault, DeviceDeadError):
            self._note_device_dead()
            return None
        self.stats.io_failures += 1
        return False

    def _note_retry(self, attempt: int) -> None:
        self.stats.io_retries += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "io_retry", "fault", "faults",
                {"device": self.device.name, "attempt": attempt})

    def _ssd_read_frame(self, frame_no: int, must: bool = False, ctx=None):
        """Process step: read one SSD frame; True on success, else as
        :meth:`_ssd_io` gave up.

        The device event is yielded as it is: a read that does not fail
        — all of them, without an injector — builds no retry loop."""
        try:
            yield self.device.read(frame_no, 1, random=True, ctx=ctx)
            return True
        except IoFault as fault:
            return (yield from self._ssd_io(
                lambda: self.device.read(frame_no, 1, random=True, ctx=ctx),
                must, fault))

    def _ssd_write_frame(self, record: SsdRecord, page_id: int, version: int,
                         ctx=None, random=True, unclaim=None):
        """Process step: write ``record``'s frame; True if it landed.

        SSD writes are always optional — the caller keeps (or falls back
        to) the disk copy when the write is abandoned — but then the
        record must not claim an image that never reached the SSD: it is
        dropped (or ``unclaim``ed), unless it was invalidated or reused
        while the failed write and its retries ran."""
        frame_no = record.frame_no
        try:
            yield self.device.write(frame_no, 1, random=random, ctx=ctx)
            return True
        except IoFault as fault:
            if (yield from self._ssd_io(
                    lambda: self.device.write(frame_no, 1, random=random,
                                              ctx=ctx), fault=fault)):
                return True
        if record.holds(page_id, version):
            (unclaim or self._drop_record)(record)
        return False

    def _note_device_dead(self) -> None:
        """The SSD reported permanent death: start degradation once."""
        if not self.detached:
            self.env.spawn(self.detach())

    def _await_detach(self):
        """Process step: wait until an in-progress detach has finished."""
        if not self._detach_complete.triggered:
            yield self._detach_complete

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def try_read(self, page_id: int, ctx=None):
        """Process step: serve a buffer-pool miss from the SSD if possible.

        Returns the page version read, or None to fall back to disk
        (page absent, SSD throttled and the disk copy is just as new, or
        the SSD has been detached after a device failure).
        """
        if self.detached:
            # During an in-progress detach the disk may not yet hold the
            # newest version (LC redo in flight): wait it out, then fall
            # back to the now-authoritative disk.
            yield from self._await_detach()
            return None
        record = self.table.lookup_valid(page_id)
        if record is None:
            return None
        if self._throttled() and (
                record.version <= self.disk.disk_version(page_id)):
            self.stats.declined_throttle += 1
            return None
        return (yield from self._read_record(record, ctx=ctx))

    def _read_record(self, record: SsdRecord, ctx=None):
        version = record.version
        self.stats.reads += 1
        record.record_access(self.env.now)
        self._reheap(record)
        must = version > self.disk.disk_version(record.page_id)
        ok = yield from self._ssd_read_frame(record.frame_no, must=must,
                                             ctx=ctx)
        if ok:
            return version
        if ok is None:
            # The device died.  Degradation redo writes any newer-than-
            # disk copy back to disk before completing, so after the
            # detach the caller's disk fallback reads fresh data.
            yield from self._await_detach()
        # Else an optional read ran out of retries: the disk copy is as
        # new, and no detach is coming to wait for.
        return None

    def _reheap(self, record: SsdRecord) -> None:
        if not record.valid:
            return
        (self.dirty_heap if record.dirty else self.clean_heap).push(record)

    # ------------------------------------------------------------------
    # Caching (shared by the eviction hooks)
    # ------------------------------------------------------------------

    def _cache_guard(self, existing: Optional[SsdRecord], version: int,
                     dirty: bool) -> Optional[bool]:
        """What every layout checks before it places a page image.

        ``existing`` is the page's valid record, if any.  Returns True
        (the identical copy is already cached), False (declined), or
        None: go on and place the page.
        """
        if existing is not None and (existing.version == version
                                     and existing.dirty == dirty):
            existing.record_access(self.env.now)
            self._reheap(existing)
            return True
        if self.detached:
            return False
        if self._throttled():
            # Decline *before* touching the existing record: dropping a
            # valid copy and then refusing to replace it would destroy
            # data the throttle was only meant to defer.
            self.stats.declined_throttle += 1
            if existing is not None:
                self.stats.throttle_preserved += 1
            return False
        return None

    def _cache_page(self, page_id: int, version: int, dirty: bool,
                    rec_lsn: int = 0, ctx=None):
        """Process step: write one page image into the SSD buffer pool.

        Returns True if cached.  Handles the already-cached case, the
        throttle, frame allocation, and replacement.  ``rec_lsn`` is the
        recovery LSN carried by a dirty page (fuzzy checkpoints truncate
        the log against the oldest one; the conservative default of 0
        blocks truncation entirely until the page is cleaned).
        """
        existing = self.table.lookup(page_id)
        settled = self._cache_guard(
            existing if existing is not None and existing.valid else None,
            version, dirty)
        if settled is not None:
            return settled
        if existing is not None:
            # Valid or (logically invalidated, TAC) not: it gives way.
            self._drop_record(existing)
        record = self.table.take_free() or self._evict_for_space()
        if record is None:
            return False
        return (yield from self._place(record, page_id, version, dirty,
                                       rec_lsn, ctx))

    def _evict_for_space(self, victims: Optional[LazyMinHeap] = None
                         ) -> Optional[SsdRecord]:
        """The frame a new page takes when none is free: the replacement
        victim's — LRU-2 over the clean pages unless the design names
        another heap.  None when nothing can be replaced."""
        victim = (self.clean_heap if victims is None else victims).pop()
        if victim is None:
            return None
        self.stats.evictions += 1
        self.table.release(victim)
        return self.table.take_free()

    def _place(self, record: SsdRecord, page_id: int, version: int,
               dirty: bool, rec_lsn: int = 0, ctx=None, random: bool = True):
        """Bind the free frame ``record`` to a page image — the tail
        every layout's placement ends in.  Returns the process step that
        writes it (no frame of its own): True if the image landed."""
        self.table.install(record, page_id, version, dirty, self.env.now,
                           rec_lsn=rec_lsn)
        self._file(record)
        self.stats.writes += 1
        if self._tracer.enabled:
            self._tracer.instant("admit", "ssd", "ssd_manager",
                                 {"page": page_id, "dirty": dirty})
        return self._ssd_write_frame(record, page_id, version, ctx, random)

    def _file(self, record: SsdRecord) -> None:
        """File a freshly bound record with the replacement policy."""
        self._reheap(record)

    def _drop_record(self, record: SsdRecord) -> None:
        """Physically free a record and its frame."""
        self.clean_heap.remove(record)
        self.dirty_heap.remove(record)
        self.table.release(record)

    def _invalidate_record(self, record: SsdRecord) -> None:
        """The cached copy went stale: free the frame.

        The paper's designs invalidate physically; TAC and LS override
        this to mark the record and keep the frame."""
        self._drop_record(record)

    # ------------------------------------------------------------------
    # Buffer-pool hooks (overridden per design)
    # ------------------------------------------------------------------

    def on_read_from_disk(self, frame: Frame) -> None:
        """Called after a page is read from disk into the pool (TAC hook)."""

    def on_evict_clean(self, frame: Frame):
        """Process step: a clean page leaves the pool.

        All three of the paper's designs cache qualifying clean pages at
        this point; if the SSD already holds the identical copy nothing
        is written.
        """
        if self.detached:
            # Degraded to noSSD.  A clean frame can still be newer than
            # disk (it was read from an SSD copy the degradation redo is
            # flushing, or already flushed); a redundant disk write is
            # monotone-safe and keeps this path self-contained.
            if frame.version > self.disk.disk_version(frame.page_id):
                yield from self._disk_write(frame.page_id, frame.version,
                                            EVICTION_CTX)
            return
        existing = self.table.lookup_valid(frame.page_id)
        if existing is not None:
            # Figure 3 invariant: a page valid in memory and the SSD has
            # equal versions (dirtying would have invalidated the copy).
            assert existing.version == frame.version, (
                f"SSD copy v{existing.version} != memory v{frame.version} "
                f"for clean page {frame.page_id}")
            existing.record_access(self.env.now)
            self._reheap(existing)
            return
        if self.admission.qualifies(frame, self.admission_fill_level):
            # A clean frame can still be *newer than disk*: under LC a
            # page whose only up-to-date copy lived in the SSD is read
            # back clean.  Re-caching it as clean would strand the newest
            # version where neither the cleaner nor a checkpoint flushes
            # it, losing it once the log truncates — so it re-enters the
            # SSD dirty.
            dirty = frame.version > self.disk.disk_version(frame.page_id)
            cached = yield from self._cache_page(frame.page_id,
                                                 frame.version, dirty=dirty,
                                                 ctx=EVICTION_CTX)
            if dirty and not cached:
                # Couldn't re-cache (throttle/full): the newest copy must
                # not be dropped — write it to disk instead.
                yield from self._disk_write(frame.page_id, frame.version,
                                            EVICTION_CTX)
            if dirty and cached:
                self._after_dirty_cached()
        elif frame.version > self.disk.disk_version(frame.page_id):
            yield from self._disk_write(frame.page_id, frame.version,
                                        EVICTION_CTX)

    def on_evict_dirty(self, frame: Frame):
        """Process step: a dirty page leaves the pool — the one decision
        the designs differ in (§2.3)."""
        raise NotImplementedError

    def _evict_write_back(self, frame: Frame):
        """Process step: the write-back answer to a dirty eviction.

        Cache the page in the SSD alone; returns True if that happened.
        Otherwise the page goes to disk, counted as a fallback: when
        admission rejects it, while a checkpoint is in progress (§3.2:
        no new dirty page is cached then, or the checkpoint's flush of
        the SSD would chase a moving target), when the SSD is throttled
        or detached, or when no frame can be reclaimed.
        """
        if not self._checkpointing() and self.admission.qualifies(
                frame, self.admission_fill_level):
            cached = yield from self._cache_page(
                frame.page_id, frame.version, dirty=True,
                rec_lsn=max(0, frame.rec_lsn), ctx=EVICTION_CTX)
            if cached:
                return True
        self.stats.fallback_disk_writes += 1
        yield from self._disk_write(frame.page_id, frame.version,
                                    EVICTION_CTX)
        return False

    def _write_through(self, frame: Frame, ctx, ssd_write=None):
        """The write-through answer: ``frame`` goes to disk and, beside
        it, through ``ssd_write`` (the design's SSD half, a process
        step) if there is one.  Returns the event to wait for: both
        complete (the paper's "synchronize dirty page writes")."""
        disk_write = self._disk_write(frame.page_id, frame.version, ctx)
        if not ssd_write:
            return self.env.process(disk_write)
        return self.env.gather([disk_write, ssd_write])

    def _copy_back(self, record: SsdRecord, page_id: int, version: int,
                   ctx=CLEANER_CTX):
        """Process step: copy one newest-copy SSD page back to disk.

        SSD -> memory -> disk (§3.3.5: pages cannot move directly).  The
        read is a *must* read: this is the only non-log copy of the
        version.  ``page_id`` and ``version`` are what the caller
        captured before yielding.  Returns True when the disk write
        landed.
        """
        ok = yield from self._ssd_read_frame(record.frame_no, must=True,
                                             ctx=ctx)
        if not ok:
            return False
        try:
            yield from self._disk_write(page_id, version, ctx)
        except IoFault:
            return False
        # Mark clean only if the record still describes what we wrote —
        # it may have been superseded, invalidated or reused mid-flight.
        if record.dirty and record.holds(page_id, version):
            self._mark_clean(record)
        return True

    def _mark_clean(self, record: SsdRecord) -> None:
        """The record's version is on disk: it is a replacement victim
        like any clean page."""
        self.table.set_dirty(record, False)
        self.clean_heap.push(record)

    def _after_dirty_cached(self) -> None:
        """A dirty page entered the SSD: it may have crossed λ."""
        if self._cleaner is not None:
            self._cleaner()

    def start_cleaner(self) -> None:
        """Hook: launch background maintenance, if the design has any.

        LC runs a lazy-cleaning thread, LS that and a tail reclaimer;
        the other designs have nothing to start.  Idempotent everywhere.
        """

    # ------------------------------------------------------------------
    # Maintenance loops (cleaners, reclaimers, checkpoint drains)
    # ------------------------------------------------------------------

    def _drain(self, pending: Callable[[], bool], round_: Round,
               stalled: Stalled = None,
               wait_detach: bool = False) -> Generator[Any, Any, None]:
        """Process step: run ``round_`` while work is ``pending()``.

        After a round without progress the count of consecutive ones is
        handed to ``stalled`` and the drain backs off 1 ms.  Foreground
        drains raise, background loops never give up: the default is
        :meth:`_give_up` — someone waits for this drain (a checkpoint
        about to cut the log, an admission batch) and a hang would be
        silent — while :meth:`_start_background` passes
        :meth:`_keep_trying`.  SSD death ends the drain, after the
        detach if ``wait_detach``: its redo makes the dirty pages
        durable, which is all a checkpoint needs, so wait, don't race.
        """
        empty_rounds = 0
        while pending():
            if self.detached:
                if wait_detach:
                    yield from self._await_detach()
                return
            if (yield from round_()):
                empty_rounds = 0
                continue
            empty_rounds += 1
            (stalled or self._give_up)(empty_rounds)
            yield self.env.timeout(0.001)

    def _give_up(self, empty_rounds: int, what: str = "checkpoint drain",
                 state: str = "") -> None:
        """The default ``stalled``: fail loudly at ``_STALL_LIMIT``."""
        if empty_rounds >= self._STALL_LIMIT:
            raise RuntimeError(
                f"{what} stalled: {empty_rounds} rounds without progress, "
                f"{state or f'dirty_count={self.table.dirty_count}'}")

    @staticmethod
    def _keep_trying(empty_rounds: int) -> None:
        """The ``stalled`` of a loop nobody waits for: back off, retry."""

    def _start_background(self, over: Callable[[], bool],
                          pending: Callable[[], bool], round_: Round,
                          stalled: Stalled = None) -> Callable[[], None]:
        """Spawn a maintenance loop: asleep until ``over()``, then
        draining while ``pending()``, until the SSD dies.  Returns its
        wake-up call: the loop arms a fresh event each time it goes to
        sleep, the call triggers the armed event at most once, and only
        while there is work."""
        wakeup = self.env.event()

        def loop() -> Generator[Any, Any, None]:
            nonlocal wakeup
            while not self.detached:
                if not over():
                    wakeup = self.env.event()
                    yield wakeup
                yield from self._drain(pending, round_,
                                       stalled or self._keep_trying)

        def wake() -> None:
            if not wakeup.triggered and over():
                wakeup.succeed()

        self.env.spawn(loop())
        return wake

    def _start_lambda_cleaner(self, round_: Round,
                              stalled: Stalled = None) -> None:
        """§3.3.5's policy with the design's own ``round_``: wake when
        the dirty frames exceed λ·S, drain until slightly below it
        (``clean_slack``)."""
        table, config = self.table, self.config
        self._cleaner = self._start_background(
            lambda: table.dirty_count > config.dirty_limit_frames,
            lambda: table.dirty_count > config.clean_target_frames,
            round_, stalled)

    def admission_flush_hint(self) -> None:
        """Hook: the buffer pool's eviction pressure has drained.

        Batching designs (LS) close and flush any partially filled
        admission batch here instead of waiting out the batch timeout;
        everyone else ignores it.
        """

    def invalidate(self, page_id: int) -> None:
        """A buffered page was dirtied: its SSD copy is stale (§2.2)."""
        record = self.table.lookup(page_id)
        if record is not None and record.valid:
            self.stats.invalidations += 1
            self._invalidate_record(record)

    # ------------------------------------------------------------------
    # Multi-page trimming (§3.3.3)
    # ------------------------------------------------------------------

    def trim_plan(self, wanted: Sequence[int]) -> TrimPlan:
        """Plan a multi-page read: trim SSD-resident edges, keep one run."""
        if not wanted:
            return TrimPlan()
        ssd_pages: List[int] = []
        lo, hi = 0, len(wanted) - 1
        while lo <= hi and self.contains_valid(wanted[lo]):
            ssd_pages.append(wanted[lo])
            lo += 1
        while hi >= lo and self.contains_valid(wanted[hi]):
            ssd_pages.append(wanted[hi])
            hi -= 1
        if lo > hi:
            return TrimPlan(ssd_pages=ssd_pages)
        # Middle pages whose SSD copy is newer than disk must come from
        # the SSD; their stale disk copies are read (one contiguous I/O is
        # cheaper) but discarded.
        skip = frozenset(
            pid for pid in wanted[lo:hi + 1] if self.contains_newer(pid))
        ssd_pages.extend(skip)
        return TrimPlan(disk_start=wanted[lo],
                        disk_count=wanted[hi] - wanted[lo] + 1,
                        ssd_pages=ssd_pages, skip_in_run=skip)

    # ------------------------------------------------------------------
    # Checkpoint / restart hooks
    # ------------------------------------------------------------------

    def checkpoint_write(self, frame: Frame):
        """Process step: flush one dirty buffer-pool page at a checkpoint.

        Default (noSSD/CW/LC/TAC): write to disk only.  DW overrides to
        also prime the SSD (§3.2).
        """
        yield from self._disk_write(frame.page_id, frame.version,
                                    CHECKPOINT_CTX)

    def on_checkpoint(self):
        """Process step: flush every dirty SSD page to disk (§3.2).

        The log is truncated when this returns, so it drains until the
        table holds no dirty record — pages that turned dirty while it
        ran included.  Designs that never cache a dirty page fall
        straight through.
        """
        return self._drain(lambda: self.table.dirty_count > 0,
                           self._checkpoint_round, wait_detach=True)

    def _checkpoint_round(self):
        """Process step: one wave of up to ``cleaner_concurrency``
        copy-backs off a table scan; returns the pages made clean."""
        progressed = 0
        wave = []
        for record in self.table.occupied_records():
            if not (record.valid and record.dirty):
                continue
            if record.version > self.disk.disk_version(record.page_id):
                wave.append(self._copy_back(record, record.page_id,
                                            record.version,
                                            ctx=CHECKPOINT_CTX))
            else:
                # Disk already has this version: clean by fiat.
                self._mark_clean(record)
                progressed += 1
            if progressed + len(wave) >= self.config.cleaner_concurrency:
                break
        if wave:
            landed = sum((yield self.env.gather(wave)))
            progressed += landed
            self.stats.checkpoint_ssd_flushes += landed
        return progressed

    # ------------------------------------------------------------------
    # Graceful degradation on SSD death (§2.4)
    # ------------------------------------------------------------------

    def detach(self, reason: str = "ssd_failure"):
        """Process step: drop the SSD from service and continue as noSSD.

        For CW/DW/TAC every committed page version already exists on
        disk, so detaching is just forgetting the mapping.  Designs whose
        SSD can hold the *only* newest copy of a page (LC, and the
        related-work exclusive/rotating caches) must first make those
        versions durable on disk — :meth:`_pre_detach` forces the WAL and
        redoes them from the log, or raises :class:`RecoveryError` if the
        log was truncated past them (the §3.2 sharp-checkpoint
        correctness argument, machine-checked).

        Concurrent callers (every I/O that observes the death) coalesce
        onto one detach; later callers wait for its completion.
        """
        if self.detached:
            yield from self._await_detach()
            return
        self.detached = True
        started = self.env.now
        dropped = self.used_frames
        try:
            yield from self._pre_detach()
        finally:
            # Complete the detach even when _pre_detach raises (log
            # truncated past a dirty page): waiters must not hang while
            # the RecoveryError propagates.
            self._clear_ssd_state()
            if self._tracer.enabled:
                self._tracer.instant(
                    "ssd_detached", "fault", "faults",
                    {"reason": reason, "dropped_frames": dropped,
                     "redo_pages": self.stats.detach_redo_pages})
            self._detach_complete.succeed()

    def _pre_detach(self):
        """Process step: make SSD-only page versions durable on disk.

        Any valid dirty record newer than disk holds the only non-log
        copy of its version.  The WAL is forced, then each such page is
        redone to disk from the durable log in concurrent waves.  If the
        log no longer covers one of them (truncated by a checkpoint that
        should have flushed the page first), committed data is gone and
        :class:`RecoveryError` is raised.
        """
        targets = [(r.page_id, r.version) for r in self.table.occupied_records()
                   if r.valid and r.dirty
                   and r.version > self.disk.disk_version(r.page_id)]
        if not targets:
            return
        yield from self.wal.force(self.wal.tail_lsn, ctx=RECOVERY_CTX)
        durable: dict = {}
        for rec in self.wal.records_since(-1):
            if rec.page_id >= 0 and rec.version > durable.get(rec.page_id, -1):
                durable[rec.page_id] = rec.version
        lost = [(pid, v) for pid, v in targets if durable.get(pid, -1) < v]
        if lost:
            raise RecoveryError(
                f"SSD died holding the only copy of {len(lost)} dirty "
                f"pages whose log records were truncated, "
                f"e.g. {lost[:5]}: cannot degrade without losing "
                f"committed data")
        started = self.env.now
        for wave_start in range(0, len(targets), DEGRADE_BATCH):
            wave = targets[wave_start:wave_start + DEGRADE_BATCH]
            yield self.env.gather(
                self._disk_write(pid, version, RECOVERY_CTX)
                for pid, version in wave)
            self.stats.detach_redo_pages += len(wave)
        if self._tracer.enabled:
            self._tracer.complete("degrade_redo", started, self.env.now,
                                  "fault", "faults",
                                  {"pages": len(targets)})

    def _clear_ssd_state(self) -> None:
        """Forget the mapping (detach / cold restart)."""
        self.table.clear()
        for heap in self._heaps().values():
            heap.clear()

    # ------------------------------------------------------------------
    # Crash / restart hooks
    # ------------------------------------------------------------------

    def crash_reset(self) -> None:
        """A power failure.  The SSD's *content* survives; what of the
        mapping does is the design's :meth:`_survive_crash`.  The event
        wipe killed any in-flight detach and the background loops with
        the rest of the world, so what they owned is rebuilt and the
        loops start again — unless the SSD is gone: a detached SSD stays
        detached across the crash (the device is still dead) and there
        is nothing to clean."""
        self._survive_crash()
        self._reset_transients()
        if self.detached:
            self._detach_complete.succeed()
        else:
            self.start_cleaner()

    def _survive_crash(self) -> None:
        """What of the mapping a crash leaves.  The paper's designs keep
        it only in RAM, so a cold restart finds nothing (§6); the
        warm-restart extension keeps the clean valid frames, filed as
        they were."""
        if not self.config.warm_restart:
            self._clear_ssd_state()
            return
        for record in list(self.table.occupied_records()):
            if not record.valid or record.dirty:
                self._drop_record(record)

    def _reset_transients(self) -> None:
        """What only running processes give meaning to, built for the
        constructor and rebuilt by :meth:`crash_reset`: the event an
        in-flight detach's waiters sit on, and the λ cleaner's wake-up
        call, set once :meth:`start_cleaner` ran (LC, LS)."""
        self._detach_complete = self.env.event()
        self._cleaner: Optional[Callable[[], None]] = None

    def on_restart(self) -> None:
        """After redo, the one restart rule: a surviving entry whose
        version equals the disk's is a clean hit (if it says dirty — a
        replayed log entry may — it is cleaned); any other goes the way
        the design invalidates.  Torn writes and uncommitted versions
        differ from the redone disk and die here, which is what makes
        keeping them across the crash safe."""
        for record in list(self.table.occupied_records()):
            if not record.valid:
                continue
            if record.version != self.disk.disk_version(record.page_id):
                self._invalidate_record(record)
            elif record.dirty:
                self._mark_clean(record)

    # ------------------------------------------------------------------
    # Invariant checking (Figure 3), used by the property tests
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the Figure 3 page-copy relationships hold right now,
        and that the table's tallies and the heaps' filing are exact."""
        self.table.check_invariants()
        for heap in self._heaps().values():
            heap.check_invariants()
        for record in self.table.occupied_records():
            if not record.valid:
                continue
            disk_version = self.disk.disk_version(record.page_id)
            if record.dirty:
                assert record.version >= disk_version, (
                    f"dirty SSD copy older than disk: {record!r} "
                    f"vs disk v{disk_version}")
            else:
                assert record.version == disk_version, (
                    f"clean SSD copy differs from disk: {record!r} "
                    f"vs disk v{disk_version}")
            if self.bp is not None:
                frame = self.bp.get_resident(record.page_id)
                if frame is not None:
                    assert frame.version == record.version, (
                        f"memory v{frame.version} != SSD v{record.version} "
                        f"for page {record.page_id}")
