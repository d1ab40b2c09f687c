"""The SSD manager: shared machinery for all designs (Figure 1, §2.2).

The buffer pool calls the SSD manager at five points:

* on a page miss, to try serving the read from the SSD
  (:meth:`start_read`, and :meth:`read_landed` or :meth:`read_failed`
  when its event is processed);
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
one), :meth:`_start_background` (a loop asleep until there is work),
:meth:`_start_lambda_cleaner` (§3.3.5: wake above λ, drain to just
below) and the one round every λ cleaner and every checkpoint runs,
group cleaning (:meth:`_clean_batches`, §3.3.5: α dirty pages with
consecutive disk addresses to one disk write).  A design says its
*decision* (:meth:`on_evict_dirty`, §2.3) and the *frame* a new page
takes (:meth:`_evict_for_space`, or a layout's :meth:`_cache_page`).

Methods documented as *process steps* are generators to be driven with
``yield from``.  The hooks the buffer pool calls return a *step*
(DESIGN.md §13): a generator when the caller must wait, ``()`` when the
work finished at the call — :meth:`on_evict_clean` on a page already
cached or not admitted.  ``yield from`` accepts either, so a caller may
always delegate; the hot ones test the step first.
:meth:`on_evict_dirty` and :meth:`checkpoint_write` always wait, so they
are generators.  A read is a call (DESIGN.md §13, "An SSD read is a
call"): :meth:`start_read` submits it and hands back an :class:`SsdRead`
whose event the caller waits on, or subscribes a completion to.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (Any, Callable, Dict, FrozenSet, Generator, List,
                    Optional, Sequence)

from repro.faults.errors import DeviceDeadError, IoFault, retry_io
from repro.sim import Environment
from repro.core.config import SsdDesignConfig
from repro.core.heaps import LazyMinHeap
from repro.core.ssd_buffer_table import SsdBufferTable, SsdRecord
from repro.engine.checkpoint import FLUSH_BATCH
from repro.engine.disk_manager import DiskManager
from repro.engine.page import Frame
from repro.engine.recovery import RecoveryError
from repro.engine.wal import WriteAheadLog
from repro.storage.request import IoKind, IORequest
from repro.storage.ssd import Ssd
from repro.telemetry import (
    CHECKPOINT_CTX,
    CLEANER_CTX,
    EVICTION_CTX,
    NULL_TELEMETRY,
    RECOVERY_CTX,
)


#: The kind of every SSD page read, bound once: an enum member lookup
#: per read costs more than the global.
RANDOM_READ = IoKind.RANDOM_READ


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


class SsdRead:
    """A read :meth:`SsdManagerBase.start_read` started: the ``event`` to
    wait on, and what :meth:`~SsdManagerBase.read_landed` or
    :meth:`~SsdManagerBase.read_failed` needs when it is processed.

    ``record`` is None when ``event`` is a detach in progress: after it
    the disk holds the newest copy.  Otherwise ``event`` is the device's
    for ``request``, the read of ``record``'s frame, which held
    ``version`` of ``page_id`` at the start; ``must`` says that version
    was newer than disk (its retries never give up).  Hand-slotted for
    the same reason as :class:`TrimPlan`.
    """

    __slots__ = ("event", "record", "page_id", "version", "must", "request")

    def __init__(self, event, record: Optional[SsdRecord], page_id: int,
                 version: int = -1, must: bool = False,
                 request: Optional[IORequest] = None):
        self.event = event
        self.record = record
        self.page_id = page_id
        self.version = version
        self.must = must
        self.request = request


class SsdStats:
    """Cumulative SSD-manager counters.

    Hand-slotted for the same reason as :class:`TrimPlan`; the counter
    set round-trips through :meth:`as_dict` (a run's record keeps it
    and a reused run restores it with ``SsdStats(**...)``).
    """

    __slots__ = (
        "reads",              # pages served from the SSD
        "writes",             # pages written to the SSD
        "declined_throttle",  # optional SSD I/Os skipped (μ)
        "invalidations",      # SSD copies invalidated on page dirty
        "evictions",          # SSD frames reclaimed by replacement
        "fallback_disk_writes",   # dirty evictions LC sent to disk
        "cleaner_pages",      # pages the cleaners wrote back
        "cleaner_ios",        # disk I/Os the cleaners issued
        "checkpoint_ssd_flushes",  # dirty SSD pages flushed at checkpoints
        "missed_dirty_writes",    # TAC: page dirtied before its SSD write
        "lambda_crossings",   # upward crossings of the λ threshold
        "io_retries",         # SSD I/Os retried after transient faults
        "io_failures",        # SSD I/Os abandoned (budget/device death)
        "throttle_preserved",  # copies kept through a declined admit
        "detach_redo_pages",  # dirty pages redone to disk at SSD death
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
        "env", "device", "disk", "wal", "config", "table",
        "stats", "bp", "clean_heap", "dirty_heap", "detached",
        "_detach_complete", "telemetry", "_tracer", "_cleaner",
        "_above_lambda", "_cleaning_pages",
    )

    #: Name used in figures and reports; subclasses override.
    name = "base"

    #: Consecutive no-progress drain rounds before failing loudly.
    _STALL_LIMIT = 64

    def __init__(self, env: Environment, device: Ssd, disk: DiskManager,
                 wal: WriteAheadLog, config: Optional[SsdDesignConfig] = None,
                 telemetry=None):
        self.env = env
        self.device = device
        self.disk = disk
        self.wal = wal
        self.config = config or SsdDesignConfig()
        self.table = SsdBufferTable(self.config.ssd_frames,
                                    self.config.ls_segment_pages)
        self.stats = SsdStats()
        #: Set by the system wiring; lets designs see checkpoint state.
        self.bp = None
        # LRU-2: a record's priority is its penultimate access time.
        self.clean_heap = LazyMinHeap(
            key=attrgetter("prev_access"),
            member=lambda r: r.valid and not r.dirty,
            clock=self.table.next_stamp, touched=True)
        self.dirty_heap = LazyMinHeap(
            key=attrgetter("prev_access"), member=lambda r: r.valid and r.dirty,
            clock=self.table.next_stamp, touched=True)
        #: True once the SSD has been dropped from service (device death,
        #: §2.4 degradation): the design continues as noSSD.
        self.detached = False
        self._reset_transients()
        self.telemetry = telemetry or NULL_TELEMETRY
        self._tracer = self.telemetry.tracer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def heaps(self) -> Dict[str, LazyMinHeap]:
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

    def _qualifies(self, frame: Frame) -> bool:
        """Should the evicted page ``frame`` be cached in the SSD?

        The SSD only pays off for pages the disks would serve with
        *random* I/O, so a page qualifies iff it entered the pool by a
        random read, not by read-ahead (§2.2) — except that from a cold
        start every page does until the SSD is τ full (aggressive
        filling, §3.3.1).  The paper's alternative signal, the 64-page
        window heuristic, is scored by the admission ablation
        (:class:`~repro.engine.readahead.WindowClassifier`).
        """
        config = self.config
        return config.ssd_frames > 0 and (
            self.admission_fill_level < config.fill_target_frames
            or not frame.sequential)

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

    # ------------------------------------------------------------------
    # Fault-hardened device access
    # ------------------------------------------------------------------

    def _ssd_io(self, request: IORequest, must: bool = False,
                fault: Optional[IoFault] = None):
        """Process step: one SSD I/O, retried as :func:`~repro.faults
        .errors.retry_io` says.

        Every attempt submits ``request`` itself; ``fault`` is what a
        first attempt the caller already made failed with.  Returns True
        on success, and says why it gave up: None when the device died,
        False when an optional I/O (``must=False``) ran out of retries.
        A *must* I/O guards the only newest copy of a page: it never
        gives up on transients, because falling back to disk would
        surface stale data; only device death stops it, and then
        degradation redo restores the page from the log.
        """
        if fault is None:
            try:
                yield self.device.submit(request)
                return True
            except IoFault as failure:
                fault = failure
        fault = yield from retry_io(
            fault, lambda: self.device.submit(request), must,
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
        request = IORequest(RANDOM_READ, frame_no, 1, ctx)
        try:
            yield self.device.submit(request)
            return True
        except IoFault as fault:
            return (yield from self._ssd_io(request, must, fault))

    def _ssd_write_frame(self, record: SsdRecord, page_id: int, version: int,
                         ctx=None, kind: IoKind = IoKind.RANDOM_WRITE,
                         unclaim=None):
        """Process step: write ``record``'s frame as a ``kind`` I/O; True
        if it landed.

        SSD writes are always optional — the caller keeps (or falls back
        to) the disk copy when the write is abandoned — but then the
        record must not claim an image that never reached the SSD: it is
        dropped (or ``unclaim``ed), unless it was invalidated or reused
        while the failed write and its retries ran."""
        request = IORequest(kind, record.frame_no, 1, ctx)
        try:
            yield self.device.submit(request)
            return True
        except IoFault as fault:
            if (yield from self._ssd_io(request, fault=fault)):
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

    def start_read(self, page_id: int, ctx=None) -> Optional[SsdRead]:
        """Serve a buffer-pool miss from the SSD if possible: a call.

        None when the SSD cannot serve it: the page is absent, the SSD
        is throttled and the disk copy is just as new, or the SSD was
        detached and the detach is over.  A detach in progress is handed
        back as the :class:`SsdRead` to wait out: the disk may not yet
        hold the newest version (LC redo in flight).  Otherwise the read
        is counted, stamped as an access and submitted, and its event is
        the device's.
        """
        if self.detached:
            done = self._detach_complete
            return None if done.triggered else SsdRead(done, None, page_id)
        record = self.table.lookup_valid(page_id)
        if record is None:
            return None
        version = record.version
        must = version > self.disk.disk_version(page_id)
        stats = self.stats
        if not must and self.device.pending > self.config.throttle_limit:
            stats.declined_throttle += 1  # the throttle (§3.3.2)
            return None
        stats.reads += 1
        record.prev_access = record.last_access  # record_access, inlined
        record.last_access = self.env._now
        record.lru_stamp = self.table.next_stamp()
        request = IORequest(RANDOM_READ, record.frame_no, 1, ctx)
        return SsdRead(self.device.submit(request), record, page_id, version,
                       must, request)

    def read_landed(self, read: SsdRead) -> Optional[int]:
        """``read``'s event succeeded: the version it brought in, or None
        to fall back to disk (it was a detach, waited out).  The hook a
        design acts in when a read lands (EXCL drops the copy)."""
        return None if read.record is None else read.version

    def read_failed(self, read: SsdRead, fault: IoFault):
        """Process step: ``read``'s event failed with ``fault``.  Retried
        as :meth:`_ssd_io` says; the version read, or None to fall back
        to disk."""
        ok = yield from self._ssd_io(read.request, read.must, fault)
        if ok:
            return self.read_landed(read)
        if ok is None:
            # The device died.  Degradation redo writes any newer-than-
            # disk copy back to disk before completing, so after the
            # detach the caller's disk fallback reads fresh data.
            yield from self._await_detach()
        # Else an optional read ran out of retries: the disk copy is as
        # new, and no detach is coming to wait for.
        return None

    def try_read(self, page_id: int, ctx=None):
        """Step: :meth:`start_read` for a caller that waits on the read
        as a process step — the version read, or None to fall back to
        disk; ``()`` when the SSD cannot serve it at the call.  Detached,
        the step waits out the detach, if one is in progress.  The pool
        waits on the event itself; the layer benchmarks and the tests
        read through this."""
        read = self.start_read(page_id, ctx)
        if read is None:
            return self._await_detach() if self.detached else ()
        return self._read_step(read)

    def _read_step(self, read: SsdRead):
        try:
            yield read.event
        except IoFault as fault:
            return (yield from self.read_failed(read, fault))
        return self.read_landed(read)

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
            existing.record_access(self.env.now, self.table.next_stamp())
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
               dirty: bool, rec_lsn: int = 0, ctx=None,
               kind: IoKind = IoKind.RANDOM_WRITE):
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
        return self._ssd_write_frame(record, page_id, version, ctx, kind)

    def _file(self, record: SsdRecord) -> None:
        """File a freshly bound record with the replacement policy; a
        dirty one whose page version a clean batch has in flight is the
        batch's (:meth:`_clean_batch`)."""
        if not record.dirty:
            self.clean_heap.push(record)
        elif self._cleaning_pages.get(record.page_id) != record.version:
            self.dirty_heap.push(record)

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
        """Step: a clean page leaves the pool.

        All three of the paper's designs cache qualifying clean pages at
        this point.  ``()`` when nothing is to be written: the SSD
        already holds the identical copy, or the page does not qualify
        and disk holds its version.
        """
        if self.detached:
            # Degraded to noSSD.  A clean frame can still be newer than
            # disk (it was read from an SSD copy the degradation redo is
            # flushing, or already flushed); a redundant disk write is
            # monotone-safe and keeps this path self-contained.
            if frame.version > self.disk.disk_version(frame.page_id):
                return self.disk.write(frame.page_id, frame.version,
                                       EVICTION_CTX)
            return ()
        existing = self.table.lookup_valid(frame.page_id)
        if existing is not None:
            # Figure 3 invariant: a page valid in memory and the SSD has
            # equal versions (dirtying would have invalidated the copy).
            assert existing.version == frame.version, (
                f"SSD copy v{existing.version} != memory v{frame.version} "
                f"for clean page {frame.page_id}")
            existing.prev_access = existing.last_access  # record_access
            existing.last_access = self.env._now
            existing.lru_stamp = self.table.next_stamp()
            return ()
        if self._qualifies(frame):
            return self._cache_evicted(frame)
        if frame.version > self.disk.disk_version(frame.page_id):
            return self.disk.write(frame.page_id, frame.version,
                                   EVICTION_CTX)
        return ()

    def _cache_evicted(self, frame: Frame):
        """Process step: cache the qualifying clean page ``frame``.

        A clean frame can still be *newer than disk*: under LC a page
        whose only up-to-date copy lived in the SSD is read back clean.
        Re-caching it as clean would strand the newest version where
        neither the cleaner nor a checkpoint flushes it, losing it once
        the log truncates — so it re-enters the SSD dirty.
        """
        dirty = frame.version > self.disk.disk_version(frame.page_id)
        cached = yield from self._cache_page(frame.page_id, frame.version,
                                             dirty=dirty, ctx=EVICTION_CTX)
        if dirty and not cached:
            # Couldn't re-cache (throttle/full): the newest copy must
            # not be dropped — write it to disk instead.
            yield from self.disk.write(frame.page_id, frame.version,
                                       EVICTION_CTX)
        if dirty and cached:
            self._after_dirty_cached()

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
        if not self._checkpointing() and self._qualifies(frame):
            cached = yield from self._cache_page(
                frame.page_id, frame.version, dirty=True,
                rec_lsn=max(0, frame.rec_lsn), ctx=EVICTION_CTX)
            if cached:
                return True
        self.stats.fallback_disk_writes += 1
        yield from self.disk.write(frame.page_id, frame.version,
                                   EVICTION_CTX)
        return False

    def _write_through(self, frame: Frame, ctx, ssd_write=None):
        """The write-through answer: ``frame`` goes to disk and, beside
        it, through ``ssd_write`` (the design's SSD half, a process
        step) if there is one.  Returns the event to wait for: both
        complete (the paper's "synchronize dirty page writes")."""
        disk_write = self.disk.write(frame.page_id, frame.version, ctx)
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
            yield from self.disk.write(page_id, version, ctx)
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
        self.dirty_heap.take_in(record)
        self.table.set_dirty(record, False)
        self.clean_heap.push(record)

    def _after_dirty_cached(self) -> None:
        """A dirty page entered the SSD: it may have crossed λ."""
        self._note_lambda()
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
            yield 0.001

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

    def _start_lambda_cleaner(self) -> None:
        """§3.3.5's policy: wake when the dirty frames exceed λ·S, drain
        by group cleaning until slightly below it (``clean_slack``)."""
        table, config = self.table, self.config
        self._cleaner = self._start_background(
            lambda: table.dirty_count > config.dirty_limit_frames,
            lambda: table.dirty_count > config.clean_target_frames,
            self._clean_round, self._note_drain_stall)

    def _note_lambda(self) -> None:
        """Record crossings of λ (in either direction) as trace instants;
        only a design with a λ cleaner has a λ to cross."""
        above = (self._cleaner is not None
                 and self.table.dirty_count > self.config.dirty_limit_frames)
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
    # Group cleaning (§3.3.5): the round of every cleaner and checkpoint
    # ------------------------------------------------------------------

    def _clean_round(self):
        """Process step: the λ cleaner's round.  Several group batches in
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
        first = group[0].page_id
        # The batch owns these page versions until it lands: they left
        # the dirty heap, no other batch takes them (_dirty_record), an
        # access only stamps them (_mark_clean counts it), and a record
        # that comes to hold one mid-flight is not filed (_file).
        claims = {record.page_id: record.version for record in group}
        self._cleaning_pages.update(claims)
        try:
            # SSD -> memory: one read per page (they are scattered on the
            # SSD).  These are transfer reads, not page accesses: the
            # LRU-2 history of the records must not be touched.
            landed = all((yield self.env.gather(
                self._ssd_read_frame(record.frame_no, ctx=CLEANER_CTX)
                for record in group)))
            if landed:
                try:
                    yield from self.disk.write_run(
                        first, list(claims.values()), ctx=CLEANER_CTX)
                except IoFault:
                    landed = False
        finally:
            for page_id, version in claims.items():
                # A newer version may be another batch's now.
                if self._cleaning_pages.get(page_id) == version:
                    del self._cleaning_pages[page_id]
        for page_id, version in claims.items():
            # The page's record now, if it still holds the version
            # claimed: the page may have been invalidated (re-dirtied in
            # the pool), or its entry moved (LS relocation), while the
            # I/O was in flight.
            record = self._dirty_record(page_id)
            if record is not None and record.version == version:
                if landed:
                    self._mark_clean(record)
                else:
                    # A read failed past the retry budget, the device
                    # died or the disk write was abandoned: nothing was
                    # transferred.  The record goes back to the heap for
                    # a later attempt (or for the detach redo), and the
                    # round reports no progress.
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
        """``page_id``'s valid dirty record, unless a batch holds it."""
        record = self.table.lookup_valid(page_id)
        return (record if record is not None and record.dirty
                and page_id not in self._cleaning_pages else None)

    def _note_drain_stall(self, empty_rounds: int) -> None:
        """The ``stalled`` of every group-cleaning drain.

        Empty rounds are legitimate while batches hold records in flight
        (``_cleaning_pages``) or fail and re-file them.  Dirty records
        with an empty dirty heap and *nothing* in flight break the rule
        :meth:`check_invariants` asserts: no round can take them, so the
        drain fails loudly rather than spin.
        """
        if (self.table.dirty_count and not self._cleaning_pages
                and not self.dirty_heap.live_count):
            raise RuntimeError(
                f"{self.name} drain stalled: "
                f"dirty_count={self.table.dirty_count} but the dirty heap "
                f"is empty and no batch is in flight — heap/table desync")
        self._give_up(empty_rounds, f"{self.name} drain",
                      f"{len(self._cleaning_pages)} transfers in flight")

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
        lookup = self.table.lookup_valid
        lo, hi = 0, len(wanted) - 1
        while lo <= hi and lookup(wanted[lo]) is not None:
            ssd_pages.append(wanted[lo])
            lo += 1
        while hi >= lo and lookup(wanted[hi]) is not None:
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
        yield from self.disk.write(frame.page_id, frame.version,
                                   CHECKPOINT_CTX)

    def on_checkpoint(self):
        """Process step: flush every dirty SSD page to disk (§3.2), by
        the cleaner's group batches (§3.3.5), α pages to a disk write.

        The log is truncated when this returns, so it first lands what
        the design staged outside the table, then drains until the
        table holds no dirty record — pages that turned dirty while it
        ran included.  Designs that never cache a dirty page fall
        straight through.
        """
        yield from self._land_staged()
        yield from self._drain(lambda: self.table.dirty_count > 0,
                               self._checkpoint_round,
                               self._note_drain_stall, wait_detach=True)

    def _land_staged(self):
        """Step: land admissions staged outside the table (LS's
        group-commit batches); ``()`` for a design that stages none."""
        return ()

    def _checkpoint_round(self):
        """Process step: the checkpoint's round, ``cleaner_concurrency``
        group batches whose pages count as checkpoint flushes."""
        cleaned = yield from self._clean_batches(
            self.config.cleaner_concurrency)
        self.stats.checkpoint_ssd_flushes += cleaned
        return cleaned

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
        durable = self.wal.redo_set(-1)
        lost = [(pid, v) for pid, v in targets if durable.get(pid, -1) < v]
        if lost:
            raise RecoveryError(
                f"SSD died holding the only copy of {len(lost)} dirty "
                f"pages whose log records were truncated, "
                f"e.g. {lost[:5]}: cannot degrade without losing "
                f"committed data")
        started = self.env.now
        for wave_start in range(0, len(targets), FLUSH_BATCH):
            wave = targets[wave_start:wave_start + FLUSH_BATCH]
            yield self.env.gather(
                self.disk.write(pid, version, RECOVERY_CTX)
                for pid, version in wave)
            self.stats.detach_redo_pages += len(wave)
        if self._tracer.enabled:
            self._tracer.complete("degrade_redo", started, self.env.now,
                                  "fault", "faults",
                                  {"pages": len(targets)})

    def _clear_ssd_state(self) -> None:
        """Forget the mapping (detach / cold restart)."""
        self.table.clear()
        for heap in self.heaps().values():
            heap.clear()

    # ------------------------------------------------------------------
    # Crash / restart hooks
    # ------------------------------------------------------------------

    def crash_reset(self) -> None:
        """A power failure.  The SSD's *content* survives; what of the
        mapping does is the design's :meth:`_survive_crash`.  The event
        wipe killed any in-flight detach and the background loops with
        the rest of the world, so what they owned is rebuilt; the loops
        start again from :meth:`on_restart`.  A detached SSD stays
        detached across the crash (the device is still dead)."""
        self._survive_crash()
        self._reset_transients()
        if self.detached:
            self._detach_complete.succeed()

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
        in-flight detach's waiters sit on, the λ cleaner's wake-up call,
        set once :meth:`start_cleaner` ran (LC, LS), which side of λ it
        last saw, and the frames group batches have in flight."""
        self._detach_complete = self.env.event()
        self._cleaner: Optional[Callable[[], None]] = None
        self._above_lambda = False
        #: Page → the version a group batch has in flight: the valid
        #: dirty record holding it is the batch's, not the dirty heap's.
        self._cleaning_pages: Dict[int, int] = {}

    def on_restart(self) -> None:
        """After redo, the one restart rule: a surviving entry whose
        version equals the disk's is a clean hit (if it says dirty — a
        replayed log entry may — it is cleaned); any other goes the way
        the design invalidates.  Torn writes and uncommitted versions
        differ from the redone disk and die here, which is what makes
        keeping them across the crash safe.  Only then do the
        background loops start: no dirty entry is left for them."""
        for record in list(self.table.occupied_records()):
            if not record.valid:
                continue
            if record.version != self.disk.disk_version(record.page_id):
                self._invalidate_record(record)
            elif record.dirty:
                self._mark_clean(record)
        if not self.detached:
            self.start_cleaner()

    # ------------------------------------------------------------------
    # Invariant checking (Figure 3), used by the property tests
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the Figure 3 page-copy relationships hold right now,
        that the table's tallies and the heaps' filing are exact, and
        that every valid dirty record has one owner: the dirty heap, or
        the group batch that has its page version in flight."""
        self.table.check_invariants()
        for heap in self.heaps().values():
            heap.check_invariants()
        for record in self.table.occupied_records():
            if not record.valid:
                continue
            disk_version = self.disk.disk_version(record.page_id)
            if record.dirty:
                assert record.version >= disk_version, (
                    f"dirty SSD copy older than disk: {record!r} "
                    f"vs disk v{disk_version}")
                assert record in self.dirty_heap or self._cleaning_pages.get(
                    record.page_id) == record.version, (
                    f"dirty record neither filed nor in flight: {record!r}")
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
