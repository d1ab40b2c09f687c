"""Write-ahead log with group commit.

The paper keeps the log on its own dedicated disk, and both the DW and LC
designs "obey the write-ahead logging (WAL) protocol, forcibly flushing the
log records for that page to log storage before writing the page to the
SSD" (§2.4).  This module provides those two operations:

* :meth:`WriteAheadLog.append` — add a redo record, returning its LSN;
* :meth:`WriteAheadLog.force` — a process step that returns once every
  record up to a given LSN is durable, batching concurrent forcers into a
  single sequential write (group commit) so the log disk is not a
  bottleneck, matching the paper's setup.

A redo record is physiological: page ``page_id`` reached ``version``
(``page_id`` -1 marks a fuzzy checkpoint).  The log is the one piece of
state that grows with every update, so it keeps its records as two
packed ``array('q')`` columns — 16 bytes a record, against ~150 for a
tuple in a list — and a record's LSN is its index plus
:attr:`WriteAheadLog.first_lsn`.  :meth:`WriteAheadLog.redo_set` is the
one reader.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from repro.faults.errors import IoFault, retry_io
from repro.sim import Environment, Event
from repro.storage.hdd import HddArray
from repro.storage.request import IoKind, IORequest
from repro.telemetry import NULL_TELEMETRY

#: Redo records per 8 KB log page (88-byte records, roughly).
RECORDS_PER_LOG_PAGE = 90


class WriteAheadLog:
    """An append-only redo log on a dedicated log device."""

    def __init__(self, env: Environment, log_device: Optional[HddArray] = None,
                 telemetry=None):
        self.env = env
        self.device = log_device or HddArray(env, ndisks=1, name="log-disk")
        #: The redo records, one column per field: the record with LSN
        #: ``first_lsn + i`` is ``(_pages[i], _versions[i])``.
        self._pages = array("q")
        self._versions = array("q")
        #: LSN of the oldest record kept: the count checkpoints truncated.
        self.first_lsn = 0
        self.flushed_lsn = -1
        self._next_lsn = 0
        #: Appended records a crash dropped before they became durable.
        self.records_lost = 0
        self._write_head = 0  # log-device page cursor
        #: Group-commit flushes that became durable, and their log pages.
        #: Not the log device's counters: those also see a failed attempt
        #: (then retried) and split a flush that crosses a stripe boundary.
        self.flushes = 0
        self.pages_flushed = 0
        self.flush_retries = 0
        self.crash_reset()  # the volatile group-commit state starts empty
        self.telemetry = telemetry or NULL_TELEMETRY
        if self.telemetry.enabled:
            self.device.attach_telemetry(self.telemetry)
        self._tracer = self.telemetry.tracer

    @property
    def tail_lsn(self) -> int:
        """LSN of the most recently appended record (-1 if none)."""
        return self._next_lsn - 1

    def append(self, page_id: int, version: int) -> int:
        """Append a redo record to the in-memory log tail; returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        self._pages.append(page_id)
        self._versions.append(version)
        return lsn

    def redo_set(self, after_lsn: int) -> Dict[int, int]:
        """Page id -> newest version among the durable records with LSN >
        ``after_lsn``: what restart recovery and an SSD detach redo.
        Checkpoint markers are skipped."""
        start = max(0, after_lsn + 1 - self.first_lsn)
        stop = max(start, self.flushed_lsn + 1 - self.first_lsn)
        redo: Dict[int, int] = {}
        get = redo.get
        for page_id, version in zip(self._pages[start:stop],
                                    self._versions[start:stop]):
            if page_id >= 0 and version > get(page_id, -1):
                redo[page_id] = version
        return redo

    def truncate(self, lsn: int) -> None:
        """Discard records with LSN <= ``lsn`` (checkpoint completed)."""
        drop = min(lsn + 1, self._next_lsn) - self.first_lsn
        if drop > 0:
            del self._pages[:drop]
            del self._versions[:drop]
            self.first_lsn += drop

    def force(self, lsn: int, ctx=None):
        """Process step: return once records up to ``lsn`` are durable.

        Concurrent forcers are batched: whoever arrives while a flush is in
        flight wakes with it if it covers their LSN and with the next one
        otherwise, in arrival order either way.  The waiter's time is
        recorded as a ``wal_wait`` span under ``ctx`` — the group-commit
        flush I/O itself belongs to the flusher, not to any one waiter.
        """
        if lsn <= self.flushed_lsn:
            return
        if lsn >= self._next_lsn:  # never appended: no flush makes it durable
            raise ValueError(f"forcing LSN {lsn} past the log tail "
                             f"{self.tail_lsn}")
        if lsn <= self._flushing_lsn:
            done = self._flushing
        else:
            done = self._next
            if not self._flusher_running:
                self._flusher_running = True
                self.env.spawn(self._flush_loop())
        started = self.env.now
        yield done
        if self._tracer.enabled:
            self._tracer.complete("wal_wait", started, self.env.now,
                                  "wal", "wal", ctx=ctx)

    def _flush_loop(self):
        while self._next.callbacks:
            self._flushing, self._next = self._next, Event(self.env)
            # Flush everything appended so far.
            self._flushing_lsn = target = self.tail_lsn
            pending = target - self.flushed_lsn
            npages = max(1, -(-pending // RECORDS_PER_LOG_PAGE))
            request = IORequest(IoKind.SEQUENTIAL_WRITE, self._write_head,
                                npages)
            self._write_head += npages
            flush_started = self.env.now
            try:
                yield self.device.submit(request)
            except IoFault as fault:
                yield from self._retry_flush(request, fault)
            self.flushes += 1
            self.pages_flushed += npages
            if self._tracer.enabled:
                self._tracer.complete("flush", flush_started, self.env.now,
                                      "wal", "wal",
                                      {"pages": npages, "records": pending})
            self.flushed_lsn = target
            self._flushing.succeed()
        self._flusher_running = False

    def _retry_flush(self, request: IORequest, fault: IoFault):
        """Process step: the log write failed with ``fault``; submit it
        again as :func:`~repro.faults.errors.retry_io` says.

        A dead log device (or a spent budget) re-raises: with the log
        gone no transaction can commit durably, so the flusher — and
        every forcer this flush covered — must fail loudly rather than
        pretend records became durable.  The records stay in the tail:
        a later force starts a fresh flusher for them.
        """
        def note(attempt: int) -> None:
            self.flush_retries += 1
            if self._tracer.enabled:
                self._tracer.instant(
                    "io_retry", "fault", "faults",
                    {"device": self.device.name, "attempt": attempt})

        fault = yield from retry_io(
            fault, lambda: self.device.submit(request), False, note)
        if fault is not None:
            self._flushing.fail(fault)
            self._flushing_lsn = self.flushed_lsn
            self._flusher_running = False
            raise fault

    def crash_reset(self) -> None:
        """Volatile log state is lost in a crash.

        Durable state — the records through ``flushed_lsn`` and the write
        head — survives.  The tail past it was never written: it goes,
        and its LSNs are handed out again, so no force after the restart
        can make a record durable that no one committed.  Both forcer
        groups and the flusher flag belong to wiped processes and must be
        dropped so post-recovery forces start a fresh flusher and never
        join the flush the crash cut short.

        Group commit is two shared events: forcers the flush in flight
        covers (LSN <= ``_flushing_lsn``, its target) wait on
        ``_flushing``, everyone else on ``_next``, which the following
        flush takes over.
        """
        keep = max(0, self.flushed_lsn + 1 - self.first_lsn)
        self.records_lost += len(self._pages) - keep
        del self._pages[keep:]
        del self._versions[keep:]
        self._next_lsn = self.first_lsn + keep
        self._flushing: Optional[Event] = None
        self._flushing_lsn = self.flushed_lsn
        self._next = Event(self.env)
        self._flusher_running = False

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the columns, the LSN counters
        and the group-commit state agree: LSNs are dense from
        ``first_lsn`` to the tail, ``flushed_lsn`` never runs ahead of
        the tail, and the flush in flight never targets below
        ``flushed_lsn``."""
        retained = self._next_lsn - self.first_lsn
        assert len(self._pages) == len(self._versions) == retained, (
            len(self._pages), len(self._versions), retained)
        assert self.flushed_lsn <= self.tail_lsn, (
            self.flushed_lsn, self.tail_lsn)
        assert self._flushing_lsn >= self.flushed_lsn, (
            self._flushing_lsn, self.flushed_lsn)
