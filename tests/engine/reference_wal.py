"""The list-of-records ``WriteAheadLog`` of commit c745d70, kept as a
reference.

``repro.engine.wal.WriteAheadLog`` keeps its records in packed columns;
this is the log it replaced, verbatim but for its name and two changes
the packed log made at the same time: ``crash_reset`` drops the records
the crash left unflushed and hands their LSNs out again (the old one
kept them, and the next force made them durable), and ``redo_set`` —
the packed log's one reader — is the loop recovery ran over
``records_since``.  One ``LogRecord`` tuple per append in a Python list,
``truncate`` rebuilding the list and ``records_since`` filtering it:
what recovery may redo is defined by this class;
``tests/engine/test_wal_equivalence.py`` runs random scripts against
both and demands the same answers at every step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.faults.errors import IoFault, retry_io
from repro.sim import Environment, Event
from repro.storage.hdd import HddArray
from repro.storage.request import IoKind, IORequest
from repro.telemetry import NULL_TELEMETRY

#: Redo records per 8 KB log page (88-byte records, roughly).
RECORDS_PER_LOG_PAGE = 90


class LogRecord(NamedTuple):
    """A physiological redo record: page ``page_id`` reached ``version``.

    A NamedTuple rather than a frozen dataclass: construction is a
    single C call, which matters at one record per page update (the
    frozen-dataclass ``object.__setattr__`` dance showed up in run
    profiles).
    """

    lsn: int
    page_id: int
    version: int
    txn_id: Optional[int] = None


class ListWriteAheadLog:
    """An append-only redo log on a dedicated log device."""

    def __init__(self, env: Environment, log_device: Optional[HddArray] = None,
                 telemetry=None):
        self.env = env
        self.device = log_device or HddArray(env, ndisks=1, name="log-disk")
        self.records: List[LogRecord] = []
        self.flushed_lsn = -1
        self._next_lsn = 0
        self._truncated = 0  # records dropped by checkpoint truncation
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

    def append(self, page_id: int, version: int,
               txn_id: Optional[int] = None) -> int:
        """Append a redo record to the in-memory log tail; returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        self.records.append(LogRecord(lsn, page_id, version, txn_id))
        return lsn

    def records_since(self, lsn: int) -> List[LogRecord]:
        """All durable records with LSN > ``lsn`` (for recovery redo)."""
        return [r for r in self.records if lsn < r.lsn <= self.flushed_lsn]

    def redo_set(self, after_lsn: int) -> Dict[int, int]:
        """Page id -> newest durable version past ``after_lsn``."""
        redo: Dict[int, int] = {}
        for record in self.records_since(after_lsn):
            if record.page_id < 0:
                continue  # checkpoint marker, not a page update
            if record.version > redo.get(record.page_id, -1):
                redo[record.page_id] = record.version
        return redo

    def truncate(self, lsn: int) -> None:
        """Discard records with LSN <= ``lsn`` (checkpoint completed)."""
        keep = [r for r in self.records if r.lsn > lsn]
        self._truncated += len(self.records) - len(keep)
        self.records = keep

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
        """Volatile flush state is lost in a crash.

        Durable state — ``records``/``flushed_lsn``/the write head —
        survives; both forcer groups and the flusher flag belong to wiped
        processes and must be dropped so post-recovery forces start a
        fresh flusher and never join the flush the crash cut short.

        Group commit is two shared events: forcers the flush in flight
        covers (LSN <= ``_flushing_lsn``, its target) wait on
        ``_flushing``, everyone else on ``_next``, which the following
        flush takes over.
        """
        self.records = [r for r in self.records if r.lsn <= self.flushed_lsn]
        # Truncated LSNs are not handed out again.
        self._next_lsn = max(self.flushed_lsn + 1, self._truncated)
        self._flushing: Optional[Event] = None
        self._flushing_lsn = self.flushed_lsn
        self._next = Event(self.env)
        self._flusher_running = False
