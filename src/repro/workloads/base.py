"""Shared transaction machinery for the workload generators."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.telemetry import NULL_TELEMETRY, TraceContext


class Transaction:
    """Collects a transaction's page operations and commits via the WAL.

    Workload code drives it with ``yield from``::

        txn = Transaction(system)
        yield from txn.read(page_id)
        yield from txn.update(page_id)
        yield from txn.commit()

    ``commit`` forces the log up to the transaction's last record (group
    commit batches concurrent forcers) and, if the workload keeps a
    committed-state oracle, publishes the written versions into it — the
    ground truth the crash-recovery tests verify against.

    When tracing is enabled, the transaction carries a
    :class:`~repro.telemetry.TraceContext` (``txn_type`` names the
    workload's transaction kind) so every wait and I/O it causes is
    attributed to it, and ``commit`` records the transaction's own span
    on the ``txn`` track — ``repro analyze`` reconstructs per-transaction
    waterfalls from these.
    """

    #: Process-global fallback for the bare stand-in objects unit tests
    #: pass as ``system``.  Real :class:`~repro.harness.system.System`
    #: instances allocate through their own ``next_txn_id`` so ids (and
    #: hence traces) restart from 1 on every run, even the second run in
    #: one process.
    _next_id = 0

    def __init__(self, system, oracle: Optional[Dict[int, int]] = None,
                 txn_type: str = "txn", tenant: Optional[str] = None):
        self.system = system
        self.oracle = oracle
        alloc = getattr(system, "next_txn_id", None)
        if alloc is None:
            Transaction._next_id += 1
            self.txn_id = Transaction._next_id
        else:
            self.txn_id = alloc()
        self.txn_type = txn_type
        self.tenant = tenant
        self.last_lsn = -1
        self.writes: List[Tuple[int, int]] = []
        telemetry = getattr(system, "telemetry", NULL_TELEMETRY)
        self._tracer = (telemetry or NULL_TELEMETRY).tracer
        self.ctx: Optional[TraceContext] = None
        if self._tracer.enabled:
            self.ctx = TraceContext.for_txn(self.txn_id, txn_type, tenant)
        # In the simulation a transaction starts executing at the virtual
        # instant it is constructed (no yields in between).
        self._started = self._tracer.now

    def read(self, page_id: int):
        """Process step: read one page (fetch + unpin)."""
        bp = self.system.bp
        if bp._latch_s:
            yield bp.latch(page_id, self.ctx)
        frame = bp.pin_hit(page_id)
        if frame is None:
            frame = yield from bp.fetch(page_id, ctx=self.ctx, latched=True)
        frame.pin_count -= 1
        return frame

    def update(self, page_id: int):
        """Process step: read-modify-write one page."""
        bp = self.system.bp
        if bp._latch_s:
            yield bp.latch(page_id, self.ctx)
        frame = bp.pin_hit(page_id)
        if frame is None:
            frame = yield from bp.fetch(page_id, ctx=self.ctx, latched=True)
        self.last_lsn = bp.mark_dirty(frame, txn_id=self.txn_id)
        self.writes.append((frame.page_id, frame.version))
        frame.pin_count -= 1
        return frame

    def index_lookup(self, tree, key: int):
        """Process step: B+-tree point lookup."""
        frame, leaf = yield from tree._fetch_leaf_frame(
            self.system.bp, key, ctx=self.ctx)
        frame.pin_count -= 1
        return leaf.value_of(key)

    def index_update(self, tree, key: int):
        """Process step: B+-tree in-place update (dirties the leaf)."""
        bp = self.system.bp
        frame, leaf = yield from tree._fetch_leaf_frame(bp, key, ctx=self.ctx)
        self.last_lsn = bp.mark_dirty(frame, txn_id=self.txn_id)
        self.writes.append((frame.page_id, frame.version))
        frame.pin_count -= 1

    def index_insert(self, tree, key: int):
        """Process step: B+-tree insert (may split pages)."""
        inserted = yield from tree.insert(self.system.bp, key,
                                          txn_id=self.txn_id, ctx=self.ctx)
        if inserted:
            self.last_lsn = max(self.last_lsn, self.system.wal.tail_lsn)
        return inserted

    def commit(self):
        """Process step: force the log through this transaction's tail."""
        if self.last_lsn >= 0:
            wal = self.system.wal
            if self.last_lsn > wal.flushed_lsn:
                yield from wal.force(self.last_lsn, ctx=self.ctx)
            if self.oracle is not None:
                for page_id, version in self.writes:
                    if version > self.oracle.get(page_id, -1):
                        self.oracle[page_id] = version
        if self.ctx is not None and self._tracer.enabled:
            self._tracer.complete(self.txn_type, self._started,
                                  self._tracer.now, "txn", "txn",
                                  {"writes": len(self.writes)},
                                  ctx=self.ctx)


class AppendRegion:
    """An append-only heap region (TPC-C's HISTORY, order lines, …).

    Each insert dirties the current tail page; every ``rows_per_page``
    inserts the tail advances, wrapping when the region fills (standing
    in for space reuse so long runs don't exhaust the region).
    """

    def __init__(self, first_page: int, npages: int, rows_per_page: int = 20):
        self.first_page = first_page
        self.npages = npages
        self.rows_per_page = rows_per_page
        self._rows = 0

    @property
    def tail_page(self) -> int:
        """The page the next insert lands on."""
        return self.first_page + (self._rows // self.rows_per_page) % self.npages

    def append(self, txn: Transaction):
        """Process step: insert one row at the tail."""
        page = self.tail_page
        self._rows += 1
        yield from txn.update(page)


def choose_mix(rng: random.Random, mix: List[Tuple[str, float]]) -> str:
    """Pick a transaction type from a (name, weight) mix."""
    point = rng.random()
    cumulative = 0.0
    for name, weight in mix:
        cumulative += weight
        if point < cumulative:
            return name
    return mix[-1][0]
