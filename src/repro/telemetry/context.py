"""Request-scoped trace context: who caused this event?

A :class:`TraceContext` travels with a unit of work — a workload
transaction, or a background activity like the LC cleaner — down
through the buffer pool, the SSD managers, the WAL, and the device
queues.  Every trace event recorded along the way carries the context's
fields in its ``args``, so the analysis layer
(:mod:`repro.telemetry.analysis`) can group events by transaction and
attribute tail latency to the component waits that produced it.

Two flavours share the class:

* **transaction contexts** (``txn_id`` set) are created per workload
  transaction and tag events with ``{"txn": id, "txn_type": kind}``;
* **background contexts** (``txn_id`` None) are module singletons —
  :data:`EVICTION_CTX`, :data:`CLEANER_CTX`, :data:`CHECKPOINT_CTX`,
  :data:`ADMISSION_CTX` — and tag events with ``{"origin": kind}``, so
  device time burned by background machinery (the "cleaner
  interference" of the paper's Figure 6/7 discussion) is separable
  from foreground transaction waits.

Contexts are plain data; passing ``ctx=None`` everywhere keeps the
disabled-telemetry hot path allocation-free.
"""

from __future__ import annotations

from typing import Optional


class TraceContext:
    """Identifies the transaction (or background activity) causing work."""

    __slots__ = ("txn_id", "kind", "tenant")

    def __init__(self, txn_id: Optional[int], kind: str,
                 tenant: Optional[str] = None):
        self.txn_id = txn_id
        self.kind = kind
        self.tenant = tenant

    @classmethod
    def for_txn(cls, txn_id: int, txn_type: str,
                tenant: Optional[str] = None) -> "TraceContext":
        """Context for one workload transaction."""
        return cls(txn_id, txn_type, tenant)

    @classmethod
    def background(cls, origin: str) -> "TraceContext":
        """Context for background machinery (cleaner, eviction, ...)."""
        return cls(None, origin)

    def to_args(self) -> dict:
        """The key/value pairs merged into a trace event's ``args``.

        ``tenant`` is only emitted when set, so single-tenant traces stay
        byte-identical to those from before the multi-tenant layer.
        """
        if self.txn_id is None:
            return {"origin": self.kind}
        if self.tenant is None:
            return {"txn": self.txn_id, "txn_type": self.kind}
        return {"txn": self.txn_id, "txn_type": self.kind,
                "tenant": self.tenant}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.txn_id is None:
            return f"TraceContext(origin={self.kind!r})"
        return f"TraceContext(txn={self.txn_id}, type={self.kind!r})"


#: Shared background contexts — one per machinery, compared by identity.
EVICTION_CTX = TraceContext.background("eviction")
CLEANER_CTX = TraceContext.background("cleaner")
CHECKPOINT_CTX = TraceContext.background("checkpoint")
ADMISSION_CTX = TraceContext.background("admission")
RECOVERY_CTX = TraceContext.background("recovery")
