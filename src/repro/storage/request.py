"""I/O request descriptors shared by all device models."""

from __future__ import annotations

import enum
from typing import Any, Optional

#: Database page size used throughout the reproduction (SQL Server's 8 KB).
PAGE_SIZE_BYTES = 8192


class IoKind(enum.Enum):
    """The four I/O classes the paper's Table 1 distinguishes."""

    RANDOM_READ = ("read", True)
    SEQUENTIAL_READ = ("read", False)
    RANDOM_WRITE = ("write", True)
    SEQUENTIAL_WRITE = ("write", False)

    def __init__(self, direction: str, random: bool):
        self.direction = direction
        self.random = random
        #: Whether this is a read class / a write class.
        self.is_read = direction == "read"
        self.is_write = direction == "write"

    # Identity, like Enum's ``__eq__``: ``Enum.__hash__`` is a Python-level
    # ``hash(self._name_)``, paid by four keyed lookups per device I/O.
    __hash__ = object.__hash__

    @staticmethod
    def of(direction: str, random: bool) -> "IoKind":
        """Build the kind from a direction string and a randomness flag."""
        try:
            return _KIND_OF[(direction, random)]
        except KeyError:
            raise ValueError(f"unknown I/O direction {direction!r}") from None


_KIND_OF = {kind.value: kind for kind in IoKind}


class IORequest:
    """A single I/O against a device.

    ``address`` is a device-local page number (a disk page id for the HDD
    array, an SSD frame number for the SSD); ``npages`` contiguous pages are
    transferred starting there.  ``kind`` carries the random/sequential
    classification, which on real hardware determines whether a seek is
    paid and in this reproduction feeds both the service-time model and the
    SSD admission policy.

    A slotted plain class, not a dataclass: one is allocated per device
    I/O, which makes construction part of the simulator's hot path.
    """

    __slots__ = ("kind", "address", "npages", "ctx",
                 "submitted_at", "completed_at")

    def __init__(self, kind: IoKind, address: int, npages: int = 1,
                 ctx: Any = None, submitted_at: Optional[float] = None,
                 completed_at: Optional[float] = None):
        if npages < 1:
            raise ValueError(f"npages must be >= 1, got {npages}")
        if address < 0:
            raise ValueError(f"address must be >= 0, got {address}")
        self.kind = kind
        self.address = address
        self.npages = npages
        #: Trace context of the transaction (or background activity) that
        #: caused this I/O; carried onto the device's trace events.
        self.ctx = ctx
        #: Filled in by the device at completion time (virtual seconds).
        self.submitted_at = submitted_at
        self.completed_at = completed_at

    def __repr__(self) -> str:
        return (f"IORequest(kind={self.kind!r}, address={self.address}, "
                f"npages={self.npages})")

    @property
    def nbytes(self) -> int:
        """Transfer size in bytes."""
        return self.npages * PAGE_SIZE_BYTES

    @property
    def latency(self) -> float:
        """Queueing + service time, available after completion."""
        if self.submitted_at is None or self.completed_at is None:
            raise ValueError("request has not completed")
        return self.completed_at - self.submitted_at
