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

    While a device serves it, the request is also its own timer: the
    device queues it as the payload of an event-queue entry (DESIGN.md
    §13, "I/O life cycle").  The device sets the three slots that takes
    — ``done``, its completion event; ``service``, the seconds a channel
    spends on it; ``callbacks``, what the kernel calls when the entry
    comes up — and drops ``done`` at completion (``done``'s value is the
    request).
    """

    __slots__ = ("kind", "address", "npages", "ctx",
                 "submitted_at", "completed_at", "done", "service",
                 "callbacks")

    def __init__(self, kind: IoKind, address: int, npages: int = 1,
                 ctx: Any = None, submitted_at: Optional[float] = None,
                 completed_at: Optional[float] = None):
        # ``type(...) is int``, not ``isinstance``: no call on the hot
        # path, and a bool is not a page count.  nan fails both.
        if type(npages) is not int or npages < 1:
            raise ValueError(f"npages must be an int >= 1, got {npages!r}")
        if type(address) is not int or address < 0:
            raise ValueError(f"address must be an int >= 0, got {address!r}")
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
