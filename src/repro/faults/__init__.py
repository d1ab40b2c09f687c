"""Seeded, deterministic fault injection over the storage layer.

Layered over :mod:`repro.storage` devices: a :class:`FaultPlan` parsed
from the CLI (``--faults ssd_die@t=30,transient:p=0.001``) attaches
:class:`FaultInjector` instances to a system's devices and schedules
transient I/O errors, latency spikes, stall windows, and whole-SSD
death.  The exceptions and the retry step live in :mod:`repro.faults
.errors` so that upstream error handling can import them cheaply.
"""

from repro.faults.errors import (
    RETRY_BASE_DELAY,
    RETRY_LIMIT,
    RETRY_MAX_DELAY,
    DeviceDeadError,
    IoFault,
    TransientIoError,
    retry_io,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "DeviceDeadError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "IoFault",
    "TransientIoError",
    "RETRY_BASE_DELAY",
    "RETRY_LIMIT",
    "RETRY_MAX_DELAY",
    "retry_io",
]
