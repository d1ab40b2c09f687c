"""Seeded, deterministic fault injection over the storage layer.

Layered over :mod:`repro.storage` devices: a
:class:`~repro.faults.plan.FaultPlan` parsed from the CLI (``--faults
ssd_die@t=30,transient:p=0.001``) attaches
:class:`~repro.faults.injector.FaultInjector` instances to a system's
devices and schedules transient I/O errors, latency spikes, stall
windows, and whole-SSD death.  The exceptions and the retry step live
in :mod:`repro.faults.errors` so that upstream error handling can
import them cheaply; they are all this package re-exports, and a run
imports the plan and the injector only when it is given faults.
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

__all__ = [
    "DeviceDeadError",
    "IoFault",
    "TransientIoError",
    "RETRY_BASE_DELAY",
    "RETRY_LIMIT",
    "RETRY_MAX_DELAY",
    "retry_io",
]
