"""Per-device fault injector.

A :class:`FaultInjector` sits beside one :class:`~repro.storage.device
.Device` and is consulted at three points of the request lifecycle:

* :meth:`on_submit` — before the request enters the queue (a dead device
  rejects immediately, without consuming a channel);
* :meth:`pre_service_delay` — once a channel is acquired (latency spikes
  and stall windows add virtual time here);
* :meth:`on_complete` — after the transfer (transient errors and
  mid-flight device death surface here, failing the completion event).

All randomness comes from one seeded :class:`random.Random` per injector
and is drawn in deterministic event order, so a faulted run replays
bit-identically for a given plan + seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.faults.errors import DeviceDeadError, TransientIoError
from repro.telemetry import NULL_TELEMETRY

if TYPE_CHECKING:
    from repro.sim.environment import Environment
    from repro.storage.device import Device
    from repro.storage.request import IORequest
    from repro.telemetry import Telemetry


class FaultInjector:
    """Seeded fault source for a single device."""

    def __init__(self, env: "Environment", device: "Device",
                 rng: Optional[random.Random] = None,
                 telemetry: Optional["Telemetry"] = None) -> None:
        self.env = env
        self.device = device
        self.rng = rng or random.Random(0)
        self.dead = False
        #: Probability that a completed I/O reports a transient error.
        self.transient_p = 0.0
        #: Probability that an I/O is a straggler, and by which factor
        #: its service time is inflated.
        self.latency_p = 0.0
        self.latency_factor = 10.0
        #: Requests acquiring a channel before this instant wait it out
        #: (models firmware GC pauses / a hung controller).
        self.stall_until = 0.0
        self.stats: Dict[str, int] = {}
        telemetry = telemetry or NULL_TELEMETRY
        self._tracer = telemetry.tracer
        device.attach_faults(self)

    def _record(self, kind: str, **args: Any) -> None:
        self.stats[kind] = self.stats.get(kind, 0) + 1
        if self._tracer.enabled:
            self._tracer.instant(f"fault_{kind}", "fault", "faults",
                                 dict(args, device=self.device.name))

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by Device.submit/_start/_finish)
    # ------------------------------------------------------------------

    def on_submit(self, request: "IORequest") -> Optional[Exception]:
        """Reject a request against a dead device (before queueing)."""
        if self.dead:
            self._record("dead_submit")
            return DeviceDeadError(f"{self.device.name} has failed")
        return None

    def pre_service_delay(self, request: "IORequest",
                          service: float) -> float:
        """Extra virtual seconds to wait before serving ``request``."""
        extra = 0.0
        if self.stall_until > self.env.now:
            extra += self.stall_until - self.env.now
            self._record("stall", seconds=round(extra, 6))
        if self.latency_p and self.rng.random() < self.latency_p:
            extra += service * (self.latency_factor - 1.0)
            self._record("latency")
        return extra

    def on_complete(self, request: "IORequest") -> Optional[Exception]:
        """Fault to report instead of a successful completion, if any."""
        if self.dead:
            self._record("dead_inflight")
            return DeviceDeadError(f"{self.device.name} died mid-flight")
        if self.transient_p and self.rng.random() < self.transient_p:
            self._record("transient")
            return TransientIoError(
                f"transient I/O error on {self.device.name}")
        return None

    # ------------------------------------------------------------------
    # Timed fault triggers (driven by FaultPlan processes)
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """The device fails permanently, effective immediately."""
        if not self.dead:
            self.dead = True
            self._record("device_dead")

    def stall(self, duration: float) -> None:
        """Open a stall window: I/Os freeze for ``duration`` seconds."""
        self.stall_until = max(self.stall_until, self.env.now + duration)
