"""Fault plans: a parseable schedule of injected failures.

A plan is a comma-separated list of clauses, each a fault kind followed
by ``@t=<seconds>`` / ``:key=value`` parameters::

    ssd_die@t=30                    whole-SSD death at t=30
    transient:p=0.001               0.1% of I/Os fail transiently (all devices)
    transient:p=0.01:device=ssd     ... on the SSD only
    latency:p=0.005:x=20            0.5% of I/Os are 20x stragglers
    log_stall@t=10:dur=2            the log device freezes for 2 s at t=10
    disk_stall@t=10:dur=2           ... the data volume
    ssd_stall@t=10:dur=2            ... the SSD
    gc_stall@t=10:dur=0.5           forced GC burst + SSD freeze (FTL runs)
    ssd_chan_die@t=30:n=2           2 of the SSD's channels fail at t=30

``FaultPlan.parse("ssd_die@t=30,transient:p=0.001")`` builds the plan;
:meth:`FaultPlan.install` attaches one seeded :class:`~repro.faults
.injector.FaultInjector` per targeted device of a
:class:`~repro.harness.system.System` and spawns the timer processes
that trigger the scheduled faults.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Generator, List, Optional,
                    Set, Tuple)

from repro.faults.clauses import number, read_fields
from repro.faults.injector import FaultInjector

if TYPE_CHECKING:
    from repro.harness.system import System
    from repro.sim import Environment

#: Known fault kinds and the parameters each accepts.
_KINDS: Dict[str, Set[str]] = {
    "transient": {"p", "device"},
    "latency": {"p", "x", "device"},
    "ssd_die": {"t"},
    "log_stall": {"t", "dur"},
    "disk_stall": {"t", "dur"},
    "ssd_stall": {"t", "dur"},
    "gc_stall": {"t", "dur"},
    "ssd_chan_die": {"t", "n"},
}
_DEVICES: Tuple[str, ...] = ("disk", "ssd", "log")
_STALL_DEVICE: Dict[str, str] = {"log_stall": "log", "disk_stall": "disk",
                                 "ssd_stall": "ssd"}


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault clause."""

    kind: str
    device: str = "all"          # disk | ssd | log | all
    p: float = 0.0               # per-I/O probability (transient/latency)
    factor: float = 10.0         # latency inflation (latency:x=)
    at: Optional[float] = None   # trigger time (ssd_die/.._stall:@t=)
    duration: float = 1.0        # stall window length (.._stall:dur=)
    count: int = 1               # failing channel count (ssd_chan_die:n=)


class FaultPlan:
    """A schedule of faults, installable onto a running system."""

    def __init__(self, specs: List[FaultSpec], seed: int = 20110612) -> None:
        self.specs = list(specs)
        self.seed = seed
        #: Populated by :meth:`install`: device role -> injector.
        self.injectors: Dict[str, FaultInjector] = {}

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str, seed: int = 20110612) -> "FaultPlan":
        """Parse a plan string (see the module docstring for the grammar)."""
        specs: List[FaultSpec] = []
        for clause in text.split(","):
            clause = clause.strip()
            if not clause:
                continue
            specs.append(cls._parse_clause(clause))
        return cls(specs, seed=seed)

    @staticmethod
    def _parse_clause(clause: str) -> FaultSpec:
        kind, *parts = clause.replace("@", ":").split(":")
        kind = kind.strip()
        if kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {clause!r}; "
                f"choose from {sorted(_KINDS)}")
        params = {key: raw.strip()
                  for key, raw in read_fields(parts, clause).items()}
        for key in params:
            if key not in _KINDS[kind]:
                raise ValueError(
                    f"fault {kind!r} does not take {key!r} "
                    f"(accepts {sorted(_KINDS[kind])})")

        def value(key: str, default: float, low: float,
                  high: float = math.inf, whole: bool = False) -> float:
            """``key``'s number, or ``default`` when not given."""
            return (number(key, params[key], clause, low, high, whole)
                    if key in params else default)

        device = params.get("device", "all")
        if device not in _DEVICES + ("all",):
            raise ValueError(
                f"unknown device {device!r} in {clause!r}; "
                f"choose from {_DEVICES + ('all',)}")
        if kind in _STALL_DEVICE:
            device = _STALL_DEVICE[kind]
        elif kind in ("ssd_die", "gc_stall", "ssd_chan_die"):
            device = "ssd"
        if "t" in _KINDS[kind] and "t" not in params:
            raise ValueError(f"fault {kind!r} requires @t=<seconds>")
        return FaultSpec(
            kind=kind, device=device, p=value("p", 0.0, 0.0, 1.0),
            # Below 1 a straggler factor would make the injected delay
            # negative, and shorten a stall it is added to.
            factor=value("x", 10.0, 1.0),
            at=value("t", 0.0, 0.0) if "t" in params else None,
            duration=value("dur", 1.0, 0.0),
            count=int(value("n", 1, 1, whole=True)))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, system: "System") -> Dict[str, FaultInjector]:
        """Attach injectors to ``system``'s devices and arm the timers."""
        env = system.env
        devices = {"disk": system.data_device, "ssd": system.ssd_device,
                   "log": system.wal.device}

        def injector(role: str) -> FaultInjector:
            if role not in self.injectors:
                rng = random.Random(f"{self.seed}:{role}")
                self.injectors[role] = FaultInjector(
                    env, devices[role], rng, telemetry=system.telemetry)
            return self.injectors[role]

        for spec in self.specs:
            roles = (_DEVICES if spec.device == "all" else (spec.device,))
            if spec.kind == "transient":
                for role in roles:
                    injector(role).transient_p = max(
                        injector(role).transient_p, spec.p)
            elif spec.kind == "latency":
                for role in roles:
                    inj = injector(role)
                    inj.latency_p = max(inj.latency_p, spec.p)
                    inj.latency_factor = spec.factor
            else:  # the timed kinds
                assert spec.at is not None  # enforced by _parse_clause
                env.spawn(self._at(env, spec.at, self._act(
                    system, spec, injector(spec.device))))
        return self.injectors

    @staticmethod
    def _at(env: "Environment", at: float,
            act: Callable[[], None]) -> Generator[object, object, None]:
        """Process step: at ``at`` — now, if that is past — ``act()``."""
        if at > env.now:
            yield at - env.now
        act()

    @staticmethod
    def _act(system: "System", spec: FaultSpec,
             injector: FaultInjector) -> Callable[[], None]:
        """What the timed clause ``spec`` does when its time comes."""

        def die() -> None:
            injector.kill()
            # Degradation is the SSD manager's job: detach and continue
            # (or, for LC, redo the dirty SSD pages from the log first).
            system.env.spawn(system.ssd_manager.detach())

        def stall() -> None:
            injector.stall(spec.duration)

        def gc_stall() -> None:
            # A garbage-collection storm: the device freezes while the
            # FTL erases a burst of blocks (forced GC when the model is
            # attached; a plain stall otherwise).
            if system.ssd_device.ftl is not None:
                system.ssd_device.ftl.force_gc()
            stall()

        def chan_die() -> None:
            # Partial failure: ``n`` channels die, slowing the
            # survivors; losing every channel *is* ``ssd_die``.
            if system.ssd_device.fail_channels(spec.count) == 0:
                die()

        return {"ssd_die": die, "gc_stall": gc_stall,
                "ssd_chan_die": chan_die}.get(spec.kind, stall)
