"""Open-loop traffic: seeded arrival processes and multi-tenant specs.

The paper's methodology (and :class:`~repro.harness.runner.WorkloadRunner`)
is *closed-loop*: N clients issue transactions back-to-back, so offered
load is capped by N and can never exceed service capacity.  This module
is the *open-loop* alternative: an arrival process generates transaction
start times at a configured rate regardless of how the system keeps up,
so one run can represent millions of logical users — the user count is
just ``rate × think_time`` — and overload becomes measurable (queue
growth, shed arrivals) instead of impossible.

Three seeded arrival processes cover the shapes ROADMAP item 1 asks for:

* :class:`PoissonArrivals` — memoryless arrivals at a constant rate;
* :class:`BurstyArrivals` — an interrupted-Poisson (on/off) process whose
  on-rate is ``burst`` times its off-rate, normalized so the *long-run
  mean* still equals ``rate``;
* :class:`DiurnalArrivals` — a sinusoidally modulated Poisson process
  (Lewis–Shedler thinning) with a ``peak/trough`` ratio of ``peak``,
  again mean-preserving.

All three are driven by an explicit ``random.Random`` — same seed, same
arrival times, which the determinism tests assert.

A :class:`TenantSpec` pairs an arrival process with a per-tenant Zipf
skew, giving the noisy-neighbor scenario space: tenants share one buffer
pool and one SSD, and the partition knob N (§3.3.4) is the isolation
mechanism under test.  A run sets it as ``RunSpec.partitions``, which
:func:`repro.harness.experiments.system_config` puts on
:attr:`repro.core.SsdDesignConfig.partitions`, the count that shards
both pools; the latch time that makes it matter is ``RunSpec.latch_us``,
put on :attr:`repro.harness.system.SystemConfig.latch_us`.

Spec grammar (CLI ``repro traffic``)::

    arrivals := kind[:key=value]*
    kind     := poisson | bursty | diurnal
    rate     := rate=<arrivals/sec> | users=<count>:think=<seconds>
    tenants  := name=arrivals[:theta=<zipf skew>][;name=arrivals...]

e.g. ``--tenants 'gold=poisson:users=800000:think=100:theta=0.6;
noisy=bursty:rate=300:burst=10:theta=0.99'``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.faults.clauses import number, read_fields

#: Default think time (seconds) used to translate a logical-user count
#: into an arrival rate: ``rate = users / think``.  100 s between
#: transactions is a browsing-user cadence; a million such users offer
#: 10k transactions per second.
DEFAULT_THINK_SECONDS = 100.0


class PoissonArrivals:
    """Memoryless arrivals at a constant ``rate`` per second."""

    def __init__(self, rate: float, users: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = rate
        #: Logical users this rate represents (when spec'd via users=).
        self.users = users

    def times(self, rng: random.Random,
              start: float = 0.0) -> Iterator[float]:
        """Infinite iterator of absolute arrival times."""
        t = start
        while True:
            t += rng.expovariate(self.rate)
            yield t

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self.rate:g})"


class BurstyArrivals:
    """On/off (interrupted Poisson) arrivals with mean ``rate``.

    The process alternates exponentially-long *on* and *off* periods
    (mean durations ``on_fraction * cycle`` and ``(1 - on_fraction) *
    cycle`` seconds).  During *on* periods arrivals are Poisson at
    ``burst`` times the off-period rate; both rates are solved so the
    long-run mean is exactly ``rate``:

        rate_off = rate / (f * burst + 1 - f),   rate_on = burst * rate_off

    so comparisons against :class:`PoissonArrivals` at the same ``rate``
    differ only in burstiness, not in offered volume.
    """

    def __init__(self, rate: float, burst: float = 8.0,
                 on_fraction: float = 0.2, cycle: float = 10.0,
                 users: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if not 0.0 < on_fraction < 1.0:
            raise ValueError(
                f"on_fraction must be in (0, 1), got {on_fraction}")
        if cycle <= 0:
            raise ValueError(f"cycle must be > 0, got {cycle}")
        self.rate = rate
        self.burst = burst
        self.on_fraction = on_fraction
        self.cycle = cycle
        self.users = users
        f = on_fraction
        self.rate_off = rate / (f * burst + 1.0 - f)
        self.rate_on = burst * self.rate_off

    def times(self, rng: random.Random,
              start: float = 0.0) -> Iterator[float]:
        t = start
        mean_on = self.on_fraction * self.cycle
        mean_off = (1.0 - self.on_fraction) * self.cycle
        while True:
            for period_rate, mean_len in ((self.rate_on, mean_on),
                                          (self.rate_off, mean_off)):
                end = t + rng.expovariate(1.0 / mean_len)
                while True:
                    nxt = t + rng.expovariate(period_rate)
                    if nxt >= end:
                        # No arrival before the phase flips; restarting
                        # the exponential in the next phase is exact
                        # (memorylessness).
                        t = end
                        break
                    t = nxt
                    yield t

    def __repr__(self) -> str:
        return (f"BurstyArrivals(rate={self.rate:g}, burst={self.burst:g}, "
                f"on_fraction={self.on_fraction:g}, cycle={self.cycle:g})")


class DiurnalArrivals:
    """Sinusoidal day/night arrival rate with mean ``rate``.

    The instantaneous rate is ``rate * (1 + a * sin(2πt / period))`` with
    ``a = (peak - 1) / (peak + 1)``, so the peak-to-trough ratio is
    exactly ``peak`` and the time-average is ``rate``.  Sampling uses
    Lewis–Shedler thinning against the peak rate, which stays exact for
    any modulation.
    """

    def __init__(self, rate: float, period: float = 86_400.0,
                 peak: float = 3.0, users: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if peak < 1.0:
            raise ValueError(f"peak must be >= 1, got {peak}")
        self.rate = rate
        self.period = period
        self.peak = peak
        self.users = users
        self.amplitude = (peak - 1.0) / (peak + 1.0)
        self.max_rate = rate * (1.0 + self.amplitude)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at absolute time ``t``."""
        return self.rate * (1.0 + self.amplitude
                            * math.sin(2.0 * math.pi * t / self.period))

    def times(self, rng: random.Random,
              start: float = 0.0) -> Iterator[float]:
        t = start
        max_rate = self.max_rate
        while True:
            t += rng.expovariate(max_rate)
            if rng.random() * max_rate <= self.rate_at(t):
                yield t

    def __repr__(self) -> str:
        return (f"DiurnalArrivals(rate={self.rate:g}, "
                f"period={self.period:g}, peak={self.peak:g})")


#: kind name -> (class, {extra key: attribute})
_ARRIVAL_KINDS = {
    "poisson": (PoissonArrivals, ()),
    "bursty": (BurstyArrivals, ("burst", "on_fraction", "cycle")),
    "diurnal": (DiurnalArrivals, ("period", "peak")),
}

#: Grammar aliases accepted for constructor keywords.
_KEY_ALIASES = {"on": "on_fraction"}


def _parse_fields(parts: List[str], spec: str) -> Dict[str, float]:
    fields = read_fields(parts, spec, _KEY_ALIASES)
    return {key: number(key, raw, spec) for key, raw in fields.items()}


def parse_arrivals(spec: str):
    """Parse an arrival spec string (see module docstring grammar).

    The offered rate comes from either ``rate=`` or the pair
    ``users=``/``think=`` (``rate = users / think``; ``think`` defaults
    to :data:`DEFAULT_THINK_SECONDS`).
    """
    parts = [p for p in spec.strip().split(":") if p]
    if not parts:
        raise ValueError("empty arrival spec")
    kind = parts[0].strip().lower()
    if kind not in _ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival kind {kind!r}; "
                         f"choose from {sorted(_ARRIVAL_KINDS)}")
    fields = _parse_fields(parts[1:], spec)
    users = fields.pop("users", None)
    think = fields.pop("think", None)
    rate = fields.pop("rate", None)
    if think is not None and think <= 0:
        raise ValueError(f"think must be positive in {spec!r}, got {think:g}")
    if rate is None:
        if users is None:
            raise ValueError(
                f"arrival spec {spec!r} needs rate= or users= (+think=)")
        rate = users / (think if think is not None else DEFAULT_THINK_SECONDS)
    elif users is None:
        users = rate * (think if think is not None else DEFAULT_THINK_SECONDS)
    cls, allowed = _ARRIVAL_KINDS[kind]
    unknown = set(fields) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown field(s) {sorted(unknown)} for {kind!r} in {spec!r}")
    return cls(rate, users=users, **fields)


@dataclass
class TenantSpec:
    """One tenant of an open-loop run: who arrives, how often, how skewed.

    ``theta`` is the tenant's Zipf skew over the shared database (None =
    the workload's default); it is what makes one tenant a "noisy
    neighbor" — a high-theta tenant hammers a few hot pages, a low-theta
    one sprays the whole working set.
    """

    name: str
    arrivals: object
    theta: Optional[float] = None

    @property
    def logical_users(self) -> float:
        """Logical users this tenant represents (rate × think time)."""
        users = getattr(self.arrivals, "users", None)
        if users is not None:
            return users
        return self.arrivals.rate * DEFAULT_THINK_SECONDS


def parse_tenants(spec: str) -> List[TenantSpec]:
    """Parse a ``;``-separated multi-tenant spec (see module grammar)."""
    tenants: List[TenantSpec] = []
    seen = set()
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, rest = chunk.partition("=")
        name = name.strip()
        if not eq or not name or "=" in name or ":" in name:
            raise ValueError(
                f"bad tenant spec {chunk!r} (want name=arrivals[:theta=...])")
        if name in seen:
            raise ValueError(f"duplicate tenant name {name!r}")
        seen.add(name)
        # The parts parse_arrivals reads; a ``theta=`` part may stand
        # anywhere after the arrival kind, and is the tenant's.
        kind, *fields = [part for part in rest.strip().split(":")
                         if part] or [""]
        skew = [part for part in fields
                if part.partition("=")[0].strip() == "theta"]
        try:
            theta = _parse_fields(skew, rest).get("theta")
            if theta is not None and theta <= 0:
                raise ValueError(f"'theta' in {rest!r} must be > 0")
            arrivals = parse_arrivals(":".join(
                [kind] + [part for part in fields if part not in skew]))
        except ValueError as error:
            raise ValueError(f"tenant {name!r}: {error}") from None
        tenants.append(TenantSpec(name=name, arrivals=arrivals, theta=theta))
    if not tenants:
        raise ValueError(f"no tenants in spec {spec!r}")
    return tenants


__all__ = [
    "DEFAULT_THINK_SECONDS",
    "BurstyArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "TenantSpec",
    "parse_arrivals",
    "parse_tenants",
]
