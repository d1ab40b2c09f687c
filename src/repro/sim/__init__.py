"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event simulator in the
style of SimPy.  Every other subsystem in :mod:`repro` — the storage device
models, the buffer manager's asynchronous I/O, the lazy-cleaning thread,
checkpointing — runs as processes on this kernel, so all reported times and
throughputs are *virtual* time, independent of the host machine.

Public API::

    env = Environment()
    def worker(env):
        yield 5                        # sleep: a delay in virtual seconds
        yield env.timeout(1)           # wait on an event
        return "done"
    proc = env.process(worker(env))
    env.run()
    assert env.now == 6 and proc.value == "done"
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Type

from repro.sim.environment import KERNELS, Environment, make_environment
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Gather, Process
from repro.sim.resources import Store

if TYPE_CHECKING:
    from repro.sim.wheel import WheelEnvironment


def __getattr__(name: str) -> Type[WheelEnvironment]:
    """``repro.sim.WheelEnvironment``, importing the timer wheel only
    when it is asked for (a heap-kernel run never loads it)."""
    if name == "WheelEnvironment":
        from repro.sim.wheel import WheelEnvironment
        return WheelEnvironment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Gather",
    "KERNELS",
    "Process",
    "Store",
    "Timeout",
    "make_environment",
]
