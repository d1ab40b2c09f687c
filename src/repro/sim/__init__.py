"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event simulator in the
style of SimPy.  Every other subsystem in :mod:`repro` — the storage device
models, the buffer manager's asynchronous I/O, the lazy-cleaning thread,
checkpointing — runs as processes on this kernel, so all reported times and
throughputs are *virtual* time, independent of the host machine.

Public API::

    env = Environment()
    def worker(env):
        yield env.timeout(5)
        return "done"
    proc = env.process(worker(env))
    env.run()
    assert env.now == 5 and proc.value == "done"
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Gather, Process
from repro.sim.resources import Store
from repro.sim.wheel import (KERNELS, TimerWheel, WheelEnvironment,
                             make_environment)

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Gather",
    "KERNELS",
    "Process",
    "Store",
    "TimerWheel",
    "Timeout",
    "WheelEnvironment",
    "make_environment",
]
