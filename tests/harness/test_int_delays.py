"""Knobs given as ints still work now that their processes yield them.

The periodic checkpointer, the sampler and a fault plan's timed trigger
sleep by yielding their interval or time as a delay (DESIGN.md §13,
"Waits").  The kernel takes an int delay as it takes the float, so a
knob given as an int runs as it did when each sleep built a
``Timeout``.
"""

from repro.core import SsdDesignConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.harness.metrics import Sampler
from repro.harness.system import System, SystemConfig


def _system(checkpoint_interval=None, faults=None):
    return System(SystemConfig(design="LC", db_pages=400, bp_pages=80,
                               ssd=SsdDesignConfig(ssd_frames=200),
                               slack_pages=64,
                               checkpoint_interval=checkpoint_interval),
                  faults=faults)


def test_int_checkpoint_and_sampler_intervals_tick_on_time():
    system = _system(checkpoint_interval=1)
    sampler = Sampler(system, interval=1)
    system.start_services()
    sampler.start()
    system.run(until=3.5)
    assert system.checkpointer.checkpoints_started == 3
    assert [sample.time for sample in sampler.samples] == [0.0, 1.0, 2.0,
                                                           3.0]


def test_an_int_fault_time_fires_at_that_time():
    system = _system(faults=FaultPlan([FaultSpec(kind="ssd_die",
                                                 device="ssd", at=2)]))
    system.run(until=1.999)
    assert not system.ssd_manager.detached
    system.run(until=2.5)
    assert system.ssd_manager.detached
