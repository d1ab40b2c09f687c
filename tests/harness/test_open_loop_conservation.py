"""Open-loop conservation: every offered arrival is accounted for.

At the end of a traffic run each tenant's arrivals were shed, completed,
are still in the admission queue, or are in service; at most one
transaction per worker is in service.  So ``offered - shed - completed
- queued`` lies in ``[0, nworkers]`` for every tenant.  Checked on both
kernels, with the partition latch free and modeled, on a load that
sheds, leaves a queue and keeps every worker busy at the end.
"""

import pytest

from repro.harness import runner as runner_module
from repro.harness.experiments import RunSpec
from repro.sim.resources import Store
from tests.conftest import run_on_kernel

#: Past what eight workers serve: the queue fills and sheds.
TENANTS = ("gold=poisson:rate=4000:theta=0.6;"
           "noisy=bursty:rate=3000:burst=10:theta=0.99")
WORKERS = 8


@pytest.mark.parametrize("latch_us", [0.0, 20.0])
@pytest.mark.parametrize("kernel", ["heap", "wheel"])
def test_offered_arrivals_are_shed_completed_queued_or_in_service(
        kernel, latch_us, monkeypatch):
    queues = []

    class SeenStore(Store):
        __slots__ = ()

        def __init__(self, env):
            super().__init__(env)
            queues.append(self)

    monkeypatch.setattr(runner_module, "Store", SeenStore)
    result = run_on_kernel(kernel, RunSpec(
        kind="traffic", benchmark="tpcc", scale=20, design="LC",
        tenants=TENANTS, duration=1.3, profile="tiny", nworkers=WORKERS,
        queue_limit=40, partitions=16, latch_us=latch_us))
    queue, = queues
    in_service = 0
    for index, (name, tenant) in enumerate(result.tenants.items()):
        queued = sum(1 for item in queue.items if item[0] == index)
        left = tenant.offered - tenant.shed - tenant.completed - queued
        assert 0 <= left <= WORKERS, (name, tenant.offered, tenant.shed,
                                      tenant.completed, queued)
        in_service += left
    assert in_service <= WORKERS
    # The load exercises every term.
    assert all(t.shed > 0 and t.completed > 0
               for t in result.tenants.values())
    assert queue.items and in_service > 0
