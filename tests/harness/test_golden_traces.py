"""Golden traces for the paths the device-I/O rewrite touches.

``tests/engine/test_partitioned_pool.py`` pins LC/TAC/DW closed-loop
traces.  The digests below pin what nothing else does: the TPC-H
read-ahead fan-out, the FTL-backed service-time path under LS, CW's
write-through, and every fault hook (``on_submit``,
``pre_service_delay``, ``on_complete``) firing on a live run.  They were
captured on the generator-per-I/O device (commit 9f77125) with its
source untouched; any shift in same-instant event order moves them.
``run_meta`` events are excluded because they embed the source hash.

The ``latched-*`` rows run with ``latch_us > 0``, which no other golden
trace does: an open loop of two tenants on the wheel kernel, a closed
LC loop, and TAC under the fault plan.  They were captured at commit
13699ab, before the latch stopped being a generator and the group
commit stopped waking its forcers one event each.
"""

import pytest

from repro.harness.experiments import (SCALE_PROFILES, run_oltp_experiment,
                                       run_tpch_experiment,
                                       run_traffic_experiment)
from repro.telemetry import Telemetry
from tests.conftest import meta_free_trace_md5

TINY = SCALE_PROFILES["tiny"]

FAULTS = "transient:p=0.01,latency:p=0.01:x=5,ssd_stall@t=2:dur=0.2"


def _tpcc(design, **kwargs):
    def run(telemetry):
        run_oltp_experiment("tpcc", 20, design, duration=4.0, profile=TINY,
                            nworkers=4, telemetry=telemetry, **kwargs)
    return run


def _tpch_dw(telemetry):
    run_tpch_experiment(30, "DW", profile=TINY, telemetry=telemetry)


TENANTS = ("gold=poisson:rate=400:theta=0.6;"
           "noisy=bursty:rate=300:burst=10:theta=0.99")


def _latched_open(telemetry):
    run_traffic_experiment("tpcc", 20, "LC", TENANTS, duration=4.0,
                           profile=TINY, nworkers=8, queue_limit=200,
                           partitions=16, latch_us=20.0, kernel="wheel",
                           telemetry=telemetry)


ALL_HOOKS = {"fault_transient", "fault_latency", "fault_stall"}

#: name -> (runner, meta-free trace md5, fault event names expected).  No
#: SSD I/O of the latched TAC run is in flight during the stall window.
GOLDEN = {
    "tpch-DW": (_tpch_dw, "1dddedb499bbed8ae718bfc5c80b943a", set()),
    "tpcc-LS-ftl": (_tpcc("LS", ftl=True),
                    "439bcd36f1318a2c5ddc6e06e82589e2", set()),
    "tpcc-CW": (_tpcc("CW"), "51be8c5e563c5e025d2b5752b8fe1437", set()),
    "tpcc-LC-faults": (_tpcc("LC", faults=FAULTS),
                       "038501acb09cfad6e5569b9e95b5254e", ALL_HOOKS),
    "latched-open-wheel": (_latched_open,
                           "1db8019036e6c245350df1e0225ea602", set()),
    "latched-tpcc-LC": (_tpcc("LC", partitions=4, latch_us=200.0),
                        "9f16475b17a6af2a98a9cc0d8b948082", set()),
    "latched-tpcc-TAC-faults": (_tpcc("TAC", partitions=4, latch_us=50.0,
                                      faults=FAULTS),
                                "0be2cae41d5b5406a7b4b148cdafbf34",
                                ALL_HOOKS - {"fault_stall"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_generator_device(name):
    runner, pinned, hooks = GOLDEN[name]
    telemetry = Telemetry()
    runner(telemetry)
    assert telemetry.tracer.dropped == 0
    # A fault plan that never fires would pin nothing about the hooks.
    fault_names = {event.name for event in telemetry.tracer.events
                   if event.cat == "fault"}
    assert hooks <= fault_names
    assert hooks or not fault_names
    assert meta_free_trace_md5(telemetry) == pinned
