"""Golden traces for the paths the device-I/O rewrite touches.

``tests/engine/test_partitioned_pool.py`` pins LC/TAC/DW closed-loop
traces.  The digests below pin what nothing else does: the TPC-H
read-ahead fan-out, the FTL-backed service-time path under LS, CW's
write-through, and every fault hook (``on_submit``,
``pre_service_delay``, ``on_complete``) firing on a live run.  They were
captured on the generator-per-I/O device (commit 9f77125) with its
source untouched; any shift in same-instant event order moves them.
``run_meta`` events are excluded because they embed the source hash.
"""

import pytest

from repro.harness.experiments import (SCALE_PROFILES, run_oltp_experiment,
                                       run_tpch_experiment)
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


#: name -> (runner, meta-free trace md5, fault events expected).
GOLDEN = {
    "tpch-DW": (_tpch_dw, "1dddedb499bbed8ae718bfc5c80b943a", False),
    "tpcc-LS-ftl": (_tpcc("LS", ftl=True),
                    "439bcd36f1318a2c5ddc6e06e82589e2", False),
    "tpcc-CW": (_tpcc("CW"), "51be8c5e563c5e025d2b5752b8fe1437", False),
    "tpcc-LC-faults": (_tpcc("LC", faults=FAULTS),
                       "038501acb09cfad6e5569b9e95b5254e", True),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_generator_device(name):
    runner, pinned, faulted = GOLDEN[name]
    telemetry = Telemetry()
    runner(telemetry)
    assert telemetry.tracer.dropped == 0
    # A fault plan that never fires would pin nothing about the hooks.
    fault_names = {event.name for event in telemetry.tracer.events
                   if event.cat == "fault"}
    if faulted:
        assert {"fault_transient", "fault_latency",
                "fault_stall"} <= fault_names
    else:
        assert not fault_names
    assert meta_free_trace_md5(telemetry) == pinned
