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

``SERVICE_ORDER`` pins what a trace does not show: which drive served
which fragment when, on the data array and the log disk, read through
the public ``device.traffic`` hook.  Captured at commit 254aabe, on the
generator-per-I/O ``HddArray`` (a ``Resource`` per drive, a ``gather``
per request), before it became callbacks.
"""

import hashlib

import pytest

from repro.harness import experiments
from repro.harness.experiments import (SCALE_PROFILES, run_oltp_experiment,
                                       run_tpch_experiment,
                                       run_traffic_experiment)
from repro.storage.device import TrafficRecorder
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


class _ServiceLog(TrafficRecorder):
    """Logs every fragment completion a striped device reports."""

    def __init__(self, device, log):
        super().__init__(bucket_seconds=1.0)
        self.device = device
        self.log = log

    def record(self, when, request):
        self.log.append((when, self.device.name,
                         self.device.disk_of(request.address),
                         request.address, request.npages))


def _busy_tpcc(design, **kwargs):
    # Scale 100: the data array queues (6k reads under noSSD), which the
    # scale-20 rows above, written for the SSD path, never make it do.
    def run(telemetry):
        run_oltp_experiment("tpcc", 100, design, duration=4.0, profile=TINY,
                            nworkers=8, telemetry=telemetry, **kwargs)
    return run


def _busy_tpch_dw(faults=None):
    def run(telemetry):
        experiments.run(
            experiments.RunSpec(kind="tpch", benchmark="tpch", scale=100,
                                design="DW", profile="tiny"),
            telemetry=telemetry, faults=faults)
    return run


#: name -> (runner, md5 of the per-fragment service log plus each
#: device's ``stats.busy_time``).  The tpch-DW rows are where striped
#: multi-fragment reads of concurrent streams interleave on a drive; the
#: faulted rows attach injectors to the data array and the log disk.
SERVICE_ORDER = {
    "tpcc-LC": (_busy_tpcc("LC"), "08b9eb6436fbfc24d91d3b0bdd2cbbac"),
    "tpcc-noSSD": (_busy_tpcc("noSSD"), "c93a3aa2d3438057dfa22a39052f0d6e"),
    "tpch-DW": (_busy_tpch_dw(), "6ca0461d6097d66a60cca37500bb6c77"),
    "tpcc-LC-faults": (_busy_tpcc("LC", faults=FAULTS),
                       "9fead95f8475f4c7c48eec31be111af1"),
    "tpch-DW-faults": (_busy_tpch_dw(FAULTS),
                       "019c91ea30b6bd95200a36f0454ded90"),
}


@pytest.mark.parametrize("name", sorted(SERVICE_ORDER))
def test_per_drive_service_order_matches_generator_hdd(name, monkeypatch):
    runner, pinned = SERVICE_ORDER[name]
    make_system = experiments.make_system
    log, devices = [], []

    def recording_system(*args, **kwargs):
        system = make_system(*args, **kwargs)
        for device in (system.data_device, system.wal.device):
            device.traffic = _ServiceLog(device, log)
            devices.append(device)
        return system

    # run() builds its system through this public factory.
    monkeypatch.setattr(experiments, "make_system", recording_system)
    runner(None)
    assert {entry[1] for entry in log} == {"hdd-array", "log-disk"}
    lines = [repr(entry) for entry in log]
    lines += [repr((device.name, device.stats.busy_time))
              for device in devices]
    assert hashlib.md5("\n".join(lines).encode()).hexdigest() == pinned
