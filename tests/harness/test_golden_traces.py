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

``WRITE_BACK`` pins what none of the above reaches: an SSD that fills.
Every tpcc row leaves ``ssd_stats.evictions`` at 0 (700 frames never
fill in 4 s), so replacement, the λ cleaner under pressure, the LS
reclaimer, the throttle, a checkpoint with dirty SSD pages and a detach
with something to redo were all unpinned.  tpce fills the tiny SSD in
under a second; the rows cover all eight ``DESIGNS`` and were captured
at commit ed0a0e0, before the write-back obligations of LC, LS, ROT and
EXCL moved into ``SsdManagerBase``.  Each row names the ``SsdStats``
counters that must have moved, the way ``GOLDEN`` names fault events.
The ROT and EXCL rows were re-pinned once, by the change that moved
them onto the shared steps, because their own copies were wrong; the
defect is named beside each new digest.  The trace half of the four ROT
rows moved once more when placement was written once and ROT's
admissions became visible; their table digests and counters did not.

``crash-TAC-warm``, ``crash-DW-warm`` and ``crash-LS-staged`` (a power
cut with an LS admission batch staged), the ``RESTART`` table — what
restart recovery redoes and leaves in the SSD buffer table of a
*quiesced* warm-restart system — and ``RESTARTED_RUN`` — which frames
the restarted system goes on to replace — were captured at commit
b6f14f6, while ``simulate_crash_and_recover`` still dropped the pool and
the mapping by hand (the soft crash) beside ``System.crash()``.
"""

import hashlib
import random

import pytest

from repro.core import SsdDesignConfig
from repro.engine.recovery import simulate_crash_and_recover
from repro.harness import experiments
from repro.harness.crashpoints import _update_client
from repro.harness.experiments import (SCALE_PROFILES, run_oltp_experiment,
                                       run_tpch_experiment,
                                       run_traffic_experiment)
from repro.harness.system import System, SystemConfig
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


DEATH = "transient:p=0.005,ssd_die@t=2.5"


def _tpce(design, faults=None):
    def run(telemetry):
        return experiments.run(
            experiments.RunSpec(kind="oltp", benchmark="tpce", scale=20,
                                design=design, profile="tiny", duration=4.0,
                                nworkers=4, checkpoint_interval=1.0),
            telemetry=telemetry, faults=faults).system
    return run


def _tpce_crash(design, warm_restart=False, staged=False):
    """Power cut at the end of the run, then restart recovery.

    ``staged`` runs on until an LS admission batch is staged or
    flushing, so the cut lands on entries no table holds yet."""
    def run(telemetry):
        system = _tpce(design)(telemetry)
        system.ssd_manager.config.warm_restart = warm_restart
        env = system.env
        if staged:
            while not system.ssd_manager._pending_batches:
                env.run(until=env.now + 0.0005)
            assert len(system.ssd_manager._pending_batches) > 0
        system.crash()
        redone = env.run(env.process(system.recover()))
        assert redone > 0
        system.ssd_manager.check_invariants()
        return system
    return run


def _throttled(design):
    """A 150-frame SSD behind μ = 2: most admissions are declined."""
    def run(telemetry):
        system = System(SystemConfig(
            design=design, db_pages=1_200, bp_pages=64, slack_pages=64,
            ssd=SsdDesignConfig(ssd_frames=150, throttle_limit=2,
                                dirty_threshold=0.2, ls_segment_pages=16),
            checkpoint_interval=1.0), telemetry=telemetry)
        system.start_services()
        system.env.spawn_all(
            _update_client(system.env, system,
                           random.Random(f"throttled:{worker}"), {}, 1_200)
            for worker in range(8))
        system.run(until=4.0)
        return system
    return run


def _table_md5(system):
    """Digest of the SSD buffer table (what a restart left behind)."""
    lines = [repr((r.frame_no, r.page_id, r.version, r.valid, r.dirty))
             for r in system.ssd_manager.table.records]
    return hashlib.md5("\n".join(lines).encode()).hexdigest()


#: name -> (runner, (meta-free trace md5, md5 of the final SSD buffer
#: table), ``SsdStats`` counters that must be nonzero).
WRITE_BACK = {
    "ckpt-noSSD": (
        _tpce("noSSD"),
        ("13b7557df17a825a912fe289f4ca5ec9",
         "d41d8cd98f00b204e9800998ecf8427e"),
        ()),
    "ckpt-CW": (
        _tpce("CW"),
        ("99c0810e786a98a4df30d1852562d939",
         "393185efccf28641c5bc76bb4a7bffe5"),
        ("evictions", "invalidations")),
    "ckpt-DW": (
        _tpce("DW"),
        ("e4c37284bce114fc819177a22ca85397",
         "d04e28f76cc6eae42cfc8f7d522d412a"),
        ("evictions", "invalidations")),
    "ckpt-LC": (
        _tpce("LC"),
        ("af2d75b74b9803381f4e56bc841e2670",
         "162c351998ac75acec4fc7f5f413e5b8"),
        ("evictions", "cleaner_pages", "checkpoint_ssd_flushes",
         "fallback_disk_writes", "lambda_crossings")),
    "ckpt-LS": (
        _tpce("LS"),
        ("3e3319bcfc51c96bc0d07b742f24cd55",
         "e804d924e43d9fb63c89fd04e31277f4"),
        ("evictions", "cleaner_ios", "checkpoint_ssd_flushes",
         "fallback_disk_writes")),
    "ckpt-TAC": (
        _tpce("TAC"),
        ("28573b5fc6a1e926b24cd2480113f4a4",
         "90afb0b3c4abdcf19e9d81a06e872785"),
        ("evictions", "missed_dirty_writes")),
    # Re-pinned (was 50ac23f5… / 143 flushes): ROT cached dirty pages
    # while a checkpoint ran and flushed one snapshot of the table, so
    # pages admitted after it stayed dirty past the truncate.
    # Trace re-pinned again (was ef766685…): ROT installed and counted
    # its writes but never emitted the ``admit`` instant every other
    # layout emits; less those 1,881 instants the trace is the old one.
    "ckpt-ROT": (
        _tpce("ROT"),
        ("6f4043129d2733b25e55791cfb8b40c1",
         "f61306d067e6e2f6dcf73db4434e43da"),
        ("evictions", "checkpoint_ssd_flushes", "fallback_disk_writes")),
    # Re-pinned (was 5b3d60cf… / 193 flushes): the same two defects,
    # plus a newest copy read mid-checkpoint that nobody flushed.
    "ckpt-EXCL": (
        _tpce("EXCL"),
        ("e5af7790d6e7ef3b50409115132be324",
         "59ae072a2b81c14f57431c3a0df98b1b"),
        ("evictions", "checkpoint_ssd_flushes", "fallback_disk_writes")),
    "die-LC": (
        _tpce("LC", DEATH),
        ("a7eea713b4aac52d5fadca493d0e777b",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "detach_redo_pages")),
    "die-LS": (
        _tpce("LS", DEATH),
        ("2fd0c1ff1398af45075d8eb335b9ba86",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "detach_redo_pages")),
    # Re-pinned (was b9f87776…, 115 pages redone where 18 are owed).
    # Trace again (was 86a9bae4…): the missing ``admit`` instants.
    "die-ROT": (
        _tpce("ROT", DEATH),
        ("a9e1558af67aef3fdf04c50ef7633668",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "detach_redo_pages")),
    # Was pinned as ``RecoveryError: SSD died holding the only copy of 2
    # dirty pages whose log records were truncated``; now degrades.
    "die-EXCL": (
        _tpce("EXCL", DEATH),
        ("d4ca4cba66b649a96382f02bc89eb25a",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "detach_redo_pages")),
    "crash-LC": (
        _tpce_crash("LC"),
        ("4ac7332d0ee19e1fec0b933e4156e94f",
         "84febe644765ac19f4432a58a66aa241"),
        ("evictions",)),
    "crash-LC-warm": (
        _tpce_crash("LC", warm_restart=True),
        ("4ac7332d0ee19e1fec0b933e4156e94f",
         "84185955c17c875fca45953ff3c17543"),
        ("evictions",)),
    # Trace re-pinned (was 50cdcc50…): LS replayed its journal twice per
    # crash — once from ``crash_reset``, once more from the recovery
    # step — and emitted two ``ls_log_replay`` instants (467 entries
    # each, ``replays`` 934); less the second one the trace is the old.
    "crash-LS": (
        _tpce_crash("LS"),
        ("82ee90be05bbecd7346b54c3e5cb1077",
         "3fe93f045e53625fcd1c277251baa982"),
        ("evictions",)),
    # Re-pinned with their checkpointed rows (eeeb7b6d…, f63c5b8c…).
    # ROT's trace again (was 2e21432c…): the missing ``admit`` instants.
    "crash-ROT": (
        _tpce_crash("ROT"),
        ("e56cdf73f8056dbfb9e996e1b0845761",
         "84febe644765ac19f4432a58a66aa241"),
        ("evictions",)),
    "crash-EXCL": (
        _tpce_crash("EXCL"),
        ("c69e623ba3dd85f201a457e0b60e56c1",
         "84febe644765ac19f4432a58a66aa241"),
        ("evictions",)),
    "crash-TAC-warm": (
        _tpce_crash("TAC", warm_restart=True),
        ("0be97b49ab5cf36c8a1a7cd8eb7371bf", "a115df7a9696a5d6f8d3049253e03260"),
        ("evictions", "invalidations")),
    "crash-DW-warm": (
        _tpce_crash("DW", warm_restart=True),
        ("ad095679990abe6d7f1631ee1afbfc4a", "d04e28f76cc6eae42cfc8f7d522d412a"),
        ("evictions", "invalidations")),
    # Trace re-pinned with crash-LS (was 85e34d74…): the same second
    # ``ls_log_replay`` instant (473 entries), and nothing else.
    "crash-LS-staged": (
        _tpce_crash("LS", staged=True),
        ("1cb5591362adfda5209f3f3be1f15814", "c0721eb8d93e83549aa5dacbef47bc55"),
        ("evictions", "cleaner_ios")),
    "throttled-LC": (
        _throttled("LC"),
        ("bf1ec3afe0394d29adf9cb8df0fd7a81",
         "8cf8a9b0eedbfeb75e1f33bf5f8998b3"),
        ("declined_throttle", "fallback_disk_writes", "cleaner_pages")),
    "throttled-LS": (
        _throttled("LS"),
        ("7c3cca0ea9911d96d4e70b7e7d3fcc96",
         "07d0c3036b4ce0c20aa4621da163bfe9"),
        ("declined_throttle", "fallback_disk_writes")),
    # TAC under replacement *and* faults, and the two layouts with their
    # own admit tails under the throttle: captured at commit 001cc3f,
    # before placement was written once.
    "throttled-TAC": (
        _throttled("TAC"),
        ("cd0e51866837a15fac41068005f0f8f0",
         "c022f4c46491edc126cbeaeef0572827"),
        ("declined_throttle", "missed_dirty_writes", "evictions")),
    "die-TAC": (
        _tpce("TAC", DEATH),
        ("c0dba39c60cb4f29f08da6b6c9fb88d6",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "evictions")),
    # Trace re-pinned (was e4cb8de9…): the missing ``admit`` instants.
    "throttled-ROT": (
        _throttled("ROT"),
        ("ca395f387a154ba6bb07e3ec85ef58bc",
         "0db5961a9e3456d8642eec6adca02118"),
        ("declined_throttle", "fallback_disk_writes")),
}


@pytest.mark.parametrize("name", sorted(WRITE_BACK))
def test_write_back_paths_match_per_design_copies(name):
    runner, pinned, fired = WRITE_BACK[name]
    telemetry = Telemetry()
    system = runner(telemetry)
    assert telemetry.tracer.dropped == 0
    stats = system.ssd_manager.stats.as_dict()
    assert [counter for counter in fired if not stats[counter]] == []
    assert (meta_free_trace_md5(telemetry), _table_md5(system)) == pinned



def _quiesced(design):
    """A warm-restart system nothing is running on: two bounded update
    phases around a sharp checkpoint, one virtual second to settle,
    every device idle."""
    system = System(SystemConfig(
        design=design, db_pages=1_200, bp_pages=64, slack_pages=64,
        ssd=SsdDesignConfig(ssd_frames=150, dirty_threshold=0.2,
                            ls_segment_pages=16, warm_restart=True)))
    committed = {}
    _update_phase(system, committed, 1)
    system.env.run(system.env.process(system.checkpointer.checkpoint()))
    _update_phase(system, committed, 2)
    assert [device.pending for device in (
        system.data_device, system.ssd_device, system.wal.device)] == [0] * 3
    return system, committed


def _update_phase(system, committed, phase):
    env = system.env
    env.run(env.gather(
        _update_client(env, system,
                       random.Random(f"quiesced:{phase}:{worker}"),
                       committed, 1_200, ops=250)
        for worker in range(8)))
    env.run(until=env.now + 1.0)


#: design -> (pages redone, md5 of the SSD buffer table after restart),
#: ``warm_restart=True`` throughout.  With nothing in flight a crash has
#: only the pool and the mapping to lose, so however it is spelled the
#: same pages are redone and the same frames survive.
RESTART = {
    "LC": (70, "6566c68a43c74c3053b9ddc40bd2fa81"),
    "LS": (61, "e2b1be709899dd79c38533cb2b87353f"),
    "TAC": (41, "ba9df6d3cb2e178f0a2840a177e4df06"),
    "ROT": (130, "196a8a0c5dc014ba447d564a17f6f820"),
    "DW": (41, "ba1adcc9536e8dee5c818b0b61f9786d"),
}


@pytest.mark.parametrize("design", sorted(RESTART))
def test_quiesced_restart_redoes_and_keeps_the_same(design):
    system, committed = _quiesced(design)
    env = system.env
    redone = env.run(env.process(
        simulate_crash_and_recover(env, system, committed)))
    system.ssd_manager.check_invariants()
    assert (redone, _table_md5(system)) == RESTART[design]


#: design -> (md5 of the buffer table, ``SsdStats.evictions``) after a
#: power cut on the quiesced system, restart recovery and a third update
#: phase on the restarted system: which frames the survivors lose next.
#: Equal LRU-2 keys leave a heap in push order, so this moves if restart
#: re-files a surviving record it could have left alone.
RESTARTED_RUN = {
    "LC": ("1bc7c74092447cc5aca40662cbcf7ddc", 4726),
    "LS": ("2b1eb857866f0f0ba60d3be15e8bf2ec", 5024),
    "TAC": ("e067448777bfd4911f97a6766175cb29", 531),
    "ROT": ("eac1ef2a6b97e488a329c78aa1a26386", 4740),
    "DW": ("417a53712d968f6244eef31d83e3e4ca", 4811),
}


@pytest.mark.parametrize("design", sorted(RESTARTED_RUN))
def test_a_restarted_system_replaces_the_same_frames(design):
    system, committed = _quiesced(design)
    env = system.env
    system.crash()
    env.run(env.process(system.recover(committed)))
    kept = system.ssd_manager.used_frames
    assert kept > 0
    _update_phase(system, committed, 3)
    system.ssd_manager.check_invariants()
    stats = system.ssd_manager.stats
    assert (_table_md5(system), stats.evictions) == RESTARTED_RUN[design]
