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
from repro.harness.experiments import RunSpec, run
from repro.harness.system import System, SystemConfig
from repro.storage.device import TrafficRecorder
from repro.telemetry import Telemetry
from tests.conftest import meta_free_trace_md5, run_on_kernel

FAULTS = "transient:p=0.01,latency:p=0.01:x=5,ssd_stall@t=2:dur=0.2"


def _tpcc(design, faults=None, **knobs):
    def runner(telemetry):
        run(RunSpec(kind="oltp", benchmark="tpcc", scale=20, design=design,
                    duration=4.0, profile="tiny", nworkers=4, **knobs),
            telemetry=telemetry, faults=faults)
    return runner


def _tpch(design, faults=None):
    def runner(telemetry):
        run(RunSpec(kind="tpch", benchmark="tpch", scale=30, design=design,
                    profile="tiny"), telemetry=telemetry, faults=faults)
    return runner


#: The tpch run lasts about 1.04 s: the power test ends at 0.33 s, so the
#: SSD dies while the throughput test's streams have reads in flight.
TPCH_DEATH = "transient:p=0.005,ssd_die@t=0.6"
DEATH_HOOKS = {"fault_transient", "fault_device_dead", "fault_dead_inflight",
               "ssd_detached"}


TENANTS = ("gold=poisson:rate=400:theta=0.6;"
           "noisy=bursty:rate=300:burst=10:theta=0.99")


def _latched_open(telemetry):
    run_on_kernel("wheel", RunSpec(
        kind="traffic", benchmark="tpcc", scale=20, design="LC",
        tenants=TENANTS, duration=4.0, profile="tiny", nworkers=8,
        queue_limit=200, partitions=16, latch_us=20.0), telemetry=telemetry)


ALL_HOOKS = {"fault_transient", "fault_latency", "fault_stall"}

#: name -> (runner, meta-free trace md5, fault event names expected).  No
#: SSD I/O of the latched TAC run is in flight during the stall window.
GOLDEN = {
    "tpch-DW": (_tpch("DW"), "1dddedb499bbed8ae718bfc5c80b943a", set()),
    # The SSD read paths of the pool, each design's read hook included:
    # the retry of a failed read (the stall lands after the run ends),
    # reads a dying SSD fails and the disk fallback behind the detach,
    # EXCL dropping the copy it served, and TAC heating extents on a
    # read-ahead.  Captured at commit 73eec63, before an SSD read became
    # a call whose completion installs the page.
    "tpch-DW-faults": (_tpch("DW", FAULTS),
                       "6a134e16df65fb7178246178d0799a3f",
                       ALL_HOOKS - {"fault_stall"}),
    "tpch-DW-death": (_tpch("DW", TPCH_DEATH),
                      "68aa6365c5d34a85eba1f5fa718999c2", DEATH_HOOKS),
    # Re-pinned when a read-ahead's hand-over of EXCL's only newest copy
    # began to enter the pool dirty, as a fetched one did: 151 pages of
    # the plain run and 139 of the faulted one.
    "tpch-EXCL": (_tpch("EXCL"), "d43ee99830332c60c7af47f2e56f8ef9", set()),
    "tpch-EXCL-faults": (_tpch("EXCL", FAULTS), "735abdc7fac8e38583804d269295ef72",
                         ALL_HOOKS - {"fault_stall"}),
    "tpch-TAC": (_tpch("TAC"), "e1365bdf7b64ee561eb302da42de9ea6", set()),
    # Re-pinned (was 439bcd36…) when an LS batch came to close at its
    # flush's first step, in the instant it opened, instead of on the
    # lazy writer's hint or a 2 ms timer.
    "tpcc-LS-ftl": (_tpcc("LS", ftl=True),
                    "4375e5456437a4ee5774ae7b4de0b733", set()),
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


def _busy_tpcc(design, faults=None):
    # Scale 100: the data array queues (6k reads under noSSD), which the
    # scale-20 rows above, written for the SSD path, never make it do.
    def runner(telemetry):
        run(RunSpec(kind="oltp", benchmark="tpcc", scale=100, design=design,
                    duration=4.0, profile="tiny", nworkers=8),
            telemetry=telemetry, faults=faults)
    return runner


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
SSD_FAULTS = "transient:p=0.02:device=ssd"


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
#:
#: The trace half of ckpt-CW, ckpt-DW, ckpt-TAC, crash-DW-warm,
#: crash-TAC-warm, die-EXCL, die-ROT and die-TAC was re-pinned once (was
#: 99c0810e…, e4c37284…, 28573b5f…, ad095679…, 0be97b49…, d4ca4cba…,
#: a9e1558a…, c0dba39c…): a frame evicted while its checkpoint write ran
#: left the pool's dirty count twice, so the sampled ``bp_dirty`` counter
#: drifted low.  Less the ``bp_dirty`` counter events each trace is the
#: old one, and no table digest moved.
#:
#: Every checkpoint-, crash-, die-, faults- and throttled- row of EXCL, LS
#: and ROT, and crash-LS-staged, was re-pinned once more when §3.3.5
#: group cleaning became the round of every checkpoint and λ cleaner:
#: their checkpoints (and LS's cleaner) now write up to α consecutive
#: dirty SSD pages with one disk write, and count them in
#: ``cleaner_pages``/``cleaner_ios``; LS counts ``lambda_crossings``.
#: ckpt-EXCL, for one, flushes 257 pages with 221 disk writes (29
#: sequential runs) where it wrote 244 pages one at a time.  The old
#: digests: ckpt-EXCL e5af7790…/59ae072a…, ckpt-LS 3e3319bc…/e804d924…,
#: ckpt-ROT 6f404312…/f61306d0…, crash-EXCL c69e623b…, crash-LS
#: 82ee90be…/3fe93f04…, crash-LS-staged 1cb55913…/c0721eb8…, crash-ROT
#: e56cdf73…, die-EXCL 79bb3a96…, die-LS 2fd0c1ff…, die-ROT 51e2b3ae…,
#: faults-LS 42619b2c…/1f31d9c5…, faults-ROT 80203561…/4e1fdcfd…,
#: throttled-LS 7c3cca0e…/07d0c303…, throttled-ROT ca395f38…/0db5961a….
WRITE_BACK = {
    "ckpt-noSSD": (
        _tpce("noSSD"),
        ("13b7557df17a825a912fe289f4ca5ec9",
         "d41d8cd98f00b204e9800998ecf8427e"),
        ()),
    "ckpt-CW": (
        _tpce("CW"),
        ("1b2d0fdeab9ca97f514b682effc2107e",
         "393185efccf28641c5bc76bb4a7bffe5"),
        ("evictions", "invalidations")),
    "ckpt-DW": (
        _tpce("DW"),
        ("96fa24c271cb6bca4a77710a3260a845",
         "d04e28f76cc6eae42cfc8f7d522d412a"),
        ("evictions", "invalidations")),
    "ckpt-LC": (
        _tpce("LC"),
        ("af2d75b74b9803381f4e56bc841e2670",
         "162c351998ac75acec4fc7f5f413e5b8"),
        ("evictions", "cleaner_pages", "checkpoint_ssd_flushes",
         "fallback_disk_writes", "lambda_crossings")),
    # The six LS rows were re-pinned (ckpt-LS was b9d6ddd9…/fba3cb28…)
    # when a batch came to close at its flush's first step, in the
    # instant it opened, instead of on the lazy writer's hint or a 2 ms
    # timer: ckpt-LS lands 552 batches, not 569, throttled-LS 278, not
    # 396.
    "ckpt-LS": (
        _tpce("LS"),
        ("37e9d897e2eed7f5bc156938057c2df4",
         "37ccbc13643d6d4c75fa6b645d42ffb1"),
        ("evictions", "cleaner_ios", "checkpoint_ssd_flushes",
         "fallback_disk_writes")),
    # The four TAC rows were re-pinned (ckpt-TAC was 28059335…/90afb0b3…)
    # when the admission check's ``peek`` stopped re-stamping the
    # coldest record behind its equal-temperature peers: other records
    # are replaced (ckpt-TAC ``evictions`` 450 -> 428, die-TAC 168 ->
    # 174, throttled-TAC 260 -> 247).
    "ckpt-TAC": (
        _tpce("TAC"),
        ("6020780740d2f3a16229e29b4fbf01f7",
         "8c9fdb130e5de31986fd0f884208a2c8"),
        ("evictions", "missed_dirty_writes")),
    # Re-pinned (was 50ac23f5… / 143 flushes): ROT cached dirty pages
    # while a checkpoint ran and flushed one snapshot of the table, so
    # pages admitted after it stayed dirty past the truncate.
    # Trace re-pinned again (was ef766685…): ROT installed and counted
    # its writes but never emitted the ``admit`` instant every other
    # layout emits; less those 1,881 instants the trace is the old one.
    "ckpt-ROT": (
        _tpce("ROT"),
        ("6bfa539f5c82a6a4722a0354997ff620",
         "aadea56b88de84797d1e26266ffb216c"),
        ("evictions", "checkpoint_ssd_flushes", "fallback_disk_writes")),
    # Re-pinned (was 5b3d60cf… / 193 flushes): the same two defects,
    # plus a newest copy read mid-checkpoint that nobody flushed.
    "ckpt-EXCL": (
        _tpce("EXCL"),
        ("d9e1280ca3aa36e8c39317687430befe",
         "553a76b58e61f1cde4e7b3229dc50c39"),
        ("evictions", "checkpoint_ssd_flushes", "fallback_disk_writes")),
    "die-LC": (
        _tpce("LC", DEATH),
        ("a7eea713b4aac52d5fadca493d0e777b",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "detach_redo_pages")),
    "die-LS": (
        _tpce("LS", DEATH),
        ("d02a614344f492be70e9fd9274a86bf4",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "detach_redo_pages")),
    # Re-pinned (was b9f87776…, 115 pages redone where 18 are owed).
    # Trace again (was 86a9bae4…): the missing ``admit`` instants.
    "die-ROT": (
        _tpce("ROT", DEATH),
        ("11d0a4cddb513a4aa8dccb6ac152a96b",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "detach_redo_pages")),
    # Was pinned as ``RecoveryError: SSD died holding the only copy of 2
    # dirty pages whose log records were truncated``; now degrades.
    "die-EXCL": (
        _tpce("EXCL", DEATH),
        ("85858505f1cad6628cbe1bca88a95194",
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
    # Trace re-pinned again (was 3c85f8ee…) when the λ cleaner stopped
    # starting at the crash: it reseeded the replayed dirty entries
    # (one ``dirty_heap_reseed``) and copied 18 of them back in 17
    # ``clean_batch``es while redo ran, which the restart rule now
    # settles in place; the table digest did not move.
    "crash-LS": (
        _tpce_crash("LS"),
        ("1a3766cb22cec35c2bc099bf8573fac2",
         "678fc7020ee2928170eb8b5215c37024"),
        ("evictions",)),
    # Re-pinned with their checkpointed rows (eeeb7b6d…, f63c5b8c…).
    # ROT's trace again (was 2e21432c…): the missing ``admit`` instants.
    "crash-ROT": (
        _tpce_crash("ROT"),
        ("13ef26a216c6b641260598bc1630f8d9",
         "84febe644765ac19f4432a58a66aa241"),
        ("evictions",)),
    "crash-EXCL": (
        _tpce_crash("EXCL"),
        ("1462f972f560768793fe21d608e64134",
         "84febe644765ac19f4432a58a66aa241"),
        ("evictions",)),
    "crash-TAC-warm": (
        _tpce_crash("TAC", warm_restart=True),
        ("7e27d57cf9c2605150788989f8c8ed53", "07a221602144ad326440ee116263df8b"),
        ("evictions", "invalidations")),
    "crash-DW-warm": (
        _tpce_crash("DW", warm_restart=True),
        ("12c14d4eebb0a85ceed6249e867989d8", "d04e28f76cc6eae42cfc8f7d522d412a"),
        ("evictions", "invalidations")),
    # Trace re-pinned with crash-LS (was 85e34d74…): the same second
    # ``ls_log_replay`` instant (473 entries), and nothing else.  And
    # with it again (was 8cc327ec…): the same reseed and 17 batches.
    "crash-LS-staged": (
        _tpce_crash("LS", staged=True),
        ("92fe47ffb53bd93606728bef79d4a93f", "37bfc16e8ea4a425603ece55cd5be793"),
        ("evictions", "cleaner_ios")),
    "throttled-LC": (
        _throttled("LC"),
        ("bf1ec3afe0394d29adf9cb8df0fd7a81",
         "8cf8a9b0eedbfeb75e1f33bf5f8998b3"),
        ("declined_throttle", "fallback_disk_writes", "cleaner_pages")),
    # Re-pinned (was 84a3f8e2…/8883f62e…) when a clean batch came to own
    # its page versions: an entry the reclaimer relocates while a batch
    # has it in flight stays the batch's instead of being filed for a
    # second batch (``cleaner_pages`` 794 → 732).
    "throttled-LS": (
        _throttled("LS"),
        ("b6daa91fa4af2cb6a32b4424eee143c5",
         "26cfdd5535ef4ab25ca085c732d63105"),
        ("declined_throttle", "fallback_disk_writes")),
    # TAC under replacement *and* faults, and the two layouts with their
    # own admit tails under the throttle: captured at commit 001cc3f,
    # before placement was written once.
    "throttled-TAC": (
        _throttled("TAC"),
        ("69c10c201f7501566eec5cb4166072ac",
         "98b1c47c3bb3eac980601f9624b7e940"),
        ("declined_throttle", "missed_dirty_writes", "evictions")),
    "die-TAC": (
        _tpce("TAC", DEATH),
        ("26e7c31b98b646a93d88a55a33b61be2",
         "84febe644765ac19f4432a58a66aa241"),
        ("io_retries", "evictions")),
    # Trace re-pinned (was e4cb8de9…): the missing ``admit`` instants.
    "throttled-ROT": (
        _throttled("ROT"),
        ("0b6f278c584c56cdf4d68f5f8b4b1a5b",
         "3ec70fb8b18b59b6edfe934c6a7ac6bb"),
        ("declined_throttle", "fallback_disk_writes")),
    # Transient SSD faults and no death: LS retrying a striped multi-page
    # run (batch writes, cleaner reads and relocations) and ROT retrying
    # a sequential write, which the die-* rows reach only beside a
    # detach.  Captured at commit 0c50c28, while each SSD retry still
    # built a fresh request.
    "faults-LS": (
        _tpce("LS", SSD_FAULTS),
        ("793fbcdaf26b0c2da5356592072251d4",
         "ac010ab2356ca9f5fd440d0e3161819c"),
        ("io_retries", "evictions", "cleaner_ios")),
    "faults-ROT": (
        _tpce("ROT", SSD_FAULTS),
        ("b72e5bf48b694e30f73514d251be4710",
         "c552d4044eac7a30fa0c0a9149c78f65"),
        ("io_retries", "evictions", "checkpoint_ssd_flushes")),
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
#: same pages are redone and the same frames survive.  LS and ROT were
#: re-pinned (were 61, e2b1be70… and 130, 196a8a0c…) when their
#: checkpoints and LS's λ cleaner took up group cleaning: other pages
#: are on disk at the cut.  LS again (was 72, 1ab9bf75…) when an entry
#: relocated mid-clean stayed its batch's: 1,840 cleaned pages before
#: #: the cut, not 2,023.  TAC (was 41, ba9df6d3…) when ``peek`` stopped
#: re-stamping the coldest record: other frames are replaced before the
#: cut.  LS (was 67, 9c6c5395…) when a batch came to close at its
#: flush's first step.
RESTART = {
    "LC": (70, "6566c68a43c74c3053b9ddc40bd2fa81"),
    "LS": (71, "5c37e4a4474eff3b4b20d5816019e096"),
    "TAC": (43, "33b2d664c68ebf6410d258e1d1b8cd38"),
    "ROT": (137, "8813e126de251e0bcce1c467e3f760d9"),
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
#: re-files a surviving record it could have left alone.  LS and ROT
#: were re-pinned with ``RESTART`` (were 2b1eb857…, 5024 and eac1ef2a…,
#: 4740).  LS was re-pinned again (was 0fb03150…, 5013) when its λ
#: cleaner stopped starting at the crash, where it reseeded the replayed
#: dirty entries and copied 31 back during recovery, and with
#: #: ``RESTART`` when a relocated entry stayed its batch's.  TAC (was
#: e0674487…, 531) with ``RESTART``, and LS (was cc858bcc…, 4978).
RESTARTED_RUN = {
    "LC": ("1bc7c74092447cc5aca40662cbcf7ddc", 4726),
    "LS": ("f995f9840a84c277b6101d5766087561", 4995),
    "TAC": ("2bcd439c43fc6d7fe8311c35ed4a10fc", 522),
    "ROT": ("2016322a5b34b06b16f46936ccd80c26", 4726),
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
