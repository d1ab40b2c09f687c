"""Ablations of the design choices the paper calls out.

* Admission classification: the read-ahead signal vs the 64-page-window
  heuristic (paper: 82% vs 51% accurate on a sequential-read query).
* Multi-page I/O trimming (§3.3.3): trim only the edges vs splitting a
  read-ahead request around every SSD-resident page.
* Group cleaning (§3.3.5): gathering consecutive dirty pages into one
  write vs cleaning page-at-a-time.
* Warm restart (§6 future work): reusing SSD contents after a restart
  removes the ramp-up the paper complains about.
"""

import random

from benchmarks.common import PROFILE, once
from repro.engine.readahead import ReadAheadAccuracy, WindowClassifier
from repro.engine.recovery import simulate_crash_and_recover
from repro.harness.experiments import make_system, make_workload
from repro.harness.runner import WorkloadRunner
from tests.conftest import MiniSystem, drive, settle


def test_ablation_admission_accuracy(benchmark):
    """Score both classifiers on a sequential scan running against
    concurrent random lookups (the paper's sequential-read query in a
    multi-user system)."""
    def run():
        sys_ = MiniSystem(design="noSSD", db_pages=4_000, bp_pages=1_600)
        from repro.engine.heap_file import HeapFile
        table = HeapFile("t", 0, 1_024)
        readahead_score = ReadAheadAccuracy()

        def scanner():
            yield from table.scan(sys_.bp, accuracy=readahead_score)

        def random_feed():
            rng = random.Random(9)
            for _ in range(600):
                frame = yield from sys_.bp.fetch(rng.randrange(2_000, 4_000))
                sys_.bp.unpin(frame)

        procs = [sys_.env.process(scanner()),
                 sys_.env.process(random_feed())]
        sys_.env.run(sys_.env.all_of(procs))

        # The window heuristic classifies the *global* disk-read stream,
        # where the concurrent random lookups interleave with the scan.
        window = WindowClassifier(window=64)
        rng = random.Random(10)
        scan_stream = [(pid, True) for pid in range(1_024)]
        random_stream = [(rng.randrange(2_000, 4_000), False)
                         for _ in range(600)]
        merged = scan_stream + random_stream
        rng.shuffle(merged)
        for address, truth in merged:
            window.classify(address, truth_sequential=truth)
        return readahead_score.accuracy, window.accuracy

    readahead_acc, window_acc = once(benchmark, run)
    print(f"\nread-ahead accuracy {readahead_acc:.0%} (paper 82%), "
          f"window accuracy {window_acc:.0%} (paper 51%)")
    assert readahead_acc > 0.7
    assert window_acc < 0.7
    assert readahead_acc > window_acc


def test_ablation_multipage_trimming(benchmark):
    """Edge-trimmed runs must issue at most one disk I/O per prefetch
    even when scattered pages are SSD-resident (vs the naive split the
    paper found slower)."""
    def run():
        sys_ = MiniSystem(design="DW", db_pages=2_000, bp_pages=128,
                          ssd_frames=256)
        # Cache scattered pages of a run in the SSD.
        for pid in (100, 101, 105, 107):
            drive(sys_.env, sys_.ssd_manager._cache_page(pid, 0, False))
        ios_before = sys_.disk.reads_issued
        drive(sys_.env, sys_.bp.prefetch(100, 8))
        return sys_.disk.reads_issued - ios_before

    disk_ios = once(benchmark, run)
    print(f"\ndisk I/Os for one trimmed 8-page prefetch: {disk_ios}")
    assert disk_ios <= 1


def test_ablation_group_cleaning(benchmark):
    """α > 1 turns consecutive dirty pages into single multi-page disk
    writes: far fewer cleaner I/Os than pages cleaned."""
    def run():
        out = {}
        for alpha in (1, 32):
            sys_ = MiniSystem(design="LC", db_pages=2_000, bp_pages=64,
                              ssd_frames=256, dirty_threshold=0.1,
                              group_clean_pages=alpha)
            from repro.engine.page import Frame
            for pid in range(160):
                frame = Frame(pid, version=1)
                frame.dirty = True
                drive(sys_.env, sys_.ssd_manager.on_evict_dirty(frame))
            settle(sys_.env, 10.0)
            stats = sys_.ssd_manager.stats
            out[alpha] = (stats.cleaner_pages, stats.cleaner_ios)
        return out

    results = once(benchmark, run)
    print("\ncleaner (pages, ios) by alpha:", results)
    pages_1, ios_1 = results[1]
    pages_32, ios_32 = results[32]
    assert ios_1 >= pages_1  # no grouping: one I/O per page
    assert ios_32 < pages_32 / 4  # grouping collapses consecutive runs


def test_ablation_warm_restart_removes_ramp_up(benchmark):
    """Persisting the SSD mapping across restart (§6) lets the restarted
    system start with a hot SSD instead of re-warming it."""
    def run():
        out = {}
        for warm in (False, True):
            workload = make_workload("tpce", 4, PROFILE)
            system = make_system("tpce", workload, "DW", PROFILE,
                                 warm_restart=warm)
            runner = WorkloadRunner(system, workload, nworkers=16)
            runner.run(20.0)
            before = system.ssd_manager.used_frames
            drive(system.env, simulate_crash_and_recover(system.env, system))
            out[warm] = (before, system.ssd_manager.used_frames)
        return out

    frames = once(benchmark, run)
    print(f"\nSSD frames (before -> after restart): "
          f"cold={frames[False][0]:,} -> {frames[False][1]:,}, "
          f"warm={frames[True][0]:,} -> {frames[True][1]:,}")
    assert frames[False][1] == 0
    assert frames[True][1] > frames[True][0] // 2


def test_ablation_aggressive_fill(benchmark):
    """§3.3.1: without aggressive filling (τ=0) the SSD fills only with
    admission-qualified pages, so it warms far more slowly."""
    def run():
        out = {}
        for tau in (0.0, 0.95):
            workload = make_workload("tpce", 4, PROFILE)
            system = make_system("tpce", workload, "DW", PROFILE)
            system.ssd_manager.config.fill_threshold = tau
            runner = WorkloadRunner(system, workload, nworkers=16)
            runner.run(15.0)
            out[tau] = system.ssd_manager.used_frames
        return out

    used = once(benchmark, run)
    print(f"\nSSD frames at t=15s: tau=0 {used[0.0]:,} vs "
          f"tau=0.95 {used[0.95]:,}")
    assert used[0.95] >= used[0.0]
