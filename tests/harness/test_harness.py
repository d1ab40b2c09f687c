"""Tests for the harness: system assembly, runner, metrics, reporting."""

import pytest

from repro.core.lc import LazyCleaningManager
from repro.engine.page import Frame
from repro.harness.experiments import (
    PAPER_LAMBDA,
    SCALE_PROFILES,
    RunSpec,
    make_system,
    make_workload,
    run_oltp_experiment,
    speedup_over_nossd,
)
from repro.harness.metrics import Sampler
from repro.harness.report import format_series, format_speedups, format_table
from repro.harness.runner import RunResult, WorkloadRunner
from repro.harness.system import SystemConfig
from tests.conftest import drive


class TestSystemAssembly:
    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(design="magic")

    def test_lc_cleaner_started(self):
        """A dirty admission past λ on a freshly made system is cleaned."""
        workload = make_workload("tpcc", 100, SCALE_PROFILES["tiny"])
        system = make_system("tpcc", workload, "LC", SCALE_PROFILES["tiny"],
                             dirty_threshold=0.01)
        manager = system.ssd_manager
        assert isinstance(manager, LazyCleaningManager)
        limit = manager.config.dirty_limit_frames

        def evict_dirty(page_id):
            frame = Frame(page_id, version=1)
            frame.dirty = True
            return manager.on_evict_dirty(frame)

        drive(system.env, *(evict_dirty(page) for page in range(limit + 1)))
        assert manager.dirty_frames == limit + 1
        system.run(until=system.env.now + 1.0)
        assert manager.dirty_frames <= manager.config.clean_target_frames
        assert manager.stats.cleaner_pages > 0

    def test_nossd_gets_zero_frames(self):
        workload = make_workload("tpcc", 100, SCALE_PROFILES["tiny"])
        system = make_system("tpcc", workload, "noSSD",
                             SCALE_PROFILES["tiny"])
        assert system.ssd_manager.config.ssd_frames == 0

    def test_paper_lambda_settings(self):
        """Table 2: λ = 50% for TPC-C, 1% for TPC-E/H."""
        assert PAPER_LAMBDA == {"tpcc": 0.50, "tpce": 0.01, "tpch": 0.01}
        workload = make_workload("tpcc", 100, SCALE_PROFILES["tiny"])
        system = make_system("tpcc", workload, "LC", SCALE_PROFILES["tiny"])
        assert system.ssd_manager.config.dirty_threshold == 0.50

    def test_design_name_exposed(self, small_system):
        assert small_system.design == "noSSD"


class TestScaleProfiles:
    def test_default_preserves_paper_ratios(self):
        profile = SCALE_PROFILES["default"]
        # BP:SSD = 20:140 GB.
        assert profile.ssd_frames / profile.bp_pages == pytest.approx(7.0)
        # TPC-C 2K warehouses (200 GB) : BP = 10 : 1.
        assert profile.pages(200.0) / profile.bp_pages == pytest.approx(10.0)

    def test_small_profile_scales_down_uniformly(self):
        default, small = SCALE_PROFILES["default"], SCALE_PROFILES["small"]
        ratio = default.pages_per_gb / small.pages_per_gb
        assert default.bp_pages / small.bp_pages == pytest.approx(ratio)
        assert default.ssd_frames / small.ssd_frames == pytest.approx(ratio)


class TestRunner:
    def test_run_produces_buckets_and_counts(self):
        result = run_oltp_experiment(
            "tpcc", 100, "noSSD", duration=5.0,
            profile=SCALE_PROFILES["tiny"], nworkers=4, bucket_seconds=1.0)
        assert len(result.buckets) == 5
        assert result.total_metric_txns > 0
        assert result.txn_counts.get("new_order", 0) == result.total_metric_txns

    def test_metric_is_tpm_for_tpcc(self):
        result = run_oltp_experiment(
            "tpcc", 100, "noSSD", duration=4.0,
            profile=SCALE_PROFILES["tiny"], nworkers=4)
        series = result.throughput_series()
        # tpmC = per-minute rate: 60x the per-second bucket counts.
        per_second = result.buckets[0] / result.bucket_seconds
        assert series[0][1] == pytest.approx(per_second * 60.0)

    def test_steady_state_uses_tail_window(self):
        result = RunResult(design="x", metric_name="tpmC", duration=10.0,
                           bucket_seconds=1.0, metric_window=60.0,
                           buckets=[0] * 8 + [10, 10])
        assert result.steady_state_throughput(0.2) == pytest.approx(600.0)

    def test_smoothing_moving_average(self):
        result = RunResult(design="x", metric_name="tpmC", duration=3.0,
                           bucket_seconds=1.0, metric_window=1.0,
                           buckets=[0, 30, 0])
        smoothed = result.throughput_series(smooth=3)
        assert smoothed[1][1] == pytest.approx(10.0)

    def test_sampler_collects_series(self):
        result = run_oltp_experiment(
            "tpcc", 100, "LC", duration=5.0,
            profile=SCALE_PROFILES["tiny"], nworkers=4)
        assert len(result.sampler.samples) >= 4
        assert result.sampler.samples[-1].ssd_used >= 0

    def test_worker_count_validation(self, small_system):
        workload = make_workload("tpcc", 100, SCALE_PROFILES["tiny"])
        with pytest.raises(ValueError):
            WorkloadRunner(small_system, workload, nworkers=0)


@pytest.mark.parametrize("knob,value,names", [
    # Never returned: the checkpointer yielded timeout(0) forever.
    ("checkpoint_interval", 0.0, "checkpoint_interval"),
    # Died inside the kernel ("negative delay").
    ("checkpoint_interval", -1.0, "checkpoint_interval"),
    # ZeroDivisionError while sizing the buckets.
    ("bucket_seconds", 0.0, "bucket_seconds"),
    # Ran, and reported a throughput of -31,860 tpmC.
    ("bucket_seconds", -1.0, "bucket_seconds"),
    # Refused only by Environment.run, after the system was built.
    ("duration", -1.0, "duration"),
    # ZeroDivisionError in the tenant grammar.
    ("tenants", "web=poisson:users=10:think=0", "think"),
])
def test_run_knobs_that_hung_or_lied_are_refused_by_name(knob, value, names):
    """Hostile run knobs are a ``ValueError`` when the spec is built,
    never a hang or a silently wrong number (ROADMAP item 4)."""
    knobs = dict(kind="traffic" if knob == "tenants" else "oltp",
                 benchmark="tpcc", scale=20, design="LC", profile="tiny",
                 duration=1.0, nworkers=2)
    knobs[knob] = value
    with pytest.raises(ValueError, match=names):
        RunSpec(**knobs)


class TestSampler:
    def test_stop_ends_collection(self, small_system):
        sampler = Sampler(small_system, interval=1.0)
        sampler.start()
        small_system.env.run(until=5.5)
        collected = len(sampler.samples)
        assert collected >= 5
        sampler.stop()
        small_system.env.run(until=20.0)
        assert len(sampler.samples) == collected
        assert not sampler.running

    def test_max_samples_bounds_memory(self, small_system):
        sampler = Sampler(small_system, interval=1.0, max_samples=3)
        sampler.start()
        small_system.env.run(until=10.0)
        assert len(sampler.samples) == 3
        assert not sampler.running

    def test_max_samples_validation(self, small_system):
        with pytest.raises(ValueError):
            Sampler(small_system, max_samples=0)

    def test_runner_stops_sampler_after_run(self):
        result = run_oltp_experiment(
            "tpcc", 100, "noSSD", duration=4.0,
            profile=SCALE_PROFILES["tiny"], nworkers=2)
        assert not result.sampler.running
        collected = len(result.sampler.samples)
        # Advancing virtual time further must not grow the series.
        result.system.env.run(until=result.system.env.now + 10.0)
        assert len(result.sampler.samples) == collected


class TestSpeedups:
    def test_normalizes_to_nossd(self):
        speedups = speedup_over_nossd({"noSSD": 10.0, "LC": 90.0, "DW": 20.0})
        assert speedups["LC"] == pytest.approx(9.0)
        assert speedups["noSSD"] == pytest.approx(1.0)

    def test_zero_baseline(self):
        assert speedup_over_nossd({"noSSD": 0.0, "LC": 5.0})["LC"] == 0.0


class TestReport:
    def test_format_table_aligns(self):
        text = format_table("T", ["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1

    def test_format_series_sparkline(self):
        text = format_series("S", [(0.0, 1.0), (1.0, 2.0)])
        assert "#" in text

    def test_format_series_empty(self):
        assert "empty" in format_series("S", [])

    def test_format_speedups(self):
        text = format_speedups("F5", {"1K": {"DW": 2.0, "LC": 9.0, "TAC": 1.5}})
        assert "9.00x" in text
