"""The parallel sweep runner's on-disk cache: keys, hits, corruption."""

import dataclasses
import json

import pytest

from repro.harness.experiments import run
from repro.harness.runner import RunResult
from repro.harness.sweep import (
    SNAPSHOT_VERSION,
    RunSpec,
    cache_load,
    cache_store,
    run_cached,
    run_sweep,
    spec_key,
    summarize,
)

SPEC = RunSpec(kind="oltp", benchmark="tpcc", scale=20, design="LC",
               profile="tiny", duration=4.0, nworkers=4)


@pytest.fixture(scope="module")
def live_result():
    """One shared live run (the slow part happens once per module)."""
    return run(SPEC)


#: A valid value different from SPEC's, for every RunSpec field.  The
#: parametrization below walks ``dataclasses.fields(RunSpec)``, so a new
#: field without an entry here fails collection instead of going
#: unchecked (``ftl`` was missing from the old hand list for four PRs).
OTHER_VALUE = {
    "kind": "traffic", "benchmark": "tpce", "scale": 21, "design": "DW",
    "profile": "small", "duration": 4.5, "nworkers": 5,
    "bucket_seconds": 1.0, "seed": 1, "dirty_threshold": 0.25,
    "checkpoint_interval": 2.0, "expand_reads": True, "ftl": True,
    "partitions": 4, "latch_us": 20.0, "kernel": "wheel",
    "tenants": "all=poisson:rate=50", "queue_limit": 99,
}


class TestSpecKeys:
    def test_key_is_stable(self):
        assert spec_key(SPEC) == spec_key(RunSpec.from_dict(SPEC.to_dict()))

    @pytest.mark.parametrize("field,value", [
        (f.name, OTHER_VALUE[f.name]) for f in dataclasses.fields(RunSpec)])
    def test_any_config_field_change_moves_the_key(self, field, value):
        data = SPEC.to_dict()
        data[field] = value
        if field == "kind":  # an open-loop run needs its tenants
            data["tenants"] = OTHER_VALUE["tenants"]
        assert spec_key(RunSpec.from_dict(data)) != spec_key(SPEC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(kind="nope", benchmark="tpcc", scale=1, design="LC")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(kind="oltp", benchmark="tpcc", scale=1, design="LC",
                    profile="gigantic")


class TestRoundTrip:
    def test_hit_returns_bit_identical_metrics(self, live_result, tmp_path):
        cache_store(SPEC, live_result.to_dict(), tmp_path)
        restored = cache_load(SPEC, tmp_path)
        assert restored.buckets == live_result.buckets
        assert restored.txn_counts == live_result.txn_counts
        assert (restored.steady_state_throughput()
                == live_result.steady_state_throughput())
        assert restored.throughput_series() == live_result.throughput_series()
        assert restored.metrics() == live_result.metrics()
        # The record of the restored result reproduces the stored bytes.
        assert (json.dumps(restored.to_dict(), sort_keys=True)
                == json.dumps(live_result.to_dict(), sort_keys=True))

    def test_restored_system_counters_match(self, live_result, tmp_path):
        cache_store(SPEC, live_result.to_dict(), tmp_path)
        got = cache_load(SPEC, tmp_path)
        assert got.system is None
        live_sys = live_result.system
        assert got.bp_stats.as_dict() == live_sys.bp.stats.as_dict()
        assert (got.ssd_stats.as_dict()
                == live_sys.ssd_manager.stats.as_dict())
        assert got.ssd_dirty_frames == live_sys.ssd_manager.dirty_frames
        assert got.ssd_used_frames == live_sys.ssd_manager.used_frames
        assert (got.ssd_invalid_frames
                == live_sys.ssd_manager.table.invalid_count)
        assert (got.ssd_dirty_limit_frames
                == live_sys.ssd_manager.config.dirty_limit_frames)
        assert (got.checkpoints_taken
                == live_sys.checkpointer.checkpoints_taken)
        assert (got.checkpoints_started
                == live_sys.checkpointer.checkpoints_started)
        assert got.checkpoint_durations == live_sys.checkpointer.durations

    def test_restored_sampler_and_latencies_work(self, live_result,
                                                 tmp_path):
        cache_store(SPEC, live_result.to_dict(), tmp_path)
        restored = cache_load(SPEC, tmp_path)
        assert (restored.sampler.fill_time(1)
                == live_result.sampler.fill_time(1))
        assert (restored.sampler.dirty_cross_time(0)
                == live_result.sampler.dirty_cross_time(0))
        assert [vars(s) for s in restored.sampler.samples] \
            == [vars(s) for s in live_result.sampler.samples]
        assert restored.latencies.summary() == live_result.latencies.summary()

    def test_config_change_is_a_miss(self, live_result, tmp_path):
        cache_store(SPEC, live_result.to_dict(), tmp_path)
        other = RunSpec.from_dict({**SPEC.to_dict(), "seed": 999})
        assert cache_load(other, tmp_path) is None


class TestCorruption:
    def test_missing_cache_dir_is_a_miss(self, tmp_path):
        assert cache_load(SPEC, tmp_path / "nope") is None

    def test_truncated_file_recomputes_not_crashes(self, live_result,
                                                   tmp_path):
        path = cache_store(SPEC, live_result.to_dict(), tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache_load(SPEC, tmp_path) is None

    def test_garbage_file_recomputes_not_crashes(self, live_result,
                                                 tmp_path):
        path = cache_store(SPEC, live_result.to_dict(), tmp_path)
        path.write_text("not json at all {{{")
        assert cache_load(SPEC, tmp_path) is None

    def test_wrong_structure_recomputes_not_crashes(self, live_result,
                                                    tmp_path):
        path = cache_store(SPEC, live_result.to_dict(), tmp_path)
        path.write_text(json.dumps({"record": {"kind": "martian"}}))
        assert cache_load(SPEC, tmp_path) is None
        path.write_text(json.dumps({"unexpected": 1}))
        assert cache_load(SPEC, tmp_path) is None
        record = live_result.to_dict()
        del record["bp_stats"]
        path.write_text(json.dumps({"record": record}))
        assert cache_load(SPEC, tmp_path) is None

    def test_run_cached_recovers_from_corruption(self, tmp_path):
        spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10,
                       design="noSSD", profile="tiny", duration=2.0,
                       nworkers=2)
        first = run_cached(spec, tmp_path)
        path = tmp_path / f"{spec_key(spec)}.json"
        path.write_text("corrupted")
        second = run_cached(spec, tmp_path)  # recomputes silently
        assert second.buckets == first.buckets
        # And the cache file was rewritten with a valid snapshot.
        assert cache_load(spec, tmp_path) is not None


class TestSweep:
    def test_serial_sweep_caches_and_summarizes(self, tmp_path):
        specs = [
            RunSpec(kind="oltp", benchmark="tpcc", scale=10, design=design,
                    profile="tiny", duration=2.0, nworkers=2)
            for design in ("noSSD", "LC")
        ]
        lines = []
        first = run_sweep(specs, workers=1, directory=tmp_path,
                          progress=lines.append)
        assert first.computed == 2 and first.cached == 0
        assert len(lines) == 2
        second = run_sweep(specs, workers=1, directory=tmp_path)
        assert second.cached == 2 and second.computed == 0
        for spec in specs:
            assert (second.results[spec].buckets
                    == first.results[spec].buckets)
        rows = summarize(second)
        assert [row["spec"]["design"] for row in rows] == ["LC", "noSSD"]
        assert all(row["metric"] == "tpmC" for row in rows)

    def test_duplicate_specs_collapse(self, tmp_path):
        spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10,
                       design="noSSD", profile="tiny", duration=2.0,
                       nworkers=2)
        report = run_sweep([spec, spec, spec], workers=1,
                           directory=tmp_path)
        assert len(report.results) == 1
        assert report.computed + report.cached == 1

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_sweep([], workers=0)


class TestSnapshotFaultFields:
    def test_detached_defaults_false_and_round_trips(self, live_result,
                                                     tmp_path):
        assert live_result.to_dict()["ssd_detached"] is False
        cache_store(SPEC, live_result.to_dict(), tmp_path)
        assert cache_load(SPEC, tmp_path).ssd_detached is False

    def test_detached_true_survives_restore(self, live_result):
        record = live_result.to_dict()
        record["ssd_detached"] = True
        restored = RunResult.from_dict(record)
        assert restored.ssd_detached is True
        assert restored.metrics()["ssd_detached"] == 1.0

    def test_old_snapshot_format_is_a_miss(self, live_result, tmp_path):
        """Cache files from before the record format (v2 ``snapshot``
        documents) must miss, not mis-restore: the version is part of
        the key, and a v2 body under a v3 name does not parse."""
        assert SNAPSHOT_VERSION >= 3
        path = cache_store(SPEC, live_result.to_dict(), tmp_path)
        path.write_text(json.dumps({
            "spec": SPEC.to_dict(),
            "snapshot": {"kind": "oltp", "design": "LC", "buckets": [1]}}))
        assert cache_load(SPEC, tmp_path) is None


class TestSweepRecording:
    def specs(self):
        return [
            RunSpec(kind="oltp", benchmark="tpcc", scale=10, design=design,
                    profile="tiny", duration=2.0, nworkers=2)
            for design in ("noSSD", "LC")
        ]

    def test_live_and_cached_runs_record_alike(self, tmp_path):
        from repro.runstore.store import Recorder, RunStore

        with RunStore(tmp_path / "runs.db") as store:
            recorder = Recorder(store)
            first = run_sweep(self.specs(), workers=1, directory=tmp_path,
                              recorder=recorder)
            assert recorder.recorded == 2 and first.computed == 2
            second = run_sweep(self.specs(), workers=1,
                               directory=tmp_path, recorder=recorder)
            assert recorder.recorded == 4 and second.cached == 2

            runs = store.list_runs()
            assert len(runs) == 4
            # The replayed cache hit recorded the same metrics row as
            # the live run (modulo the run id / timestamp).
            by_design = {}
            for run in runs:
                by_design.setdefault(run["design"], []).append(
                    store.metrics_for(run["id"]))
            for design, metric_rows in by_design.items():
                assert metric_rows[0] == metric_rows[1], design

    def test_recording_failure_does_not_fail_the_sweep(self, tmp_path):
        from repro.runstore.store import Recorder, StoreError

        class ExplodingStore:
            path = "exploding.db"

            def record_result(self, spec, result, faults, provenance):
                raise StoreError("disk on fire")

        lines = []
        recorder = Recorder(ExplodingStore(), say=lines.append)
        report = run_sweep(self.specs(), workers=1, directory=tmp_path,
                           recorder=recorder)
        assert recorder.recorded == 0
        assert report.computed == 2  # every run still completed
        assert any("disk on fire" in line for line in lines)
