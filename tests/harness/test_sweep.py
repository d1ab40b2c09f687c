"""The parallel sweep runner's reuse of recorded runs: keys, hits,
corrupt records."""

import dataclasses
import json
import zlib

import pytest

from repro.harness.experiments import run
from repro.harness.runner import RunResult
from repro.harness.sweep import RunSpec, run_sweep, summarize
from repro.runstore.store import Recorder, RunStore, StoreError

SPEC = RunSpec(kind="oltp", benchmark="tpcc", scale=20, design="LC",
               profile="tiny", duration=4.0, nworkers=4)


@pytest.fixture(scope="module")
def live_result():
    """One shared live run (the slow part happens once per module)."""
    return run(SPEC)


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.db") as opened:
        yield opened


def keep(store, spec, result):
    """Record ``result`` as a live run of ``spec`` (with its record);
    returns the run id."""
    return store.record_result(spec, result, record=result.to_dict())


def set_body(store, run_id, body):
    """Overwrite one run's stored record with ``body`` bytes."""
    with store._write() as conn:
        conn.execute("UPDATE records SET body = ? WHERE run_id = ?",
                     (body, run_id))


@pytest.fixture(scope="module")
def kept(tmp_path_factory, live_result):
    """A store holding SPEC's record, shared by the key tests."""
    with RunStore(tmp_path_factory.mktemp("kept") / "runs.db") as opened:
        keep(opened, SPEC, live_result)
        yield opened


#: A valid value different from SPEC's, for every RunSpec field.  The
#: parametrization below walks ``dataclasses.fields(RunSpec)``, so a new
#: field without an entry here fails collection instead of going
#: unchecked (``ftl`` was missing from the old hand list for four PRs).
OTHER_VALUE = {
    "kind": "traffic", "benchmark": "tpce", "scale": 21, "design": "DW",
    "profile": "small", "duration": 4.5, "nworkers": 5,
    "bucket_seconds": 1.0, "seed": 1, "dirty_threshold": 0.25,
    "checkpoint_interval": 2.0, "expand_reads": True, "ftl": True,
    "partitions": 4, "latch_us": 20.0, "tenants": "all=poisson:rate=50",
    "queue_limit": 99,
}


class TestSpecKeys:
    def test_key_is_stable(self, kept):
        assert kept.find_result(RunSpec.from_dict(SPEC.to_dict())) \
            is not None

    @pytest.mark.parametrize("field,value", [
        (f.name, OTHER_VALUE[f.name]) for f in dataclasses.fields(RunSpec)])
    def test_any_config_field_change_moves_the_key(self, kept, field,
                                                   value):
        data = SPEC.to_dict()
        data[field] = value
        if field == "kind":  # an open-loop run needs its tenants
            data["tenants"] = OTHER_VALUE["tenants"]
        assert kept.find_result(RunSpec.from_dict(data)) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(kind="nope", benchmark="tpcc", scale=1, design="LC")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(kind="oltp", benchmark="tpcc", scale=1, design="LC",
                    profile="gigantic")


class TestRoundTrip:
    def test_hit_returns_bit_identical_metrics(self, live_result, kept):
        restored = kept.find_result(SPEC)
        assert restored.buckets == live_result.buckets
        assert restored.txn_counts == live_result.txn_counts
        assert (restored.steady_state_throughput()
                == live_result.steady_state_throughput())
        assert restored.throughput_series() == live_result.throughput_series()
        assert restored.metrics() == live_result.metrics()
        # The record of the restored result reproduces the stored bytes.
        assert (json.dumps(restored.to_dict(), sort_keys=True)
                == json.dumps(live_result.to_dict(), sort_keys=True))

    def test_restored_system_counters_match(self, live_result, kept):
        got = kept.find_result(SPEC)
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

    def test_restored_sampler_and_latencies_work(self, live_result, kept):
        restored = kept.find_result(SPEC)
        assert (restored.sampler.fill_time(1)
                == live_result.sampler.fill_time(1))
        assert (restored.sampler.dirty_cross_time(0)
                == live_result.sampler.dirty_cross_time(0))
        assert [vars(s) for s in restored.sampler.samples] \
            == [vars(s) for s in live_result.sampler.samples]
        assert restored.latencies.summary() == live_result.latencies.summary()

    def test_config_change_is_a_miss(self, kept):
        other = RunSpec.from_dict({**SPEC.to_dict(), "seed": 999})
        assert kept.find_result(other) is None

    def test_a_changed_source_hash_is_a_miss(self, kept, monkeypatch):
        import repro.runstore.store as store_module

        monkeypatch.setattr(store_module, "code_version",
                            lambda: "0123456789abcdef")
        assert kept.find_result(SPEC) is None

    def test_a_faulted_run_is_not_reused_as_a_clean_one(self, live_result,
                                                        store):
        store.record_result(SPEC, live_result, faults="ssd_die@t=1",
                            record=live_result.to_dict())
        assert store.find_result(SPEC) is None

    def test_the_newest_record_is_served(self, live_result, store):
        keep(store, SPEC, live_result)
        newer = live_result.to_dict()
        newer["ssd_detached"] = True
        store.record_result(SPEC, live_result, record=newer)
        assert store.find_result(SPEC).ssd_detached is True


def packed(document):
    return zlib.compress(json.dumps(document).encode())


class TestCorruption:
    def test_empty_store_is_a_miss(self, store):
        assert store.find_result(SPEC) is None

    def test_truncated_file_recomputes_not_crashes(self, live_result,
                                                   store):
        run_id = keep(store, SPEC, live_result)
        body = packed(live_result.to_dict())
        set_body(store, run_id, body[: len(body) // 2])
        assert store.find_result(SPEC) is None
        # Packed, but a truncated document inside.
        text = json.dumps(live_result.to_dict())
        set_body(store, run_id, zlib.compress(text[: len(text) // 2]
                                              .encode()))
        assert store.find_result(SPEC) is None

    def test_garbage_file_recomputes_not_crashes(self, live_result,
                                                 store):
        run_id = keep(store, SPEC, live_result)
        set_body(store, run_id, b"not zlib at all {{{")
        assert store.find_result(SPEC) is None
        set_body(store, run_id, zlib.compress(b"\xff\xfe not utf-8"))
        assert store.find_result(SPEC) is None
        set_body(store, run_id, "text, not a blob")
        assert store.find_result(SPEC) is None

    def test_wrong_structure_recomputes_not_crashes(self, live_result,
                                                    store):
        run_id = keep(store, SPEC, live_result)
        set_body(store, run_id, packed({"kind": "martian"}))
        assert store.find_result(SPEC) is None
        set_body(store, run_id, packed([1, 2, 3]))
        assert store.find_result(SPEC) is None
        record = live_result.to_dict()
        del record["bp_stats"]
        set_body(store, run_id, packed(record))
        assert store.find_result(SPEC) is None

    def test_sweep_recovers_from_a_corrupt_record(self, store):
        spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10,
                       design="noSSD", profile="tiny", duration=2.0,
                       nworkers=2)
        recorder = Recorder(store)
        first = run_sweep([spec], recorder=recorder)
        set_body(store, store.list_runs()[0]["id"], b"corrupted")
        second = run_sweep([spec], recorder=recorder)  # recomputes
        assert second.computed == 1 and second.cached == 0
        assert second.results[spec].buckets == first.results[spec].buckets
        # And the recomputed run kept a record that restores.
        assert store.find_result(spec).buckets == first.results[spec].buckets
        assert run_sweep([spec], recorder=recorder).cached == 1


class TestSweep:
    def test_serial_sweep_caches_and_summarizes(self, store):
        specs = [
            RunSpec(kind="oltp", benchmark="tpcc", scale=10, design=design,
                    profile="tiny", duration=2.0, nworkers=2)
            for design in ("noSSD", "LC")
        ]
        lines = []
        recorder = Recorder(store)
        first = run_sweep(specs, workers=1, progress=lines.append,
                          recorder=recorder)
        assert first.computed == 2 and first.cached == 0
        assert len(lines) == 2
        second = run_sweep(specs, workers=1, recorder=recorder)
        assert second.cached == 2 and second.computed == 0
        for spec in specs:
            assert (second.results[spec].buckets
                    == first.results[spec].buckets)
        rows = summarize(second)
        assert [row["spec"]["design"] for row in rows] == ["LC", "noSSD"]
        assert all(row["metric"] == "tpmC" for row in rows)

    def test_duplicate_specs_collapse(self, store):
        spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10,
                       design="noSSD", profile="tiny", duration=2.0,
                       nworkers=2)
        recorder = Recorder(store)
        report = run_sweep([spec, spec, spec], workers=1, recorder=recorder)
        assert len(report.results) == 1
        assert report.computed + report.cached == 1
        assert recorder.recorded == 1

    def test_without_a_store_every_spec_runs_live(self, store):
        spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10,
                       design="noSSD", profile="tiny", duration=2.0,
                       nworkers=2)
        run_sweep([spec], recorder=Recorder(store))
        for recorder in (None, Recorder(None)):
            report = run_sweep([spec], recorder=recorder)
            assert report.computed == 1 and report.cached == 0
        no_reuse = run_sweep([spec], use_cache=False,
                             recorder=Recorder(store))
        assert no_reuse.computed == 1 and no_reuse.cached == 0

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_sweep([], workers=0)


class TestSnapshotFaultFields:
    def test_detached_defaults_false_and_round_trips(self, live_result,
                                                     kept):
        assert live_result.to_dict()["ssd_detached"] is False
        assert kept.find_result(SPEC).ssd_detached is False

    def test_detached_true_survives_restore(self, live_result):
        record = live_result.to_dict()
        record["ssd_detached"] = True
        restored = RunResult.from_dict(record)
        assert restored.ssd_detached is True
        assert restored.metrics()["ssd_detached"] == 1.0

    def test_old_snapshot_format_is_a_miss(self, live_result, store):
        """A record in an older document shape (a ``snapshot`` document
        wrapped with its spec) must miss, not mis-restore."""
        run_id = keep(store, SPEC, live_result)
        set_body(store, run_id, packed({
            "spec": SPEC.to_dict(),
            "snapshot": {"kind": "oltp", "design": "LC", "buckets": [1]}}))
        assert store.find_result(SPEC) is None


class TestSweepRecording:
    def specs(self):
        return [
            RunSpec(kind="oltp", benchmark="tpcc", scale=10, design=design,
                    profile="tiny", duration=2.0, nworkers=2)
            for design in ("noSSD", "LC")
        ]

    def test_live_and_cached_runs_record_alike(self, store):
        recorder = Recorder(store)
        first = run_sweep(self.specs(), workers=1, recorder=recorder)
        assert recorder.recorded == 2 and first.computed == 2
        second = run_sweep(self.specs(), workers=1, recorder=recorder)
        assert recorder.recorded == 4 and second.cached == 2

        runs = store.list_runs()
        assert len(runs) == 4
        # The reused run recorded the same metrics row as the live run
        # (modulo the run id / timestamp), and no second record.
        by_design = {}
        for run in runs:
            by_design.setdefault(run["design"], []).append(
                store.metrics_for(run["id"]))
        for design, metric_rows in by_design.items():
            assert metric_rows[0] == metric_rows[1], design
        kept_ids = [row["run_id"] for row in store._rows(
            "SELECT run_id FROM records ORDER BY run_id", [])]
        assert kept_ids == sorted(run["id"] for run in runs)[:2]

    def test_recording_failure_does_not_fail_the_sweep(self):
        class ExplodingStore:
            path = "exploding.db"

            def find_result(self, spec):
                raise StoreError("disk on fire")

            def record_result(self, spec, result, faults, record):
                raise StoreError("disk on fire")

        lines = []
        recorder = Recorder(ExplodingStore(), say=lines.append)
        report = run_sweep(self.specs(), workers=1, recorder=recorder)
        assert recorder.recorded == 0
        assert report.computed == 2  # every run still completed
        assert [line for line in lines if "disk on fire" in line] \
            == lines[:1]
