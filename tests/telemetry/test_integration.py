"""End-to-end telemetry over a real (tiny) LC run.

One short run is shared by the whole module; the assertions check that
the instrumented hot paths actually fire, that registry counters agree
with the engine's own statistics, and that a telemetry-free run stays
dark.
"""

import json

import pytest

from repro.harness.experiments import SCALE_PROFILES, run_oltp_experiment
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def traced_run():
    telemetry = Telemetry()
    result = run_oltp_experiment(
        "tpcc", 100, "LC", duration=5.0,
        profile=SCALE_PROFILES["tiny"], nworkers=4,
        dirty_threshold=0.01, telemetry=telemetry)
    return telemetry, result


class TestEventCoverage:
    def test_all_component_categories_present(self, traced_run):
        telemetry, _ = traced_run
        cats = {event.cat for event in telemetry.tracer.events}
        assert {"bp", "ssd", "cleaner", "io", "counter"} <= cats

    def test_tracks_cover_the_engine(self, traced_run):
        telemetry, _ = traced_run
        tracks = {event.track for event in telemetry.tracer.events}
        assert "cleaner" in tracks
        assert "ssd_manager" in tracks
        assert "sampler" in tracks
        assert any(track.startswith("device:") for track in tracks)

    def test_events_use_virtual_time(self, traced_run):
        telemetry, result = traced_run
        assert all(0.0 <= event.ts <= result.system.env.now + 1e-9
                   for event in telemetry.tracer.events)

    def test_chrome_export_is_valid_json(self, traced_run, tmp_path):
        telemetry, _ = traced_run
        path = tmp_path / "trace.json"
        telemetry.tracer.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestMetricsAgreeWithStats:
    def test_buffer_pool_counters(self, traced_run):
        telemetry, result = traced_run
        registry = telemetry.registry
        stats = result.system.bp.stats
        requests = registry.get("bp_requests_total")
        assert requests.labels(result="hit").value == stats.hits
        assert requests.labels(result="ssd_hit").value == stats.ssd_hits
        evictions = registry.get("bp_evictions_total")
        assert evictions.labels(kind="clean").value == stats.evictions_clean
        assert evictions.labels(kind="dirty").value == stats.evictions_dirty

    def test_wal_record_counter_reads_the_lsn_counter(self, traced_run):
        telemetry, result = traced_run
        wal = result.system.wal
        assert wal.tail_lsn >= 0
        assert (telemetry.registry.get("wal_records_total").value
                == wal.tail_lsn + 1)

    def test_ssd_manager_counters(self, traced_run):
        telemetry, result = traced_run
        registry = telemetry.registry
        stats = result.system.ssd_manager.stats
        assert registry.get("ssd_mgr_writes_total").value == stats.writes
        assert registry.get("ssd_mgr_reads_total").value == stats.reads
        assert (registry.get("ssd_mgr_invalidations_total").value
                == stats.invalidations)

    def test_cleaner_actually_ran(self, traced_run):
        telemetry, _ = traced_run
        assert telemetry.registry.get("lc_cleaner_rounds_total").value > 0
        assert telemetry.registry.get("lc_cleaner_pages_total").value > 0

    def test_txn_latencies_match_tracker(self, traced_run):
        telemetry, result = traced_run
        family = telemetry.registry.get("txn_latency_seconds")
        total = sum(child.count for child in family.children())
        assert total == result.latencies.count()

    def test_gauges_read_live_state(self, traced_run):
        telemetry, result = traced_run
        manager = result.system.ssd_manager
        assert (telemetry.registry.get("ssd_used_frames").value
                == manager.used_frames)
        assert (telemetry.registry.get("bp_used_frames").value
                == result.system.bp.used)


class TestAttributionCoverage:
    """The tentpole acceptance check: the ctx-tagged leaf spans must
    partition each transaction's latency (sum within 5% of measured)."""

    @pytest.fixture(scope="class")
    def analysis(self, traced_run, tmp_path_factory):
        from repro.telemetry.analysis import analyze_trace
        telemetry, _ = traced_run
        path = tmp_path_factory.mktemp("analysis") / "trace.jsonl"
        telemetry.tracer.write_jsonl(str(path))
        return analyze_trace(str(path))

    def test_transactions_reconstructed(self, analysis):
        assert len(analysis.txns) > 100
        assert "new_order" in analysis.txn_types()

    def test_component_sums_match_latency_at_every_tail(self, analysis):
        for q in (50, 95, 99):
            att = analysis.attribution(q)
            assert att.count > 0
            assert att.coverage == pytest.approx(1.0, abs=0.05), (
                f"p{q}: components sum to {att.coverage:.1%} of latency")

    def test_latency_agrees_with_the_runner(self, traced_run, analysis):
        _, result = traced_run
        # The trace sees every committed transaction; the runner only
        # counts bodies that finished before cutoff, so the two agree
        # within the number of in-flight clients (plus setup txns).
        assert abs(len(analysis.txns) - result.latencies.count()) <= 64
        p99_trace = analysis.latency_summary()["p99"]
        p99_runner = result.latencies.percentile(99)
        assert p99_trace == pytest.approx(p99_runner, rel=0.25)

    def test_device_time_mostly_attributed(self, analysis):
        # Nearly every data/SSD device I/O carries a txn or a background
        # origin.  The exceptions are by design: WAL flush writes belong
        # to the group-commit flusher, and read-ahead's inner parallel
        # I/Os stay ctx-less (the outer prefetch_wait span holds the ctx
        # so overlapping device time is not double-attributed).
        from repro.telemetry.analysis import load_events
        events = load_events(analysis.path)
        device = [e for e in events
                  if e.get("track", "").startswith("device:")
                  and e.get("track") != "device:log-disk"]
        attributed = [e for e in device
                      if {"txn", "origin"} & set(e.get("args") or {})]
        assert device
        assert len(attributed) >= 0.9 * len(device)

    def test_cleaner_interference_measured_for_lc(self, analysis):
        assert "cleaner" in analysis.background_io
        assert 0.0 < analysis.interference_share("cleaner") < 1.0


class TestDisabledRunStaysDark:
    def test_no_registry_rows_without_telemetry(self):
        result = run_oltp_experiment(
            "tpcc", 100, "LC", duration=2.0,
            profile=SCALE_PROFILES["tiny"], nworkers=2)
        telemetry = result.system.telemetry
        assert telemetry.enabled is False
        assert telemetry.registry.snapshot() == []
        assert telemetry.tracer.events == ()
