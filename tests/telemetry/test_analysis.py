"""Trace analysis: loading, attribution, tables."""

import pytest

from repro.harness.report import format_table
from repro.telemetry import CLEANER_CTX, EVICTION_CTX, TraceContext, Tracer
from repro.telemetry.analysis import (
    Attribution,
    analyze_trace,
    analyze_traces,
    attribution_table,
    ftl_table,
    interference_table,
    load_events,
    tenant_table,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def build_trace(tracer: Tracer) -> None:
    """A hand-built two-transaction run with background noise.

    txn 1 (new_order): 10 ms total = 4 ms disk read + 5 ms wal + 1 ms latch
    txn 2 (payment):    2 ms total = 2 ms wal
    Plus one cleaner write, one eviction write, and sampler counters.
    """
    tracer.instant("run_meta", "meta", "meta",
                   {"design": "LC", "benchmark": "tpcc", "scale": 100,
                    "duration": 10.0})
    t1 = TraceContext.for_txn(1, "new_order")
    t2 = TraceContext.for_txn(2, "payment")
    # Leaf waits precede their txn span (it is recorded at commit).
    tracer.complete("latch_wait", 0.000, 0.001, "bp", "buffer_pool", ctx=t1)
    tracer.complete("bp_miss", 0.001, 0.005, "bp", "buffer_pool",
                    {"page": 9, "src": "disk"}, ctx=t1)
    tracer.complete("random_read", 0.001, 0.005, "io", "device:hdd-array",
                    ctx=t1)
    tracer.complete("wal_wait", 0.005, 0.010, "wal", "wal", ctx=t1)
    tracer.complete("new_order", 0.0, 0.010, "txn", "txn",
                    {"writes": 2}, ctx=t1)
    tracer.complete("wal_wait", 0.004, 0.006, "wal", "wal", ctx=t2)
    tracer.complete("payment", 0.004, 0.006, "txn", "txn",
                    {"writes": 1}, ctx=t2)
    # Background device time.
    tracer.complete("sequential_write", 0.002, 0.006, "io",
                    "device:hdd-array", ctx=CLEANER_CTX)
    tracer.complete("random_write", 0.001, 0.003, "io", "device:ssd",
                    ctx=EVICTION_CTX)
    # Orphan: txn 99 never committed.
    tracer.complete("latch_wait", 0.008, 0.009, "bp", "buffer_pool",
                    ctx=TraceContext.for_txn(99, "delivery"))
    # Sampler counters (cumulative bp_requests).
    for ts, hits, misses, ssd_hits, dirty in (
            (1.0, 10, 10, 2, 0.1), (2.0, 40, 20, 10, 0.3)):
        tracer._clock.t = ts
        tracer.counter("bp_requests", {"hits": hits, "misses": misses,
                                       "ssd_hits": ssd_hits},
                       track="sampler")
        tracer.counter("ssd_dirty_fraction", {"fraction": dirty},
                       track="sampler")
        tracer.counter("ssd_frames", {"used": 50, "dirty": 5},
                       track="sampler")
        tracer.counter("pending_ios", {"disk": 3, "ssd": 1},
                       track="sampler")


@pytest.fixture
def trace_path(tmp_path):
    tracer = Tracer(clock=FakeClock())
    build_trace(tracer)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    return str(path)


@pytest.fixture
def analysis(trace_path):
    return analyze_trace(trace_path)


class TestLoadEvents:
    def test_jsonl(self, trace_path):
        events = load_events(trace_path)
        assert any(e["name"] == "new_order" for e in events)

    def test_chrome_roundtrips_to_same_analysis(self, tmp_path, trace_path):
        tracer = Tracer(clock=FakeClock())
        build_trace(tracer)
        chrome = tmp_path / "trace.json"
        tracer.write_chrome(str(chrome))
        from_chrome = analyze_trace(str(chrome))
        from_jsonl = analyze_trace(trace_path)
        assert len(from_chrome.txns) == len(from_jsonl.txns)
        a, b = from_chrome.txns[0], from_jsonl.txns[0]
        assert a.components == pytest.approx(b.components)
        assert a.latency == pytest.approx(b.latency)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_events(str(path)) == []

    def test_garbage_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            load_events(str(path))


class TestAnalyzeTrace:
    def test_run_meta_extracted(self, analysis):
        assert analysis.design == "LC"
        assert analysis.benchmark == "tpcc"
        assert analysis.scale == 100
        assert analysis.duration == 10.0

    def test_transactions_reconstructed(self, analysis):
        assert [t.txn_id for t in analysis.txns] == [1, 2]
        first = analysis.txns[0]
        assert first.txn_type == "new_order"
        assert first.latency == pytest.approx(0.010)
        assert first.writes == 2

    def test_components_partition_latency(self, analysis):
        first = analysis.txns[0]
        assert first.components == pytest.approx(
            {"latch": 0.001, "disk_read": 0.004, "wal_flush": 0.005})
        assert sum(first.components.values()) == pytest.approx(
            first.latency)

    def test_envelope_span_not_double_counted(self, analysis):
        # bp_miss encloses the disk read; only the read is summed.
        first = analysis.txns[0]
        assert sum(first.components.values()) <= first.latency + 1e-12

    def test_orphan_events_counted(self, analysis):
        assert analysis.orphan_events == 1

    def test_background_io_by_origin(self, analysis):
        assert analysis.background_io["cleaner"]["busy"] == pytest.approx(
            0.004)
        assert analysis.background_io["eviction"]["ios"] == 1.0

    def test_interference_share(self, analysis):
        # Device seconds: txn disk read 4 ms + cleaner 4 ms + eviction 2 ms.
        assert analysis.interference_share("cleaner") == pytest.approx(
            0.004 / 0.010)

    def test_hit_ratio_series_from_cumulative_counters(self, analysis):
        ((ts, ratio),) = analysis.series["hit_ratio"]
        assert ts == 2.0
        assert ratio == pytest.approx(30 / 40)
        ((_, ssd_ratio),) = analysis.series["ssd_hit_ratio"]
        assert ssd_ratio == pytest.approx(8 / 10)

    def test_sampled_series_present(self, analysis):
        for key in ("ssd_dirty_fraction", "ssd_dirty", "disk_pending",
                    "ssd_pending"):
            assert len(analysis.series[key]) == 2

    def test_truncation_detected(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock, max_events=3)
        build_trace(tracer)
        path = tmp_path / "cut.jsonl"
        tracer.write_jsonl(str(path))
        cut = analyze_trace(str(path))
        assert cut.truncated
        assert cut.dropped > 0


class TestAttribution:
    def test_p50_covers_both_txns_threshold(self, analysis):
        att = analysis.attribution(50)
        assert isinstance(att, Attribution)
        assert att.count >= 1
        assert att.coverage == pytest.approx(1.0)

    def test_p99_selects_the_tail(self, analysis):
        att = analysis.attribution(99)
        assert att.count == 1
        assert att.mean_latency == pytest.approx(0.010)
        assert att.dominant == "wal_flush"

    def test_txn_type_filter(self, analysis):
        att = analysis.attribution(50, txn_type="payment")
        assert att.count == 1
        assert att.components == pytest.approx({"wal_flush": 0.002})

    def test_shares_sum_to_one(self, analysis):
        shares = analysis.attribution(50).shares()
        assert sum(share for _, share in shares) == pytest.approx(1.0)

    def test_latency_summary(self, analysis):
        summary = analysis.latency_summary()
        assert summary["count"] == 2
        assert summary["p99"] == pytest.approx(0.010, rel=0.01)


class TestTables:
    def test_attribution_table_renders(self, analysis):
        text = format_table(*attribution_table([analysis]))
        assert "LC" in text
        assert "p99" in text
        assert "wal_flush" in text
        assert "coverage" in text

    def test_interference_table_renders(self, analysis):
        text = format_table(*interference_table([analysis]))
        assert "cleaner" in text and "eviction" in text

    def test_tenant_table_has_a_row_per_tenant(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("run_meta", "meta", "meta", {"design": "DW"})
        spans = (("gold", 0.002), ("gold", 0.004), ("noisy", 0.030))
        for txn_id, (tenant, latency) in enumerate(spans, start=1):
            tracer.complete(
                "payment", 0.0, latency, "txn", "txn",
                ctx=TraceContext.for_txn(txn_id, "payment", tenant=tenant))
        path = tmp_path / "tenants.jsonl"
        tracer.write_jsonl(str(path))
        lines = format_table(
            *tenant_table([analyze_trace(str(path))])).splitlines()
        assert lines[0] == "Per-tenant latency (ms)"     # CI greps this
        rows = [line.split() for line in lines[4:]]
        assert [row[:3] for row in rows] == [["DW", "gold", "2"],
                                             ["DW", "noisy", "1"]]
        assert float(rows[0][3]) == pytest.approx(3.0)      # mean, in ms
        assert float(rows[1][5]) == pytest.approx(30.0)     # p99

    def test_ftl_table_reads_the_last_sample_and_counts_gc(self, tmp_path,
                                                           analysis):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("run_meta", "meta", "meta", {"design": "LS"})
        for host, nand, erases in ((100, 104, 1), (400, 424, 6)):
            tracer.counter("ftl", {"host_writes": host, "nand_writes": nand,
                                   "erases": erases}, track="sampler")
        for _ in range(3):
            tracer.instant("ftl_gc", "io", "device:ssd", {"erases": 2})
        path = tmp_path / "ftl.jsonl"
        tracer.write_jsonl(str(path))
        # ``analysis`` (the LC fixture) ran the black-box SSD: dashes.
        lines = format_table(
            *ftl_table([analyze_trace(str(path)), analysis])).splitlines()
        assert lines[0] == "Flash internals (write amplification)"
        rows = {line.split()[0]: line.split()[1:] for line in lines[4:]}
        assert rows["LS"] == ["400", "424", "6", "1.060", "3"]
        assert rows["LC"] == ["-"] * 5


class TestAnalyzeTraces:
    def test_multiple_paths(self, trace_path):
        analyses = analyze_traces([trace_path, trace_path])
        assert len(analyses) == 2
        assert all(a.design == "LC" for a in analyses)
