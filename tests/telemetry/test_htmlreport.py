"""HTML report rendering."""

import pytest

from repro.telemetry.analysis import DesignAnalysis, TxnRecord
from repro.telemetry.htmlreport import render_report, write_report


def make_analysis(design: str, slow: float = 0.010) -> DesignAnalysis:
    analysis = DesignAnalysis(path=f"{design}.jsonl", design=design,
                              benchmark="tpcc", scale=100, duration=10.0)
    analysis.txns = [
        TxnRecord(1, "new_order", 0.0, slow,
                  components={"disk_read": slow * 0.6,
                              "wal_flush": slow * 0.4}),
        TxnRecord(2, "payment", 0.5, 0.002,
                  components={"wal_flush": 0.002}),
    ]
    analysis.series = {
        "hit_ratio": [(1.0, 0.5), (2.0, 0.8)],
        "ssd_dirty_fraction": [(1.0, 0.1), (2.0, 0.3)],
        "ssd_dirty": [(1.0, 5.0), (2.0, 9.0)],
    }
    analysis.background_io = {"cleaner": {"busy": 0.004, "ios": 1.0}}
    return analysis


@pytest.fixture
def analyses():
    return [make_analysis("CW"), make_analysis("LC", slow=0.004)]


class TestRenderReport:
    def test_self_contained_document(self, analyses):
        html_text = render_report(analyses, "oltp")
        assert html_text.startswith("<!doctype html>")
        assert "<script src" not in html_text
        assert "http://" not in html_text and "https://" not in html_text

    def test_three_time_series_charts(self, analyses):
        html_text = render_report(analyses, "oltp")
        assert html_text.count("<svg") >= 3
        assert html_text.count("<polyline") >= 6  # 2 designs x 3 charts

    def test_legend_names_both_designs(self, analyses):
        html_text = render_report(analyses, "oltp")
        assert 'class="legend"' in html_text
        assert "CW" in html_text and "LC" in html_text

    def test_single_design_needs_no_legend(self, analyses):
        html_text = render_report(analyses[:1], "oltp")
        assert 'class="legend"' not in html_text

    def test_attribution_and_latency_tables(self, analyses):
        html_text = render_report(analyses, "oltp")
        assert "Tail-latency attribution (ms)" in html_text
        assert "Transaction latency (ms)" in html_text
        assert "disk_read" in html_text

    def test_txn_type_filters_the_tables(self, analyses):
        everything = render_report(analyses, "oltp")
        html_text = render_report(analyses, "oltp", txn_type="payment")
        assert html_text != everything
        assert "Tail-latency attribution (ms) — payment" in html_text
        assert "disk_read" not in html_text    # new_order's component only

    def test_tables_of_the_terminal_report(self, analyses):
        """The tenant, fault and flash tables, which only the terminal
        had, are in the report when a trace holds them."""
        assert "Fault events" not in render_report(analyses, "oltp")
        analyses[1].faults = {"ssd_detached": 1}
        analyses[1].ftl = {"host_writes": 10.0, "nand_writes": 12.0,
                           "erases": 1.0, "waf": 1.2}
        analyses[1].txns[0].tenant = "gold"
        html_text = render_report(analyses, "oltp")
        for title in ("Per-tenant latency (ms)", "Background device-time "
                      "share", "Fault events", "Flash internals"):
            assert f"<caption>{title}" in html_text

    def test_dark_mode_palette_present(self, analyses):
        html_text = render_report(analyses, "oltp")
        assert "prefers-color-scheme: dark" in html_text
        assert "--s1" in html_text

    def test_truncation_warning_shown(self, analyses):
        analyses[0].dropped = 1234
        html_text = render_report(analyses, "oltp")
        assert "truncated" in html_text
        assert "1,234" in html_text

    def test_design_names_escaped(self):
        analysis = make_analysis("<script>")
        html_text = render_report([analysis], "oltp")
        assert "<script>" not in html_text
        assert "&lt;script&gt;" in html_text

    def test_write_report(self, analyses, tmp_path):
        path = tmp_path / "report.html"
        write_report(str(path), analyses, "oltp")
        assert path.read_text().startswith("<!doctype html>")
