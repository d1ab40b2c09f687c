"""Fault events in trace analysis: counting and the analyze table."""

from repro.harness.report import format_table
from repro.telemetry import Tracer
from repro.telemetry.analysis import (
    analyze_trace,
    faults_table,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def faulted_trace(tmp_path, name="trace.jsonl"):
    tracer = Tracer(clock=FakeClock())
    tracer.instant("run_meta", "meta", "meta",
                   {"design": "LC", "benchmark": "tpcc", "scale": 100,
                    "duration": 10.0})
    for _ in range(3):
        tracer.instant("fault_transient", "fault", "faults",
                       {"device": "ssd"})
    tracer.instant("io_retry", "fault", "faults",
                   {"device": "ssd", "attempt": 1})
    tracer.instant("ssd_detached", "fault", "faults",
                   {"reason": "ssd_failure", "dropped_frames": 9,
                    "redo_pages": 2})
    tracer.complete("degrade_redo", 1.0, 1.5, "fault", "faults",
                    {"pages": 2})
    path = tmp_path / name
    tracer.write_jsonl(str(path))
    return str(path)


class TestFaultEventCounting:
    def test_fault_category_events_are_tallied_by_name(self, tmp_path):
        analysis = analyze_trace(faulted_trace(tmp_path))
        assert analysis.faults == {
            "fault_transient": 3,
            "io_retry": 1,
            "ssd_detached": 1,
            "degrade_redo": 1,
        }

    def test_clean_run_has_no_faults(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("run_meta", "meta", "meta",
                       {"design": "CW", "benchmark": "tpcc", "scale": 100,
                        "duration": 10.0})
        path = tmp_path / "clean.jsonl"
        tracer.write_jsonl(str(path))
        assert analyze_trace(str(path)).faults == {}


class TestFaultsTable:
    def test_formats_per_design_counts(self, tmp_path):
        analysis = analyze_trace(faulted_trace(tmp_path))
        table = format_table(*faults_table([analysis]))
        assert "Fault events" in table
        assert "fault_transient" in table
        assert "LC" in table
