"""Tracer behaviour and Chrome trace_event export schema."""

import json

import pytest

from repro.telemetry import TRACE_PID, TRUNCATION_EVENT, Tracer


class FakeClock:
    """A settable virtual clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestRecording:
    def test_instant(self, tracer, clock):
        clock.t = 1.5
        tracer.instant("admit", cat="ssd", track="ssd_manager",
                       args={"page": 7})
        (event,) = tracer.events
        assert event.ph == "i"
        assert event.ts == 1.5
        assert event.track == "ssd_manager"
        assert event.args == {"page": 7}

    def test_complete(self, tracer):
        tracer.complete("flush", 2.0, 3.5, cat="wal", track="wal")
        (event,) = tracer.events
        assert event.ph == "X"
        assert event.ts == 2.0
        assert event.dur == 1.5

    def test_counter(self, tracer, clock):
        clock.t = 4.0
        tracer.counter("ssd_frames", {"used": 10, "dirty": 3})
        (event,) = tracer.events
        assert event.ph == "C"
        assert event.args == {"used": 10, "dirty": 3}

    def test_set_clock_rebinds(self, clock):
        tracer = Tracer()
        tracer.set_clock(clock)
        clock.t = 9.0
        assert tracer.now == 9.0

    def test_max_events_drops(self, clock):
        tracer = Tracer(clock=clock, max_events=2)
        for _ in range(5):
            tracer.instant("e")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)


class TestChromeExport:
    def _trace(self, tracer, clock):
        clock.t = 0.25
        tracer.instant("lambda_crossed", cat="cleaner", track="cleaner")
        tracer.complete("io", 0.1, 0.2, cat="io", track="device:disk")
        tracer.counter("depth", {"q": 2.0})
        return tracer.to_chrome()

    def test_top_level_shape(self, tracer, clock):
        doc = self._trace(tracer, clock)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert isinstance(doc["traceEvents"], list)
        json.dumps(doc)  # must be serializable as-is

    def test_every_event_has_required_keys(self, tracer, clock):
        for event in self._trace(tracer, clock)["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["pid"] == TRACE_PID

    def test_metadata_names_tracks(self, tracer, clock):
        events = self._trace(tracer, clock)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {"repro"} == {e["args"]["name"] for e in meta
                             if e["name"] == "process_name"}
        thread_names = {e["tid"]: e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        data = [e for e in events if e["ph"] != "M"]
        # Every data event's tid resolves to its track's name.
        by_name = {e["name"]: thread_names[e["tid"]] for e in data}
        assert by_name["lambda_crossed"] == "cleaner"
        assert by_name["io"] == "device:disk"
        assert by_name["depth"] == "counters"

    def test_microsecond_scaling(self, tracer, clock):
        events = self._trace(tracer, clock)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        assert by_name["lambda_crossed"]["ts"] == pytest.approx(250_000)
        assert by_name["io"]["ts"] == pytest.approx(100_000)
        assert by_name["io"]["dur"] == pytest.approx(100_000)

    def test_phase_specific_fields(self, tracer, clock):
        events = self._trace(tracer, clock)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        assert by_name["io"]["ph"] == "X" and "dur" in by_name["io"]
        instant = by_name["lambda_crossed"]
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert by_name["depth"]["ph"] == "C"
        assert by_name["depth"]["args"] == {"q": 2.0}

    def test_write_chrome_roundtrip(self, tracer, clock, tmp_path):
        self._trace(tracer, clock)
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == len(tracer.to_chrome()["traceEvents"])


class TestJsonlExport:
    def test_one_parseable_object_per_event(self, tracer, clock, tmp_path):
        clock.t = 1.0
        tracer.instant("a", args={"k": 1})
        tracer.complete("b", 0.0, 1.0)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert lines[0]["args"] == {"k": 1}
        assert lines[1]["dur"] == 1.0
        assert "dur" not in lines[0]  # instants carry no duration


class TestTruncationMarker:
    def _truncated_tracer(self, clock, events=5, cap=2):
        tracer = Tracer(clock=clock, max_events=cap)
        for i in range(events):
            clock.t = float(i)
            tracer.instant("e")
        return tracer

    def test_jsonl_ends_with_marker(self, clock, tmp_path):
        tracer = self._truncated_tracer(clock)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        marker = lines[-1]
        assert marker["name"] == TRUNCATION_EVENT
        assert marker["cat"] == "meta"
        assert marker["args"] == {"dropped": 3, "max_events": 2}
        assert marker["ts"] == tracer.events[-1].ts

    def test_chrome_export_carries_marker_on_named_track(self, clock):
        tracer = self._truncated_tracer(clock)
        events = tracer.to_chrome()["traceEvents"]
        marker = next(e for e in events if e["name"] == TRUNCATION_EVENT)
        assert marker["args"]["dropped"] == 3
        thread_names = {e["tid"]: e["args"]["name"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert thread_names[marker["tid"]] == "meta"

    def test_complete_trace_has_no_marker(self, tracer, clock, tmp_path):
        tracer.instant("only")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        assert TRUNCATION_EVENT not in path.read_text()
        chrome = tracer.to_chrome()["traceEvents"]
        assert all(e["name"] != TRUNCATION_EVENT for e in chrome)
