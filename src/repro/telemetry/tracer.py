"""Structured event tracing against the simulation clock.

Records typed events — *complete* events (operations with a duration: an
eviction write-out, a cleaner round, a checkpoint, one device I/O) and
*instants* (points in time: a λ-crossing, an SSD admission) — on named
tracks, and exports two formats:

* JSONL: one event object per line, for ad-hoc analysis;
* Chrome ``trace_event`` JSON, loadable in ``chrome://tracing`` and
  Perfetto, with one named thread per track so the engine's components
  (buffer pool, cleaner, WAL, each device) appear as parallel swimlanes.

Counter events (``ph: "C"``) carry the sampled time series (SSD
occupancy, queue depths) that back the paper's Figures 6–8.

:class:`NullTracer` is the disabled mode.  Every product call site is
guarded by ``tracer.enabled`` (RPL001 checks this statically,
``tests/telemetry/test_zero_cost.py`` at runtime), so it has no
recording methods at all.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.telemetry.context import TraceContext

#: Synthetic pid for Chrome trace output (one simulated process).
TRACE_PID = 1

#: Event name of the truncation marker appended to exports when events
#: were dropped past ``max_events`` (consumed by ``repro analyze``).
TRUNCATION_EVENT = "trace_truncated"


def _merge_ctx(args: Optional[dict],
               ctx: Optional[TraceContext]) -> Optional[dict]:
    """Fold a trace context's attribution fields into event args."""
    if ctx is None:
        return args
    merged = dict(args) if args else {}
    merged.update(ctx.to_args())
    return merged


class TraceEvent:
    """One recorded event; ``ts``/``dur`` are virtual seconds."""

    __slots__ = ("name", "cat", "ph", "ts", "dur", "track", "args")

    def __init__(self, name: str, cat: str, ph: str, ts: float,
                 dur: Optional[float] = None, track: str = "main",
                 args: Optional[dict] = None):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.track = track
        self.args = args

    def to_dict(self) -> dict:
        """Plain-dict view (the JSONL line format)."""
        out = {"name": self.name, "cat": self.cat, "ph": self.ph,
               "ts": self.ts, "track": self.track}
        if self.dur is not None:
            out["dur"] = self.dur
        if self.args is not None:
            out["args"] = self.args
        return out


class Tracer:
    """Collects :class:`TraceEvent` records against a virtual clock.

    ``clock`` is a zero-argument callable returning the current virtual
    time in seconds (``lambda: env.now``); :meth:`set_clock` rebinds it
    when the environment is created after the tracer.  ``max_events``
    bounds memory: past it, new events are counted in :attr:`dropped`
    instead of stored.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_events: int = 500_000):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._clock = clock or (lambda: 0.0)
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the virtual clock (wiring-time, before any events)."""
        self._clock = clock

    @property
    def now(self) -> float:
        """Current virtual time according to the bound clock."""
        return self._clock()

    def _record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------

    def instant(self, name: str, cat: str = "event", track: str = "main",
                args: Optional[dict] = None,
                ctx: Optional[TraceContext] = None) -> None:
        """Record a point-in-time event at the current clock."""
        self._record(TraceEvent(name, cat, "i", self._clock(),
                                track=track, args=_merge_ctx(args, ctx)))

    def complete(self, name: str, start: float, end: float,
                 cat: str = "span", track: str = "main",
                 args: Optional[dict] = None,
                 ctx: Optional[TraceContext] = None) -> None:
        """Record a finished operation spanning ``[start, end]``."""
        self._record(TraceEvent(name, cat, "X", start, dur=end - start,
                                track=track, args=_merge_ctx(args, ctx)))

    def counter(self, name: str, values: Dict[str, float],
                track: str = "counters") -> None:
        """Record a sampled time-series point (Chrome counter event)."""
        self._record(TraceEvent(name, "counter", "C", self._clock(),
                                track=track, args=dict(values)))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _track_ids(self) -> Dict[str, int]:
        tracks: Dict[str, int] = {}
        for event in self.events:
            if event.track not in tracks:
                tracks[event.track] = len(tracks) + 1
        return tracks

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` JSON object.

        Timestamps are converted to microseconds; each track becomes a
        named thread of one synthetic process via ``thread_name``
        metadata events.
        """
        tracks = self._track_ids()
        marker = self._truncation_event()
        if marker is not None and marker.track not in tracks:
            tracks[marker.track] = len(tracks) + 1
        trace_events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": 0,
            "args": {"name": "repro"},
        }]
        for track, tid in tracks.items():
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": TRACE_PID,
                "tid": tid, "args": {"name": track},
            })
        exported = list(self.events)
        if marker is not None:
            exported.append(marker)
        for event in exported:
            out = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.ph,
                "ts": round(event.ts * 1e6, 3),
                "pid": TRACE_PID,
                "tid": tracks[event.track],
            }
            if event.ph == "X":
                out["dur"] = round((event.dur or 0.0) * 1e6, 3)
            if event.ph == "i":
                out["s"] = "t"  # thread-scoped instant
            if event.args is not None:
                out["args"] = event.args
            trace_events.append(out)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def _truncation_event(self) -> Optional[TraceEvent]:
        """Metadata instant flagging dropped events, or None if complete."""
        if not self.dropped:
            return None
        last_ts = self.events[-1].ts if self.events else 0.0
        return TraceEvent(TRUNCATION_EVENT, "meta", "i", last_ts,
                          track="meta",
                          args={"dropped": self.dropped,
                                "max_events": self.max_events})

    def write_chrome(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per event to ``path``.

        A truncated trace ends with a ``trace_truncated`` metadata line so
        consumers can tell the export is incomplete.
        """
        marker = self._truncation_event()
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(event.to_dict()))
                fh.write("\n")
            if marker is not None:
                fh.write(json.dumps(marker.to_dict()))
                fh.write("\n")


# ----------------------------------------------------------------------
# Disabled mode
# ----------------------------------------------------------------------

class NullTracer:
    """Tracer twin for disabled telemetry: what a guarded call site and
    the exporters read, and nothing to record with."""

    enabled = False
    __slots__ = ()
    events: tuple = ()
    dropped = 0
    now = 0.0


NULL_TRACER = NullTracer()
