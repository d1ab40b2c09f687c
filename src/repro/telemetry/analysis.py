"""Post-hoc trace analysis: per-transaction records and tail-latency
attribution (the engine behind ``repro analyze``).

The tracer (:mod:`repro.telemetry.tracer`) records every wait a traced
transaction experiences as a *leaf span* carrying the transaction's
:class:`~repro.telemetry.TraceContext` — latch waits, duplicate-read
waits, free-frame waits, device I/Os, WAL group-commit waits.  Because
the simulation's virtual clock only advances at yields, those leaf spans
partition the transaction's latency exactly: summing them recovers the
measured latency (the ``coverage`` figures below report how exactly).

This module loads a trace back (JSONL or Chrome ``trace_event`` JSON,
auto-detected), groups events by transaction, and answers the questions
the paper's figures raise but cannot answer themselves: *where does the
p99 go* under each SSD design, and *who else* (cleaner, evictions,
checkpoints) was occupying the devices at the time.  Each table the
command shows is built here once, as ``(title, headers, rows)``: the
terminal prints it with ``format_table`` and the ``--html`` report
renders the same rows with ``html_table``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.harness.metrics import (FTL_COUNTER, percentile_of,
                                   sample_counters, summary)
from repro.telemetry.tracer import TRUNCATION_EVENT

#: Wait-span names that map straight to a latency component.
LEAF_SPAN_COMPONENTS = {
    "latch_wait": "latch",
    "inflight_wait": "inflight",
    "free_wait": "free_frame",
    "prefetch_wait": "prefetch",
    "wal_wait": "wal_flush",
}

#: Device-track suffix → component prefix ("device:ssd" → ssd_read/…).
DEVICE_COMPONENTS = {
    "ssd": "ssd",
    "hdd-array": "disk",
    "log-disk": "log",
}

#: Display/export order of the latency components.
COMPONENT_ORDER = (
    "disk_read", "disk_write", "ssd_read", "ssd_write", "log_read",
    "log_write", "wal_flush", "latch", "inflight", "free_frame", "prefetch",
)

#: Span names in the trace but excluded from the component sum
#: (they *enclose* leaf waits and would double-count them).
ENVELOPE_SPANS = frozenset({"bp_miss"})


def _component_of(event: dict) -> Optional[str]:
    """The latency component a trace event contributes to, or None."""
    name = event.get("name", "")
    direct = LEAF_SPAN_COMPONENTS.get(name)
    if direct is not None:
        return direct
    track = event.get("track", "")
    if track.startswith("device:"):
        prefix = DEVICE_COMPONENTS.get(track[len("device:"):])
        if prefix is None:
            return None
        return f"{prefix}_read" if name.endswith("read") else f"{prefix}_write"
    return None


# ----------------------------------------------------------------------
# Trace loading
# ----------------------------------------------------------------------

def load_events(path: str) -> List[dict]:
    """Load a trace file as normalized event dicts.

    Accepts both tracer export formats and auto-detects which one it got:

    * JSONL (one event object per line) — used as-is;
    * Chrome ``trace_event`` JSON — timestamps/durations converted back
      from microseconds to virtual seconds and ``tid`` mapped back to the
      track name via the ``thread_name`` metadata events.

    Every returned dict has ``name``/``cat``/``ph``/``ts``/``track`` and
    optionally ``dur``/``args`` (the JSONL line shape).
    """
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        return []
    try:
        doc = json.loads(stripped)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _normalize_chrome(doc)
    events = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a JSONL trace "
                             f"({exc})") from None
        if not isinstance(event, dict) or "name" not in event:
            raise ValueError(f"{path}:{lineno}: not a trace event line")
        events.append(event)
    return events


def _normalize_chrome(doc: dict) -> List[dict]:
    """Chrome trace_event JSON → JSONL-shaped dicts (seconds, tracks)."""
    tracks: Dict[int, str] = {}
    events: List[dict] = []
    for raw in doc.get("traceEvents", ()):
        ph = raw.get("ph")
        if ph == "M":
            if raw.get("name") == "thread_name":
                tracks[raw.get("tid", 0)] = raw.get("args", {}).get(
                    "name", "main")
            continue
        event = {
            "name": raw.get("name", ""),
            "cat": raw.get("cat", ""),
            "ph": ph,
            "ts": raw.get("ts", 0.0) / 1e6,
            "track": tracks.get(raw.get("tid"), "main"),
        }
        if "dur" in raw:
            event["dur"] = raw["dur"] / 1e6
        if "args" in raw:
            event["args"] = raw["args"]
        events.append(event)
    return events


# ----------------------------------------------------------------------
# Per-transaction records
# ----------------------------------------------------------------------

@dataclass
class TxnRecord:
    """One traced transaction: its span plus attributed component waits."""

    txn_id: int
    txn_type: str
    start: float
    latency: float
    writes: int = 0
    #: Tenant name from the multi-tenant traffic layer (None for
    #: single-tenant / closed-loop traces).
    tenant: Optional[str] = None
    #: Component name → attributed seconds.
    components: Dict[str, float] = field(default_factory=dict)


@dataclass
class Attribution:
    """Latency decomposition at one percentile."""

    quantile: float
    threshold: float
    count: int
    mean_latency: float
    components: Dict[str, float]
    coverage: float

    @property
    def dominant(self) -> str:
        """The component contributing the most wait time."""
        if not self.components:
            return "-"
        return max(self.components, key=self.components.get)

    def shares(self) -> List[Tuple[str, float]]:
        """(component, fraction of attributed time), largest first."""
        total = sum(self.components.values())
        if total <= 0:
            return []
        return sorted(((name, value / total)
                       for name, value in self.components.items()),
                      key=lambda pair: -pair[1])


@dataclass
class DesignAnalysis:
    """Everything ``repro analyze`` extracts from one trace file."""

    path: str
    design: str = "?"
    benchmark: str = "?"
    scale: Optional[int] = None
    duration: Optional[float] = None
    txns: List[TxnRecord] = field(default_factory=list)
    #: Events dropped past the tracer cap (0 = complete trace).
    dropped: int = 0
    #: Attributed events whose transaction span never appeared (the
    #: client was cut off mid-transaction or the trace was truncated).
    orphan_events: int = 0
    #: Series name → [(time, value)], built from the sampler counters.
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Background origin ("cleaner", "eviction", …) → device-busy stats.
    background_io: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Fault-category event name → occurrence count (injected faults,
    #: retries, SSD detach, degradation redo — ``cat == "fault"``).
    faults: Dict[str, int] = field(default_factory=dict)
    #: Device-level flash counters from the FTL model (DESIGN.md §10):
    #: final cumulative ``host_writes`` / ``nand_writes`` / ``erases``
    #: plus the derived ``waf`` and the count of traced GC bursts.
    #: Empty when the run used the black-box SSD timing.
    ftl: Dict[str, float] = field(default_factory=dict)
    #: Provenance stamped into the trace's ``run_meta`` instant
    #: (``git_commit``/``git_branch``/``git_dirty``/``source_hash``/
    #: ``seed``) — which code produced this trace, same answer the run
    #: store gives for recorded runs.  Empty for pre-provenance traces.
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        """Whether the trace export was cut off at the event cap."""
        return self.dropped > 0

    # -- latency ------------------------------------------------------

    def _latencies(self, txn_type: Optional[str] = None) -> List[float]:
        return sorted(t.latency for t in self.txns
                      if txn_type is None or t.txn_type == txn_type)

    def latency_summary(self, txn_type: Optional[str] = None) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 of transaction latency."""
        return summary(self._latencies(txn_type))

    def txn_types(self) -> List[str]:
        """Distinct transaction types, most frequent first."""
        counts: Dict[str, int] = {}
        for txn in self.txns:
            counts[txn.txn_type] = counts.get(txn.txn_type, 0) + 1
        return sorted(counts, key=lambda name: -counts[name])

    def tenants(self) -> List[str]:
        """Distinct tenant names (empty for single-tenant traces)."""
        seen: Dict[str, None] = {}
        for txn in self.txns:
            if txn.tenant is not None:
                seen.setdefault(txn.tenant)
        return sorted(seen)

    def tenant_summary(self, tenant: str) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 latency for one tenant."""
        return summary(sorted(t.latency for t in self.txns
                              if t.tenant == tenant))

    # -- attribution --------------------------------------------------

    def attribution(self, quantile: float,
                    txn_type: Optional[str] = None) -> Attribution:
        """Decompose the latency of transactions at/above ``quantile``.

        Selects the transactions whose latency is >= the ``quantile``-th
        percentile (the tail the percentile names) and averages their
        component waits.  ``coverage`` is total attributed seconds over
        total measured latency for that subset — ~1.0 when the leaf
        spans partition the transactions' time, as they do for the OLTP
        paths.
        """
        values = self._latencies(txn_type)
        threshold = percentile_of(values, quantile)
        subset = [t for t in self.txns
                  if (txn_type is None or t.txn_type == txn_type)
                  and t.latency >= threshold]
        if not subset:
            return Attribution(quantile, threshold, 0, float("nan"), {}, 0.0)
        totals: Dict[str, float] = {}
        for txn in subset:
            for name, value in txn.components.items():
                totals[name] = totals.get(name, 0.0) + value
        n = len(subset)
        total_latency = sum(t.latency for t in subset)
        components = {name: totals[name] / n
                      for name in COMPONENT_ORDER if name in totals}
        coverage = (sum(totals.values()) / total_latency
                    if total_latency > 0 else 0.0)
        return Attribution(quantile, threshold, n,
                           total_latency / n, components, coverage)

    # -- background interference --------------------------------------

    def interference_share(self, origin: str = "cleaner") -> float:
        """Fraction of total device-busy seconds consumed by a
        background origin (cleaner interference, per §2.3.3)."""
        busy = sum(stats["busy"] for stats in self.background_io.values())
        busy += sum(value for txn in self.txns
                    for name, value in txn.components.items()
                    if name.startswith(("disk_", "ssd_", "log_")))
        own = self.background_io.get(origin, {}).get("busy", 0.0)
        return own / busy if busy > 0 else 0.0


# ----------------------------------------------------------------------
# Trace → analysis
# ----------------------------------------------------------------------

#: Sampler counter → its ``(arg, series)`` pairs (DESIGN.md §5.2).
_SAMPLED = sample_counters()
#: The cumulative request series the hit ratios are windowed from.
_REQUESTS = ("bp_hits", "bp_misses", "bp_ssd_hits")


def analyze_trace(path: str) -> DesignAnalysis:
    """Reconstruct one run's :class:`DesignAnalysis` from a trace file."""
    events = load_events(path)
    analysis = DesignAnalysis(path=path)
    by_txn: Dict[int, TxnRecord] = {}
    pending: Dict[int, List[dict]] = {}
    sampled: Dict[str, List[Tuple[float, float]]] = {}

    for event in events:
        name = event.get("name", "")
        args = event.get("args") or {}
        ph = event.get("ph")
        track = event.get("track", "")

        if name == "run_meta":
            analysis.design = args.get("design", analysis.design)
            analysis.benchmark = args.get("benchmark", analysis.benchmark)
            analysis.scale = args.get("scale", analysis.scale)
            analysis.duration = args.get("duration", analysis.duration)
            analysis.provenance = {
                key: args[key]
                for key in ("git_commit", "git_branch", "git_dirty",
                            "source_hash", "seed")
                if args.get(key) is not None}
            continue
        if name == TRUNCATION_EVENT:
            analysis.dropped = int(args.get("dropped", 0))
            continue
        if ph == "C" and track == "sampler":
            for arg, key in _SAMPLED.get(name, ()):
                sampled.setdefault(key, []).append(
                    (event.get("ts", 0.0), args.get(arg, 0)))
            continue

        if name == "ftl_gc":
            analysis.ftl["gc_events"] = analysis.ftl.get("gc_events", 0.0) + 1
            continue

        if event.get("cat") == "fault":
            analysis.faults[name] = analysis.faults.get(name, 0) + 1
            continue

        txn_id = args.get("txn")
        origin = args.get("origin")
        if ph == "X" and event.get("cat") == "txn" and txn_id is not None:
            record = TxnRecord(
                txn_id=txn_id,
                txn_type=args.get("txn_type", name),
                start=event.get("ts", 0.0),
                latency=event.get("dur", 0.0) or 0.0,
                writes=int(args.get("writes", 0)),
                tenant=args.get("tenant"),
            )
            by_txn[txn_id] = record
            for prior in pending.pop(txn_id, ()):
                _attribute(record, prior)
            continue
        if txn_id is not None and ph == "X":
            record = by_txn.get(txn_id)
            if record is not None:
                _attribute(record, event)
            else:
                # Leaf waits precede the txn span (it is recorded at
                # commit); hold them until it appears.
                pending.setdefault(txn_id, []).append(event)
            continue
        if origin is not None and ph == "X" and track.startswith("device:"):
            stats = analysis.background_io.setdefault(
                origin, {"busy": 0.0, "ios": 0.0})
            stats["busy"] += event.get("dur", 0.0) or 0.0
            stats["ios"] += 1.0

    analysis.orphan_events = sum(len(v) for v in pending.values())
    analysis.txns = sorted(by_txn.values(), key=lambda t: t.start)
    hits, misses, ssd_hits = (sampled.pop(key, []) for key in _REQUESTS)
    analysis.series = sampled
    _hit_ratio_series(analysis, [(t, h, m, s) for (t, h), (_, m), (_, s)
                                 in zip(hits, misses, ssd_hits)])
    ftl = {arg: float(sampled[key][-1][1])
           for arg, key in _SAMPLED[FTL_COUNTER] if key in sampled}
    if ftl:
        from repro.storage.ftl.model import FtlStats
        # Cumulative counters: the last point is the run's total.
        analysis.ftl = dict(ftl, waf=FtlStats(**ftl).waf, **analysis.ftl)
    return analysis


def _attribute(record: TxnRecord, event: dict) -> None:
    component = _component_of(event)
    if component is None or event.get("name") in ENVELOPE_SPANS:
        return
    record.components[component] = (record.components.get(component, 0.0)
                                    + (event.get("dur", 0.0) or 0.0))


def _hit_ratio_series(analysis: DesignAnalysis,
                      requests: Sequence[Tuple[float, float, float, float]]
                      ) -> None:
    """Windowed hit ratios from the cumulative ``bp_*`` series."""
    hit_ratio = []
    ssd_ratio = []
    for (t0, h0, m0, s0), (t1, h1, m1, s1) in zip(requests, requests[1:]):
        total = (h1 - h0) + (m1 - m0)
        if total > 0:
            hit_ratio.append((t1, (h1 - h0) / total))
        misses = m1 - m0
        if misses > 0:
            ssd_ratio.append((t1, (s1 - s0) / misses))
    if hit_ratio:
        analysis.series["hit_ratio"] = hit_ratio
    if ssd_ratio:
        analysis.series["ssd_hit_ratio"] = ssd_ratio


def analyze_traces(paths: Sequence[str]) -> List[DesignAnalysis]:
    """Analyze several trace files (one per design, as the CLI writes)."""
    return [analyze_trace(path) for path in paths]


# ----------------------------------------------------------------------
# Report tables
# ----------------------------------------------------------------------

#: One report table, built once: ``format_table(*table)`` prints it and
#: ``html_table(*table)`` renders it for ``--html``.
Table = Tuple[str, List[str], List[List[Any]]]


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def _suffix(txn_type: Optional[str]) -> str:
    return f" — {txn_type}" if txn_type else ""


def latency_table(analyses: Sequence[DesignAnalysis],
                  txn_type: Optional[str] = None) -> Table:
    """Transaction latency per design (the HTML report's first table)."""
    rows = []
    for analysis in analyses:
        stats = analysis.latency_summary(txn_type)
        rows.append([analysis.design, f"{int(stats['count']):,}"]
                    + [_ms(stats[key])
                       for key in ("mean", "p50", "p95", "p99")])
    return (f"Transaction latency (ms){_suffix(txn_type)}",
            ["design", "txns", "mean", "p50", "p95", "p99"], rows)


def attribution_table(analyses: Sequence[DesignAnalysis],
                      quantiles: Sequence[float] = (50, 95, 99),
                      txn_type: Optional[str] = None) -> Table:
    """One row per design and percentile, with the dominant component
    and the full breakdown."""
    rows = []
    for analysis in analyses:
        for q in quantiles:
            att = analysis.attribution(q, txn_type=txn_type)
            breakdown = ", ".join(f"{name} {share:.0%}"
                                  for name, share in att.shares()[:3])
            rows.append([
                analysis.design,
                f"p{q:g}",
                _ms(att.mean_latency) if att.count else "-",
                att.count,
                f"{att.coverage:.1%}" if att.count else "-",
                att.dominant,
                breakdown or "-",
            ])
    return (f"Tail-latency attribution (ms){_suffix(txn_type)}",
            ["design", "tail", "latency", "txns", "coverage", "dominant",
             "breakdown"], rows)


def tenant_table(analyses: Sequence[DesignAnalysis]) -> Table:
    """Per-tenant latency breakdown for multi-tenant traffic traces."""
    rows = []
    for analysis in analyses:
        for tenant in analysis.tenants():
            stats = analysis.tenant_summary(tenant)
            rows.append([analysis.design, tenant, int(stats["count"])]
                        + [_ms(stats[key]) for key in ("mean", "p50", "p99")])
    return ("Per-tenant latency (ms)",
            ["design", "tenant", "txns", "mean", "p50", "p99"], rows)


def interference_table(analyses: Sequence[DesignAnalysis]) -> Table:
    """Device time consumed by background machinery, per design."""
    origins = sorted({origin for a in analyses for origin in a.background_io})
    rows = [[analysis.design]
            + [f"{analysis.interference_share(origin):.1%}"
               if origin in analysis.background_io else "-"
               for origin in origins]
            for analysis in analyses]
    return "Background device-time share", ["design"] + origins, rows


def ftl_table(analyses: Sequence[DesignAnalysis]) -> Table:
    """Device-level write amplification per design (FTL model runs)."""
    rows = []
    for analysis in analyses:
        ftl = analysis.ftl
        if not ftl:
            rows.append([analysis.design, "-", "-", "-", "-", "-"])
            continue
        waf = ftl.get("waf", 0.0)
        rows.append([
            analysis.design,
            f"{int(ftl.get('host_writes', 0))}",
            f"{int(ftl.get('nand_writes', 0))}",
            f"{int(ftl.get('erases', 0))}",
            f"{waf:.3f}" if waf else "-",
            f"{int(ftl.get('gc_events', 0))}",
        ])
    return ("Flash internals (write amplification)",
            ["design", "host_writes", "nand_writes", "erases", "waf",
             "gc_bursts"], rows)


def faults_table(analyses: Sequence[DesignAnalysis]) -> Table:
    """Injected faults and the engine's reactions, per design."""
    names = sorted({name for a in analyses for name in a.faults})
    rows = [[analysis.design]
            + [str(analysis.faults.get(name, 0)) for name in names]
            for analysis in analyses]
    return "Fault events", ["design"] + names, rows


def report_tables(analyses: Sequence[DesignAnalysis],
                  quantiles: Sequence[float] = (50, 95, 99),
                  txn_type: Optional[str] = None) -> List[Table]:
    """The tables ``repro analyze`` prints, in order: attribution, then
    the tenant, background, fault and flash tables of the traces that
    hold any."""
    optional = ((tenant_table, DesignAnalysis.tenants),
                (interference_table, lambda a: a.background_io),
                (faults_table, lambda a: a.faults),
                (ftl_table, lambda a: a.ftl))
    return [attribution_table(analyses, quantiles, txn_type)] + [
        build(analyses) for build, holds in optional
        if any(holds(a) for a in analyses)]
