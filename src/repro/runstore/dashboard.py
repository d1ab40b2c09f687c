"""Live HTML dashboard + JSON API over the run store (``repro serve``).

Stdlib-only HTTP (no framework, no assets): every GET opens a fresh
read-only view of the SQLite store, so the page always shows the latest
recorded runs — leave it open while a sweep records and refresh.

Endpoints:

``GET /``
    The dashboard: per-metric SVG trajectory charts (throughput,
    p50/p95/p99 latency decomposition, WAF, wear) with one polyline per
    design, x = run id across commits, plus the recent-runs table.
    Accepts ``benchmark`` / ``design`` / ``scale`` / ``limit`` query
    filters; a malformed ``scale`` or ``limit`` (or a ``limit`` below
    1) is a 400 naming the parameter.
``GET /api/runs``
    Recent run rows (with metrics) as JSON; same filters.
``GET /api/trajectory?metric=NAME``
    One metric's per-design series as JSON.
``GET /healthz``
    Liveness probe: 200 and the schema version.

Charts are rendered by :func:`repro.telemetry.htmlreport.svg_chart` —
the same machinery as ``repro analyze --html``, pointed at cross-commit
series instead of within-run time series.
"""

from __future__ import annotations

import html
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.runstore.cli import runs_table
from repro.runstore.schema import SCHEMA_VERSION
from repro.runstore.store import RunStore, StoreError
from repro.telemetry.htmlreport import (REPORT_CSS, html_table, legend,
                                        svg_chart)

#: The trajectory charts: (metric name, title, y-axis value format).
TRAJECTORIES = (
    ("value", "Throughput (tpmC / tps / QphH)", "{:,.0f}"),
    ("latency_p50", "p50 latency (s)", "{:.3f}"),
    ("latency_p95", "p95 latency (s)", "{:.3f}"),
    ("latency_p99", "p99 latency (s)", "{:.3f}"),
    ("waf", "Write amplification (device WAF)", "{:.2f}"),
    ("wear_spread", "Wear spread (max-min erase counts)", "{:,.0f}"),
)

def render_dashboard(store: RunStore,
                     benchmark: Optional[str] = None,
                     design: Optional[str] = None,
                     scale: Optional[int] = None,
                     limit: int = 200) -> str:
    """The dashboard page as one self-contained HTML document."""
    filters: Dict[str, Any] = {}
    if benchmark is not None:
        filters["benchmark"] = benchmark
    if design is not None:
        filters["design"] = design
    if scale is not None:
        filters["scale"] = scale

    commits = store.commits(**filters)
    runs = store.list_runs(limit=limit, **filters)

    body: List[str] = [
        "<h1>repro run store</h1>",
        f"<p class='meta'>{html.escape(str(store.path))} · "
        f"schema v{SCHEMA_VERSION} · {len(runs)} runs shown · "
        f"{len(commits)} commits"
        + (f" · benchmark {html.escape(benchmark)}" if benchmark else "")
        + (f" · scale {scale}" if scale is not None else "")
        + "</p>",
    ]

    body.append("<h2>Trajectories</h2>")
    if len(commits) < 2:
        body.append("<p class='note'>Single-commit history — record "
                    "runs from more commits to see trends.</p>")
    charted = False
    for metric, title, fmt in TRAJECTORIES:
        series = store.trajectory(metric, **filters)
        per_design = {
            dsgn: [(float(point["run_id"]), float(point["value"]))
                   for point in points]
            for dsgn, points in sorted(series.items())
        }
        if not any(per_design.values()):
            continue
        charted = True
        body.append("<figure>")
        body.append(f"<figcaption>{html.escape(title)} "
                    f"<span class='note'>({html.escape(metric)} by run "
                    f"id)</span></figcaption>")
        body.append(legend(list(per_design)))
        body.append(svg_chart(per_design, fmt, x_fmt="#{:.0f}"))
        body.append("</figure>")
    if not charted:
        body.append("<p class='note'>(no recorded metrics yet — run "
                    "<code>repro sweep</code> or <code>repro oltp</code>"
                    ")</p>")

    body.append("<h2>Recent runs</h2>")
    if runs:
        body.append(html_table(*runs_table(
            store, runs[:50], "newest first; * marks a dirty working tree")))
    else:
        body.append("<p class='note'>(no runs recorded)</p>")

    return (
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>"
        "<title>repro run store</title>"
        "<meta name='viewport' content='width=device-width, "
        "initial-scale=1'>"
        f"<style>{REPORT_CSS}</style></head><body>"
        + "".join(body) + "</body></html>"
    )


class DashboardHandler(BaseHTTPRequestHandler):
    """Request handler bound to one database path (set by the server)."""

    #: Set by :func:`make_server`.
    database: str = ""
    #: Quiet by default; the CLI flips this for interactive serving.
    verbose: bool = False

    # -- plumbing ------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send(self, status: int, content_type: str, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_html(self, markup: str, status: int = 200) -> None:
        self._send(status, "text/html; charset=utf-8", markup.encode())

    def _send_json(self, doc: Any, status: int = 200) -> None:
        self._send(status, "application/json",
                   json.dumps(doc, indent=2, sort_keys=True).encode())

    def _query(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        params = {key: values[0]
                  for key, values in parse_qs(parsed.query).items()}
        return parsed.path, params

    @staticmethod
    def _int(params: Dict[str, str], key: str, default: Optional[int],
             least: Optional[int] = None) -> Optional[int]:
        """The integer query value ``key``, or ``default`` when absent;
        ``ValueError`` naming ``key`` when malformed or below ``least``."""
        raw = params.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or (least is not None and value < least):
            bound = f" >= {least}" if least is not None else ""
            raise ValueError(f"{key} must be an integer{bound}, got {raw!r}")
        return value

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, params = self._query()
        if path == "/healthz":
            self._send_json({"status": "ok",
                             "schema_version": SCHEMA_VERSION,
                             "database": self.database})
            return
        try:
            filters: Dict[str, Any] = dict(
                benchmark=params.get("benchmark"),
                design=params.get("design"),
                scale=self._int(params, "scale", None))
            limit = self._int(params, "limit", 200 if path == "/" else 50,
                              least=1)
        except ValueError as exc:
            self._send_json({"error": str(exc)}, status=400)
            return
        try:
            # Each request opens its own connection: handler threads
            # must not share one sqlite3 connection, and a fresh open
            # always sees the latest recorded runs.
            with RunStore(self.database) as store:
                if path == "/":
                    self._send_html(render_dashboard(store, limit=limit,
                                                     **filters))
                elif path == "/api/runs":
                    runs = store.list_runs(limit=limit, **filters)
                    for run in runs:
                        run["metrics"] = store.metrics_for(run["id"])
                    self._send_json({"runs": runs})
                elif path == "/api/trajectory":
                    metric = params.get("metric", "value")
                    self._send_json({
                        "metric": metric,
                        "series": store.trajectory(metric, **filters),
                    })
                else:
                    self._send_json({"error": f"no such path: {path}"},
                                    status=404)
        except StoreError as exc:
            self._send_json({"error": str(exc)}, status=503)


def make_server(database: str, host: str = "127.0.0.1", port: int = 8642,
                verbose: bool = False) -> ThreadingHTTPServer:
    """A ready-to-run HTTP server over one run database.

    The store is opened once up front to fail fast on a broken file;
    after that every request reopens it (see :class:`DashboardHandler`).
    """
    RunStore(database).close()
    handler = type("BoundDashboardHandler", (DashboardHandler,),
                   {"database": database, "verbose": verbose})
    return ThreadingHTTPServer((host, port), handler)
