"""Self-contained HTML report for ``repro analyze``.

One file, no external assets: run metadata, the transaction-latency
table, the tables the terminal report prints (each built once, by
:mod:`repro.telemetry.analysis`, and rendered here by
:func:`html_table`), and inline SVG line charts (per-design time series
— hit ratio, SSD dirty fraction, cleaner backlog, queue depths).
Styling uses CSS custom properties with a ``prefers-color-scheme`` dark
variant; series colors come from a fixed categorical order (a design
keeps its hue no matter which charts it appears in).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.report import downsample_series
from repro.telemetry.analysis import (DesignAnalysis, latency_table,
                                      report_tables)

#: Fixed categorical hue order (light-mode steps); series are assigned
#: in design order and never cycled — a fifth design folds into a note.
PALETTE_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100")
#: The same slots re-stepped for the dark surface.
PALETTE_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500")

#: Maximum polyline points per series (longer series are bucket-averaged).
MAX_POINTS = 200

#: The charts: (series key, chart title, y-axis label, value format).
CHARTS = (
    ("hit_ratio", "Buffer-pool hit ratio", "hit ratio", "{:.0%}"),
    ("ssd_dirty_fraction", "SSD dirty fraction", "dirty fraction", "{:.0%}"),
    ("ssd_dirty", "Cleaner backlog (dirty SSD frames)", "frames", "{:,.0f}"),
    ("disk_pending", "Disk queue depth", "pending I/Os", "{:,.0f}"),
    ("ssd_pending", "SSD queue depth", "pending I/Os", "{:,.0f}"),
)

REPORT_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
  }
}
body {
  margin: 2rem auto; max-width: 60rem; padding: 0 1rem;
  background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, sans-serif;
}
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.meta, caption, .note { color: var(--ink-2); }
.warn { color: var(--ink); border-left: 3px solid var(--s2);
        padding-left: .6rem; }
figure { margin: 1.2rem 0; }
figcaption { color: var(--ink-2); margin-bottom: .3rem; }
.legend { display: flex; gap: 1rem; flex-wrap: wrap; margin: .3rem 0;
          color: var(--ink-2); font-size: 13px; }
.legend .chip { display: inline-block; width: 10px; height: 10px;
                border-radius: 2px; margin-right: .35rem; }
svg text { fill: var(--ink-3); font: 11px system-ui, sans-serif; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .baseline { stroke: var(--baseline); stroke-width: 1; }
svg .line { fill: none; stroke-width: 2; }
table { border-collapse: collapse; margin: .8rem 0; }
th, td { text-align: right; padding: .25rem .7rem;
         border-bottom: 1px solid var(--grid);
         font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
"""


def svg_chart(per_design: Dict[str, List[Tuple[float, float]]],
              value_fmt: str, x_fmt: str = "{:.0f}s") -> str:
    """One SVG line chart: x (time by default), one polyline per series.

    Public because the run-store dashboard (:mod:`repro.runstore`)
    renders its cross-commit trajectories with the same chart — pass
    ``x_fmt`` to relabel the x axis (e.g. ``"#{:.0f}"`` for run ids).
    """
    width, height = 640, 240
    left, right, top, bottom = 56, 12, 10, 26
    plot_w, plot_h = width - left - right, height - top - bottom

    points = {design: downsample_series(series, max_rows=MAX_POINTS)
              for design, series in per_design.items() if series}
    xs = [t for series in points.values() for t, _ in series]
    ys = [v for series in points.values() for _, v in series]
    if not xs:
        return "<p class='note'>(no samples)</p>"
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(0.0, min(ys)), max(ys)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    def sx(t: float) -> float:
        return left + (t - x0) / (x1 - x0) * plot_w

    def sy(v: float) -> float:
        return top + (1.0 - (v - y0) / (y1 - y0)) * plot_h

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'preserveAspectRatio="xMidYMid meet">']
    # Horizontal grid + y tick labels (4 divisions, one axis).
    for i in range(5):
        value = y0 + (y1 - y0) * i / 4
        y = sy(value)
        css = "baseline" if i == 0 else "grid"
        parts.append(f'<line class="{css}" x1="{left}" y1="{y:.1f}" '
                     f'x2="{left + plot_w}" y2="{y:.1f}"/>')
        label = html.escape(value_fmt.format(value))
        parts.append(f'<text x="{left - 6}" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{label}</text>')
    # X tick labels (virtual seconds by default).
    for i in range(5):
        t = x0 + (x1 - x0) * i / 4
        x = sx(t)
        label = html.escape(x_fmt.format(t))
        parts.append(f'<text x="{x:.1f}" y="{height - 8}" '
                     f'text-anchor="middle">{label}</text>')
    for slot, (design, series) in enumerate(points.items()):
        path = " ".join(f"{sx(t):.1f},{sy(v):.1f}" for t, v in series)
        title = html.escape(f"{design}: {len(per_design[design])} samples")
        parts.append(f'<polyline class="line" stroke="var(--s{slot + 1})" '
                     f'points="{path}"><title>{title}</title></polyline>')
    parts.append("</svg>")
    return "".join(parts)


def legend(designs: Sequence[str]) -> str:
    if len(designs) < 2:
        return ""
    chips = "".join(
        f'<span><span class="chip" '
        f'style="background: var(--s{slot + 1})"></span>'
        f'{html.escape(design)}</span>'
        for slot, design in enumerate(designs))
    return f'<div class="legend">{chips}</div>'


def _charts_section(analyses: Sequence[DesignAnalysis]) -> List[str]:
    designs = [a.design for a in analyses]
    out: List[str] = []
    for key, title, ylabel, fmt in CHARTS:
        per_design = {a.design: a.series.get(key, []) for a in analyses}
        if not any(per_design.values()):
            continue
        out.append("<figure>")
        out.append(f"<figcaption>{html.escape(title)} "
                   f"<span class='note'>({html.escape(ylabel)})</span>"
                   f"</figcaption>")
        out.append(legend(designs))
        out.append(svg_chart(per_design, fmt))
        out.append("</figure>")
    return out


def html_table(title: str, headers: Sequence[str],
               rows: Sequence[Sequence[object]]) -> str:
    """:func:`repro.harness.report.format_table`'s arguments as an HTML
    table, the title its caption."""
    parts = ["<table>", f"<caption>{html.escape(title)}</caption>"]
    parts.append("<tr>" + "".join(f"<th>{html.escape(h)}</th>"
                                  for h in headers) + "</tr>")
    for row in rows:
        parts.append("<tr>" + "".join(f"<td>{html.escape(str(c))}</td>"
                                      for c in row) + "</tr>")
    parts.append("</table>")
    return "".join(parts)


def render_report(analyses: Sequence[DesignAnalysis], workload: str,
                  quantiles: Sequence[float] = (50, 95, 99),
                  txn_type: Optional[str] = None,
                  title: Optional[str] = None) -> str:
    """The full report as one self-contained HTML document."""
    title = title or f"repro analyze — {workload}"
    first = analyses[0] if analyses else None
    meta_bits = []
    if first is not None:
        meta_bits.append(f"benchmark {html.escape(str(first.benchmark))}")
        if first.scale is not None:
            meta_bits.append(f"scale {first.scale}")
        if first.duration is not None:
            meta_bits.append(f"{first.duration:g} virtual s")
    meta_bits.append(", ".join(html.escape(a.design) for a in analyses))

    body: List[str] = [
        f"<h1>{html.escape(title)}</h1>",
        f"<p class='meta'>{' · '.join(meta_bits)}</p>",
    ]
    for analysis in analyses:
        if analysis.truncated:
            body.append(
                f"<p class='warn'>{html.escape(analysis.design)}: trace "
                f"truncated — {analysis.dropped:,} events dropped past the "
                f"tracer cap; attribution undercounts late waits.</p>")
    if len(analyses) > len(PALETTE_LIGHT):
        shown = ", ".join(html.escape(a.design)
                          for a in analyses[:len(PALETTE_LIGHT)])
        body.append(f"<p class='note'>Charts show the first "
                    f"{len(PALETTE_LIGHT)} designs ({shown}); tables cover "
                    f"all {len(analyses)}.</p>")

    body.append("<h2>Tables</h2>")
    tables = [latency_table(analyses, txn_type)]
    tables += report_tables(analyses, quantiles, txn_type)
    body.extend(html_table(*table) for table in tables)

    body.append("<h2>Time series</h2>")
    body.extend(_charts_section(analyses[:len(PALETTE_LIGHT)]))

    return (
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        f"<style>{REPORT_CSS}</style></head><body>"
        + "".join(body) + "</body></html>"
    )


def write_report(path: str, analyses: Sequence[DesignAnalysis],
                 workload: str, quantiles: Sequence[float] = (50, 95, 99),
                 txn_type: Optional[str] = None) -> None:
    """Render and write the HTML report to ``path``."""
    with open(path, "w") as fh:
        fh.write(render_report(analyses, workload, quantiles, txn_type))
