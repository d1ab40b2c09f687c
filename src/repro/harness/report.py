"""Plain-text rendering of experiment tables and time series."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table with a title rule.

    Ragged rows (fewer cells than headers) are padded with empty cells.
    """
    ncols = len(headers)
    cells = [
        [str(value) for value in row] + [""] * (ncols - len(row))
        for row in rows
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells))
        if cells else len(headers[col])
        for col in range(ncols)
    ]

    def line(values: Sequence[str]) -> str:
        return "  ".join(value.rjust(width)
                         for value, width in zip(values, widths))

    parts = [title, "=" * len(title), line(list(headers)),
             line(["-" * width for width in widths])]
    parts.extend(line(row) for row in cells)
    return "\n".join(parts)


def downsample_series(series: List[Tuple[float, float]],
                      max_rows: int = 40) -> List[Tuple[float, float]]:
    """Reduce a time series to at most ``max_rows`` points.

    Consecutive samples are grouped into equal-count buckets; each bucket
    is rendered as (first sample time, mean value) so long runs stay
    readable without hiding sustained shifts.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    if len(series) <= max_rows:
        return list(series)
    per_bucket = -(-len(series) // max_rows)
    out = []
    for start in range(0, len(series), per_bucket):
        bucket = series[start:start + per_bucket]
        mean = sum(value for _, value in bucket) / len(bucket)
        out.append((bucket[0][0], mean))
    return out


def format_series(title: str, series: List[Tuple[float, float]],
                  time_label: str = "t", value_label: str = "value",
                  width: int = 50, max_rows: int = 40) -> str:
    """Render a time series as an ASCII bar sparkline table.

    Long series are downsampled to ~``max_rows`` bucket-averaged rows
    (pass ``max_rows=len(series)`` or larger to disable).
    """
    if not series:
        return f"{title}\n(empty)"
    shown = downsample_series(series, max_rows=max_rows)
    peak = max(value for _, value in shown) or 1.0
    lines = [title, "=" * len(title),
             f"{time_label:>8}  {value_label:>12}"]
    for when, value in shown:
        bar = "#" * int(round(value / peak * width))
        lines.append(f"{when:8.1f}  {value:12.1f}  {bar}")
    if len(shown) < len(series):
        lines.append(f"({len(series)} samples in {len(shown)} buckets)")
    return "\n".join(lines)


def format_metrics(rows: Sequence[Dict[str, Any]],
                   title: str = "Metrics") -> str:
    """Render metric rows (:func:`repro.harness.metrics.snapshot`).

    Counters and gauges become ``name{label="v"} value`` lines;
    histograms render their count/mean/percentile summary inline.
    """
    cells = []
    for row in rows:
        labels = ",".join(f'{k}="{v}"'
                          for k, v in sorted(row["labels"].items()))
        name = row["name"] + (f"{{{labels}}}" if labels else "")
        if row["kind"] == "histogram":
            summary = row["value"]
            value = (f"n={summary['count']:.0f} mean={summary['mean']:.6g} "
                     f"p50={summary['p50']:.6g} p95={summary['p95']:.6g} "
                     f"p99={summary['p99']:.6g}")
        else:
            value = f"{row['value']:,.6g}"
        cells.append([name, value])
    return format_table(title, ["metric", "value"], cells)


def format_speedups(title: str, speedups: Dict[str, Dict[str, float]],
                    designs: Sequence[str] = ("DW", "LC", "TAC")) -> str:
    """Render a Figure 5-style speedup table: configs × designs."""
    headers = ["config"] + [f"{d} speedup" for d in designs]
    rows = [
        [config] + [f"{per_design.get(d, 0.0):.2f}x" for d in designs]
        for config, per_design in speedups.items()
    ]
    return format_table(title, headers, rows)
