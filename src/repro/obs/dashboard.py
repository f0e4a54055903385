"""Self-contained HTML dashboard rendered from a trace.

``render_dashboard_html(events)`` produces a single HTML document with
inline SVG charts — no external assets, scripts, or network access — so
a trace captured anywhere can be opened anywhere.  Used by
``scripts/blazemon.py render``.
"""

from __future__ import annotations

from html import escape
from typing import Iterable, Sequence

from ..tracing.report import HIT_EVENTS
from .critical_path import BUCKETS, analyze_critical_paths

_EVICT_EVENTS = ("cache.evict_spill", "cache.evict_discard", "cache.disk_evict")

_BUCKET_COLORS = {
    "queueing": "#9467bd",
    "compute": "#1f77b4",
    "recompute": "#d62728",
    "shuffle": "#ff7f0e",
    "disk_io": "#8c564b",
    "remote_read": "#e377c2",
    "wait": "#c7c7c7",
    "coordination": "#7f7f7f",
}

_W, _H, _PAD = 640, 160, 30


def _polyline(points: Sequence[tuple[float, float]], color: str, title: str) -> str:
    """One scaled SVG line chart with min/max axis labels."""
    if not points:
        return f"<p>{escape(title)}: no data</p>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    coords = " ".join(
        f"{_PAD + (x - x0) / xr * (_W - 2 * _PAD):.1f},"
        f"{_H - _PAD - (y - y0) / yr * (_H - 2 * _PAD):.1f}"
        for x, y in points
    )
    return (
        f"<h3>{escape(title)}</h3>"
        f'<svg width="{_W}" height="{_H}" role="img">'
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#fafafa"/>'
        f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        f'<text x="{_PAD}" y="{_H - 8}" font-size="10">t={x0:.1f}s</text>'
        f'<text x="{_W - _PAD}" y="{_H - 8}" font-size="10" text-anchor="end">t={x1:.1f}s</text>'
        f'<text x="4" y="{_PAD}" font-size="10">{y1:.3g}</text>'
        f'<text x="4" y="{_H - _PAD}" font-size="10">{y0:.3g}</text>'
        "</svg>"
    )


def _gantt(jobs) -> str:
    if not jobs:
        return "<p>no jobs traced</p>"
    t1 = max(j.end for j in jobs) or 1.0
    row_h = 14
    height = 2 * _PAD + row_h * len(jobs)
    bars = []
    for i, job in enumerate(jobs):
        x = _PAD + job.start / t1 * (_W - 2 * _PAD)
        w = max((job.end - job.start) / t1 * (_W - 2 * _PAD), 1.0)
        y = _PAD + i * row_h
        label = f"job {job.job_id}" + (f" [{job.tenant}]" if job.tenant else "")
        bars.append(
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{row_h - 3}" '
            f'fill="#1f77b4"><title>{escape(label)}</title></rect>'
            f'<text x="2" y="{y + row_h - 5}" font-size="9">{escape(label)}</text>'
        )
    return (
        "<h3>Job timeline</h3>"
        f'<svg width="{_W}" height="{height}" role="img">'
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="#fafafa"/>'
        + "".join(bars)
        + f'<text x="{_W - _PAD}" y="{height - 8}" font-size="10" '
        f'text-anchor="end">t={t1:.1f}s</text></svg>'
    )


def _stacked_bars(jobs) -> str:
    if not jobs:
        return ""
    longest = max(j.latency for j in jobs) or 1.0
    row_h = 16
    height = 2 * _PAD + row_h * len(jobs)
    rows = []
    for i, job in enumerate(jobs):
        x = float(_PAD)
        y = _PAD + i * row_h
        for name in BUCKETS:
            val = getattr(job, name)
            if val <= 0:
                continue
            w = val / longest * (_W - 2 * _PAD)
            rows.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(w, 0.5):.1f}" '
                f'height="{row_h - 3}" fill="{_BUCKET_COLORS[name]}">'
                f"<title>job {job.job_id} {escape(name)}: {val:.3f}s</title></rect>"
            )
            x += w
        rows.append(
            f'<text x="2" y="{y + row_h - 6}" font-size="9">j{job.job_id}</text>'
        )
    legend = " ".join(
        f'<span style="color:{_BUCKET_COLORS[name]}">&#9632; {escape(name)}</span>'
        for name in BUCKETS
    )
    return (
        "<h3>Critical-path attribution</h3>"
        f"<p>{legend}</p>"
        f'<svg width="{_W}" height="{height}" role="img">'
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="#fafafa"/>'
        + "".join(rows)
        + "</svg>"
    )


def render_dashboard_html(
    events: Iterable, title: str = "Blaze run", job_records: Sequence = ()
) -> str:
    """Render the trace as one self-contained HTML document."""
    events = list(events)
    cp = analyze_critical_paths(events, job_records)

    hits = misses = 0
    hit_series: list[tuple[float, float]] = []
    evicted = 0.0
    evict_count = 0
    evict_series: list[tuple[float, float]] = []
    task_count = 0
    for e in events:
        if e.kind == "span":
            if e.name == "task":
                task_count += 1
            continue
        if e.name in HIT_EVENTS or e.name == "cache.miss":
            if e.name == "cache.miss":
                misses += 1
            else:
                hits += 1
            total = hits + misses
            hit_series.append((e.ts, hits / total if total else 0.0))
        elif e.name in _EVICT_EVENTS:
            evicted += e.args.get("bytes", 0.0)
            evict_count += 1
            evict_series.append((e.ts, evicted))

    totals = cp.totals()
    summary_rows = [
        ("jobs", len(cp.jobs)),
        ("tasks", task_count),
        ("cache hits", hits),
        ("cache misses", misses),
        ("hit ratio", f"{hits / (hits + misses):.3f}" if hits + misses else "n/a"),
        ("evictions", evict_count),
        ("evicted bytes", f"{evicted:,.0f}"),
        ("critical-path recompute (s)", f"{totals['recompute']:.3f}"),
        ("critical-path queueing (s)", f"{totals['queueing']:.3f}"),
    ]
    table = "".join(
        f"<tr><td>{escape(str(k))}</td><td>{escape(str(v))}</td></tr>"
        for k, v in summary_rows
    )

    by_tenant = cp.by_tenant()
    tenant_html = ""
    if len(by_tenant) > 1:
        head = "".join(f"<th>{escape(b)}</th>" for b in BUCKETS)
        body = "".join(
            "<tr><td>{}</td>{}</tr>".format(
                escape(tenant),
                "".join(f"<td>{agg[b]:.3f}</td>" for b in BUCKETS),
            )
            for tenant, agg in sorted(by_tenant.items())
        )
        tenant_html = (
            "<h3>Per-tenant critical path (s)</h3>"
            f"<table><tr><th>tenant</th>{head}</tr>{body}</table>"
        )

    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{escape(title)}</title>"
        "<style>body{font-family:sans-serif;margin:24px;max-width:720px}"
        "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
        "padding:2px 8px;font-size:12px;text-align:right}"
        "td:first-child,th:first-child{text-align:left}</style></head><body>"
        f"<h1>{escape(title)}</h1>"
        f"<table>{table}</table>"
        + _polyline(hit_series, "#2ca02c", "Cache hit ratio (cumulative)")
        + _polyline(evict_series, "#d62728", "Evicted bytes (cumulative)")
        + _gantt(cp.jobs)
        + _stacked_bars(cp.jobs)
        + tenant_html
        + "</body></html>"
    )
