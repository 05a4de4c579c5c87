"""nvprof-style text rendering of a profiled run.

Two tables, mirroring ``nvprof --metrics ... --events ...`` plus the
source-level analysis view of the Visual Profiler:

* per-kernel counters — launches, global load requests/transactions,
  transactions per request, warp execution efficiency (the paper's
  Section IV metrics, so the table reads directly against Figures 11-13);
* top-N source-line hotspots — per (file, line) attribution with the
  offending source text inlined, ranked by a chosen counter.
"""

from __future__ import annotations

import linecache
import os

from .attribution import LINE_FIELDS, LineProfileCollector, source_path

__all__ = ["render_kernel_table", "render_hot_lines", "render_report"]


def _fmt(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}K"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _warp_eff(counters: dict) -> float:
    steps = counters.get("warp_steps", 0.0)
    active = counters.get("active_lane_steps", 0.0)
    warp_size = 32.0
    return 100.0 * active / (steps * warp_size) if steps else 0.0


def render_kernel_table(collector: LineProfileCollector) -> str:
    """Per-kernel counter table over every launch the collector saw."""
    headers = ("Kernel", "Launches", "GLD req", "GLD trans", "trans/req", "Warp eff %")
    rows = []
    for kernel in sorted(collector.kernels):
        c = collector.kernels[kernel]
        req = c.get("global_load_requests", 0.0)
        trans = c.get("global_load_transactions", 0.0)
        rows.append(
            (
                kernel,
                _fmt(c.get("launches", 0.0)),
                _fmt(req),
                _fmt(trans),
                f"{trans / req:.2f}" if req else "-",
                f"{_warp_eff(c):.1f}",
            )
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)))
    return "\n".join(lines)


def render_hot_lines(
    collector: LineProfileCollector,
    *,
    key: str = "global_load_requests",
    top: int = 10,
    root: str | None = None,
) -> str:
    """Top-N hotspot table by ``key``, one line of source text per entry."""
    if key not in LINE_FIELDS:
        raise ValueError(f"unknown hotspot key {key!r}; choose from {LINE_FIELDS}")
    total = collector.line_total(key) or 1.0
    lines = [f"Hotspots by {key} (top {top}):"]
    short_names = {
        "global_load_requests": "gld_req",
        "global_load_transactions": "gld_trans",
        "warp_steps": "steps",
        "lane_loss": "lane_loss",
    }
    header = (
        f"{'#':>3}  {'%':>6}  "
        + "  ".join(f"{short_names.get(f, f):>10}" for f in LINE_FIELDS)
        + "  location"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for rank, (loc, values) in enumerate(collector.hot_lines(key, top=top), start=1):
        fname, lineno = source_path(loc[0]), loc[1]
        short = os.path.relpath(fname, root) if root else os.path.basename(fname)
        src = linecache.getline(fname, lineno).strip()
        pct = 100.0 * values.get(key, 0.0) / total
        row = (
            f"{rank:>3}  {pct:6.1f}  "
            + "  ".join(f"{_fmt(values.get(f, 0.0)):>10}" for f in LINE_FIELDS)
            + f"  {short}:{lineno}"
        )
        if src:
            row += f"  | {src}"
        lines.append(row)
    return "\n".join(lines)


def render_report(
    collector: LineProfileCollector,
    *,
    key: str = "global_load_requests",
    top: int = 10,
    title: str = "",
) -> str:
    """Full profile report: header, kernel table, hotspot table."""
    parts = []
    head = "==PROF== " + (title or "Profiling result")
    parts.append(f"{head} ({collector.launches} kernel launches)")
    parts.append("")
    parts.append(render_kernel_table(collector))
    parts.append("")
    parts.append(render_hot_lines(collector, key=key, top=top))
    return "\n".join(parts)
