"""Rendering: the paper's tables and figure series as text/CSV.

Each ``render_*`` function regenerates one artefact of the paper:

* :func:`render_table1` — the ITC algorithm taxonomy (Table I);
* :func:`render_table2` — dataset statistics (Table II, replica scale);
* :func:`render_figure_series` — one metric across the matrix (Figures
  11, 12, 13a, 13b) with failed cells marked ``x`` like the red crosses;
* :func:`render_speedups` — the Figure 15 comparison summary;
* :func:`render_work_efficiency` — the machine-independent work dimension
  (element comparisons vs. the instance-optimal lower bound, see
  :mod:`repro.analysis.work`).
"""

from __future__ import annotations

import io

from ..algorithms.base import all_algorithms
from ..graph.datasets import DATASETS, load_edges
from ..graph.stats import summarize_edges
from .compare import ComparisonMatrix

__all__ = [
    "render_table1",
    "render_table2",
    "render_figure_series",
    "render_speedups",
    "render_work_efficiency",
    "render_cluster",
    "render_scaleout",
    "matrix_to_csv",
]

_METRIC_FORMATS = {
    "sim_time_s": ("total running time [ms]", 1e3, "{:10.4f}"),
    "global_load_requests": ("global load requests", 1.0, "{:12.0f}"),
    "warp_execution_efficiency": ("warp execution efficiency", 100.0, "{:8.1f}"),
    "gld_transactions_per_request": ("gld transactions per request", 1.0, "{:8.2f}"),
    "comparisons": ("element comparisons performed", 1.0, "{:12.0f}"),
    "work_ratio": ("comparisons / intersection lower bound", 1.0, "{:8.2f}"),
}


def render_table1() -> str:
    """Table I: major ITC algorithms with their design axes."""
    out = io.StringIO()
    out.write("TABLE I — MAJOR ITC ALGORITHMS ON GPUS\n")
    out.write(f"{'Name':10s} {'Year':>5s} {'Iterator':>9s} {'Intersection':>14s} {'Granularity':>12s}\n")
    for cls in all_algorithms():
        row = cls.table1_row()
        out.write(
            f"{row['name']:10s} {row['year']:5d} {row['iterator']:>9s} "
            f"{row['intersection']:>14s} {row['granularity']:>12s}\n"
        )
    return out.getvalue()


def render_table2(*, replica: bool = True) -> str:
    """Table II: the 19 datasets (paper columns plus replica statistics)."""
    out = io.StringIO()
    out.write("TABLE II — DATASETS (paper scale -> replica scale)\n")
    out.write(
        f"{'dataset':18s} {'paperV':>9s} {'paperE':>12s} {'avgdeg':>7s}"
        + (f" {'repV':>8s} {'repE':>8s} {'repdeg':>7s}\n" if replica else "\n")
    )
    for spec in DATASETS:
        out.write(
            f"{spec.name:18s} {spec.paper_vertices:9d} {spec.paper_edges:12d} "
            f"{spec.paper_avg_degree:7.1f}"
        )
        if replica:
            s = summarize_edges(load_edges(spec.name))
            out.write(f" {s.vertices:8d} {s.edges:8d} {s.avg_degree:7.1f}")
        out.write("\n")
    return out.getvalue()


#: Markers for non-measurement cells: the paper's red cross for failures,
#: ``!`` for counts quarantined by the cpu_reference cross-check.
_STATUS_MARKS = {"failed": "x", "invalid": "!"}

_FOOTNOTES = {
    "degraded": "*  degraded: completed at a timeout-reduced block budget",
    "invalid": "!  invalid: triangle count quarantined by cpu_reference cross-check",
    "failed": "x  failed: crash, out-of-memory, or exhausted timeout (paper red cross)",
}


def _status_footnotes(records) -> str:
    notes = [
        text
        for status, text in _FOOTNOTES.items()
        if status != "failed" and any(r.status == status for r in records)
    ]
    return ("\n".join(notes) + "\n") if notes else ""


def render_figure_series(matrix: ComparisonMatrix, metric: str) -> str:
    """One figure's data: rows = algorithms, columns = datasets in order.

    Failed cells print ``x`` — the paper's red crosses.  Cells from the
    resilience layer render distinctly instead of masquerading as either
    red crosses or full-fidelity measurements: ``degraded`` cells keep
    their (reduced-fidelity) value with a ``*`` marker, quarantined
    ``invalid`` cells print ``!``; a footnote legend explains the markers.
    """
    title, scale, fmt = _METRIC_FORMATS.get(metric, (metric, 1.0, "{:10.4f}"))
    out = io.StringIO()
    out.write(f"{title} — datasets in Table II order\n")
    width = max(len(fmt.format(0.0)) + 1, 10)
    out.write(" " * 10 + "".join(f"{ds[:width - 1]:>{width}s}" for ds in matrix.datasets) + "\n")
    for alg in matrix.algorithms:
        out.write(f"{alg:10s}")
        for ds in matrix.datasets:
            rec = matrix.cell(alg, ds)
            val = getattr(rec, metric) if rec.usable else None
            if val is None:
                cell = _STATUS_MARKS.get(rec.status, "x")
            else:
                cell = fmt.format(val * scale).strip()
                if rec.status == "degraded":
                    cell += "*"
            out.write(f"{cell:>{width}s}")
        out.write("\n")
    out.write(_status_footnotes(matrix.records))
    return out.getvalue()


def render_speedups(matrix: ComparisonMatrix, subject: str, baselines: tuple[str, ...]) -> str:
    """Figure 15 style summary: subject's speedup over each baseline.

    A ratio involving a ``degraded`` endpoint is marked ``*`` (it compares
    reduced-fidelity time), one involving a quarantined ``invalid``
    endpoint prints ``!``, and anything failed prints the red-cross ``x``.
    """
    out = io.StringIO()
    out.write(f"speedup of {subject} (baseline time / {subject} time)\n")
    out.write(f"{'dataset':18s}" + "".join(f"{b:>12s}" for b in baselines) + "\n")
    shown = []
    for ds in matrix.datasets:
        srec = matrix.cell(subject, ds)
        shown.append(srec)
        out.write(f"{ds:18s}")
        for b in baselines:
            brec = matrix.cell(b, ds)
            shown.append(brec)
            if srec.usable and brec.usable and srec.sim_time_s and brec.sim_time_s:
                cell = f"{brec.sim_time_s / srec.sim_time_s:.2f}"
                if "degraded" in (srec.status, brec.status):
                    cell += "*"
            elif "invalid" in (srec.status, brec.status):
                cell = "!"
            else:
                cell = "x"
            out.write(f"{cell:>12s}")
        out.write("\n")
    out.write(_status_footnotes(shown))
    return out.getvalue()


def render_work_efficiency(matrix: ComparisonMatrix) -> str:
    """The work-efficiency dimension: ``comparisons (x lower bound)``.

    Rows are algorithms, columns datasets; each measured cell prints the
    element comparisons the algorithm performed and, in parentheses, the
    ratio to the instance-optimal intersection lower bound (the ``LB``
    row).  The counts are analytical replays of each kernel's control
    flow (:mod:`repro.analysis.work`), so they are exact, deterministic,
    and independent of device and engine.  Hash and
    bitmap algorithms are not comparison-based: their ratio may drop
    below 1.
    """
    out = io.StringIO()
    out.write("work efficiency — comparisons (x lower bound)\n")
    width = 18
    out.write(
        " " * 10
        + "".join(f"{ds[:width - 1]:>{width}s}" for ds in matrix.datasets)
        + "\n"
    )
    lb_row: dict[str, float | None] = {}
    for alg in matrix.algorithms:
        out.write(f"{alg:10s}")
        for ds in matrix.datasets:
            rec = matrix.cell(alg, ds)
            usable = rec.usable and rec.comparisons is not None
            if usable:
                cell = f"{rec.comparisons:.0f} ({rec.work_ratio:.2f}x)"
                if rec.status == "degraded":
                    cell += "*"
                if rec.work_ratio and rec.work_ratio > 0:
                    lb_row.setdefault(ds, rec.comparisons / rec.work_ratio)
            else:
                cell = _STATUS_MARKS.get(rec.status, "x")
            out.write(f"{cell:>{width}s}")
        out.write("\n")
    out.write(f"{'LB':10s}")
    for ds in matrix.datasets:
        lb = lb_row.get(ds)
        out.write(f"{'?' if lb is None else format(lb, '.0f'):>{width}s}")
    out.write("\n")
    out.write(_status_footnotes(matrix.records))
    return out.getvalue()


def render_cluster(record) -> str:
    """Per-partition breakdown of one cluster run.

    ``record`` is a :class:`repro.framework.cluster.ClusterRecord`; each
    row is one simulated device: its share of pivot edges, subgraph size,
    interconnect traffic, and exchange/compute split.  The makespan row at
    the bottom is the cluster time the scale-out curves plot.
    """
    out = io.StringIO()
    out.write(
        f"{record.algorithm} on {record.dataset} — {record.devices} x "
        f"{record.device} ({record.partitioner}, seed {record.seed})\n"
    )
    out.write(
        f"{'dev':>4s} {'owned':>8s} {'subV':>7s} {'subE':>8s} {'remote':>8s} "
        f"{'xKiB':>8s} {'peers':>6s} {'xch[us]':>9s} {'sim[us]':>9s} {'total[us]':>10s}\n"
    )
    for p in record.partitions:
        mark = "" if p.status == "ok" else f"  ({p.status})"
        out.write(
            f"{p.index:>4d} {p.owned_edges:>8d} {p.subgraph_vertices:>7d} "
            f"{p.subgraph_edges:>8d} {p.remote_entries:>8d} "
            f"{p.exchange_bytes / 1024:>8.1f} {p.peers:>6d} "
            f"{p.exchange_time_s * 1e6:>9.2f} {p.sim_time_s * 1e6:>9.2f} "
            f"{p.device_time_s * 1e6:>10.2f}{mark}\n"
        )
    out.write(
        f"triangles {record.triangles}  cluster time "
        f"{(record.cluster_time_s or 0.0) * 1e6:.2f} us  exchange total "
        f"{record.total_exchange_bytes / 1024:.1f} KiB\n"
    )
    return out.getvalue()


def render_scaleout(points, *, title: str = "") -> str:
    """Speedup / parallel-efficiency table over simulated device counts.

    ``points`` is the output of :func:`repro.framework.cluster.scaleout_curve`;
    this is the textual form of the scale-out figure family (per-algorithm
    speedup ``t(1)/t(N)`` and efficiency ``speedup/N`` over 1/2/4/8/16
    devices), with the interconnect traffic that explains the rollover.
    """
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write(
        f"{'devices':>8s} {'time[ms]':>10s} {'speedup':>8s} "
        f"{'efficiency':>11s} {'exchange[KiB]':>14s}\n"
    )
    for pt in points:
        out.write(
            f"{pt.devices:>8d} {pt.cluster_time_s * 1e3:>10.4f} "
            f"{pt.speedup:>8.2f} {pt.efficiency:>11.2f} "
            f"{pt.exchange_bytes / 1024:>14.1f}\n"
        )
    return out.getvalue()


def matrix_to_csv(matrix: ComparisonMatrix) -> str:
    """Flat CSV of every cell (one row per record)."""
    cols = [
        "dataset",
        "algorithm",
        "status",
        "triangles",
        "sim_time_s",
        "warp_execution_efficiency",
        "gld_transactions_per_request",
        "global_load_requests",
        "comparisons",
        "work_ratio",
        "size_class",
    ]
    lines = [",".join(cols)]
    for r in matrix.records:
        lines.append(
            ",".join("" if (v := getattr(r, c)) is None else str(v) for c in cols)
        )
    return "\n".join(lines) + "\n"
