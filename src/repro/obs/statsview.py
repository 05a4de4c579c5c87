"""Rendering for ``python -m repro stats``: live server health as text.

Takes a serve ``stats`` frame (or a bare metrics snapshot from a telemetry
dir / flight-recorder dump) and renders the operator view: queue depth,
shed level, admission outcomes, trace-store hit rate, latency percentiles,
engine stage times, and graph-facts time.  Pure formatting — no sockets, no
clearing; the CLI owns terminal control.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from .metrics import hist_summary

__all__ = ["render_stats", "latest_dir_snapshot"]


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}GiB"  # pragma: no cover - loop always returns


def _hist_line(name: str, hist: Mapping[str, Any], unit: str = "s") -> str:
    digest = hist_summary(hist)
    fmt = _fmt_s if unit == "s" else (lambda v: f"{v:.1f}")
    return (
        f"  {name:<24} n={digest['count']:<6} "
        f"p50={fmt(digest['p50'])} p95={fmt(digest['p95'])} "
        f"p99={fmt(digest['p99'])} max={fmt(digest['max'])}"
    )


def render_stats(frame: Mapping[str, Any]) -> str:
    """One multi-line text block for a stats frame or metrics snapshot."""
    metrics = frame.get("metrics") or (
        frame if "counters" in frame and "op" not in frame else {}
    )
    counters: Dict[str, float] = dict(metrics.get("counters", {}))
    gauges: Dict[str, float] = dict(metrics.get("gauges", {}))
    hists: Dict[str, Any] = dict(metrics.get("hists", {}))
    lines = []

    server_id = frame.get("server_id", "")
    ts = metrics.get("ts") or frame.get("ts") or time.time()
    stamp = time.strftime("%H:%M:%S", time.localtime(ts))
    head = f"repro stats @ {stamp}"
    if server_id:
        head += f"  server={server_id}"
    lines.append(head)

    sched = frame.get("scheduler") or {}
    depth = sched.get("queue_depth", gauges.get("serve_queue_depth"))
    if depth is not None or sched:
        lines.append(
            "  queue_depth={} running={} completed={} workers={} "
            "queued_cost={} live_jobs={}".format(
                depth if depth is not None else "-",
                sched.get("running", "-"), sched.get("completed", "-"),
                sched.get("workers", "-"),
                frame.get("queued_cost", gauges.get("serve_queued_cost", "-")),
                frame.get("live_jobs", "-"),
            )
        )

    accepted = counters.get("serve_accepted", 0)
    rejected = counters.get("serve_rejected", 0)
    if accepted or rejected or "serve_accepted" in counters:
        reject_by = ", ".join(
            f"{name[len('serve_rejected_'):]}={int(v)}"
            for name, v in sorted(counters.items())
            if name.startswith("serve_rejected_")
        )
        lines.append(
            f"  admission: accepted={int(accepted)} rejected={int(rejected)}"
            + (f" ({reject_by})" if reject_by else "")
            + f" shed_level={int(gauges.get('serve_shed_level', 0))}"
            + f" shed_jobs={int(counters.get('serve_shed_jobs', 0))}"
        )

    terminal = {
        name[len("serve_jobs_"):]: int(v)
        for name, v in sorted(counters.items())
        if name.startswith("serve_jobs_") and name != "serve_jobs_terminal"
    }
    restarts = counters.get("serve_worker_restarts", counters.get("sched_worker_deaths", 0))
    circuits = counters.get("serve_circuit_opens", counters.get("sched_circuit_opens", 0))
    if terminal or restarts or circuits:
        tail = " ".join(f"{k}={v}" for k, v in terminal.items())
        lines.append(
            f"  jobs: {tail or 'none terminal yet'}"
            f"  worker_restarts={int(restarts)} circuit_opens={int(circuits)}"
        )

    hits = counters.get("trace_store_hits", 0)
    misses = counters.get("trace_store_misses", 0)
    mem_hits = counters.get("trace_cache_hits", 0)
    mem_misses = counters.get("trace_cache_misses", 0)
    if hits or misses or mem_hits or mem_misses:
        total = hits + misses
        rate = (hits / total * 100.0) if total else 0.0
        mem_total = mem_hits + mem_misses
        mem_rate = (mem_hits / mem_total * 100.0) if mem_total else 0.0
        lines.append(
            f"  trace store: disk {int(hits)}/{int(total)} hits ({rate:.0f}%)"
            f" mapped={_fmt_bytes(counters.get('trace_store_bytes_mapped', 0))}"
            f" heals={int(counters.get('trace_store_heals', 0))}"
            f" totals={int(counters.get('trace_totals_hits', 0))}"
            f" | memory {int(mem_hits)}/{int(mem_total)} ({mem_rate:.0f}%)"
        )

    stage = {
        name[len("engine_"):-2]: v
        for name, v in sorted(counters.items())
        if name.startswith("engine_") and name.endswith("_s")
    }
    emitted = counters.get("record_emitted_launches", 0)
    recorded = emitted + counters.get("record_generator_launches", 0)
    if stage or recorded:
        lines.append(
            "  engine stages: "
            + " ".join(f"{k}={_fmt_s(v)}" for k, v in stage.items())
            + f" emitted={int(emitted)}/{int(recorded)}"
        )
    facts_hits = counters.get("facts_store_hits", 0)
    facts_total = facts_hits + counters.get("facts_store_misses", 0)
    if facts_total:
        lines.append(
            f"  graph facts: exact count {_fmt_s(counters.get('exact_count_s', 0.0))}"
            f" work model {_fmt_s(counters.get('work_model_s', 0.0))}"
            f" | store {int(facts_hits)}/{int(facts_total)} hits"
        )
    if counters.get("sim_launches"):
        lines.append(
            f"  launches={int(counters['sim_launches'])} "
            f"global_load_requests={counters.get('sim_global_load_requests', 0):.3g}"
        )

    latency_hists = [
        ("serve_job_latency_s", "job latency"),
        ("serve_decision_ms", "admission decision"),
        ("serve_journal_fsync_s", "journal fsync"),
        ("sched_queue_wait_s", "queue wait"),
        ("sched_job_duration_s", "job duration"),
    ]
    shown = [
        (label, hists[name], "ms" if name.endswith("_ms") else "s")
        for name, label in latency_hists if name in hists
    ]
    if shown:
        lines.append("  latency:")
        for label, hist, unit in shown:
            lines.append("  " + _hist_line(label, hist, unit=unit))

    if len(lines) == 1:
        lines.append("  (no metrics recorded yet)")
    return "\n".join(lines)


def latest_dir_snapshot(directory: Path | str) -> Optional[Dict[str, Any]]:
    """Newest metrics snapshot found under a run directory.

    Looks for the last ``metrics_snapshot`` telemetry event in
    ``telemetry.jsonl``, falling back to the newest flight-recorder dump.
    Returns a pseudo stats frame (``{"metrics": ..., "source": ...}``) or
    None when neither exists.
    """
    directory = Path(directory)
    telemetry = directory / "telemetry.jsonl"
    if telemetry.is_file():
        snap = None
        try:
            with telemetry.open(encoding="utf-8") as fh:
                for line in fh:
                    if '"metrics_snapshot"' not in line:
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if event.get("name") == "metrics_snapshot" and event.get("metrics"):
                        snap = event
        except OSError:
            snap = None
        if snap is not None:
            return {
                "metrics": snap["metrics"],
                "server_id": snap.get("server_id", ""),
                "ts": snap.get("ts"),
                "source": str(telemetry),
            }
    flightrec = directory / "flightrec"
    if flightrec.is_dir():
        dumps = sorted(flightrec.glob("*.json"))
        for path in reversed(dumps):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if payload.get("metrics"):
                return {
                    "metrics": payload["metrics"],
                    "server_id": payload.get("run_id", ""),
                    "ts": payload.get("ts"),
                    "source": str(path),
                }
    return None
