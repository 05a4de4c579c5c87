"""Serve-daemon load benchmark: overload behaviour under a 4x burst.

Boots an in-process :class:`~repro.serve.server.TriangleServer`, then
fires a concurrent client fleet whose offered load is several times the
server's drain capacity, and records what the acceptance criteria gate:

* **decision latency** (client-observed submit -> accept/reject frame)
  p50/p99 — must stay under 100 ms at p99 even with the queue at its
  hard watermark, because the admission decision is O(1);
* **reject rate and retry hints** — every reject must carry a
  machine-usable ``retry_after_s``;
* **zero lost jobs** — every accepted job reaches a terminal frame, and
  the journal's accepted/terminal sets match exactly (exactly-once);
* shed rate, completion percentiles, and throughput for context.

Results land in ``BENCH_serve.json`` at the repo root.

Run with ``pytest benchmarks/bench_serve_load.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.framework.resilience import RetryPolicy
from repro.serve import TriangleServer
from repro.serve.admission import AdmissionPolicy

from loadgen import run_load

OUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

WORKERS = 2
CLIENTS = 8
REQUESTS_PER_CLIENT = 20
BLOCKS = 4
#: hard/soft queue watermarks sized so the burst slams the hard mark
MAX_DEPTH, SOFT_DEPTH = 12, 2

P99_DECISION_BUDGET_MS = 100.0


def test_serve_load(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)

    server = TriangleServer(
        port=0,
        workers=WORKERS,
        retry_policy=RetryPolicy(cell_timeout_s=60.0),
        admission=AdmissionPolicy(
            max_queue_depth=MAX_DEPTH,
            soft_queue_depth=SOFT_DEPTH,
            quota_rate=10_000.0,   # quota out of the way: this measures
            quota_burst=10_000.0,  # watermark behaviour, not rate limits
        ),
        default_deadline_s=300.0,
    )
    server.start()

    # Warm the replica cache off the books so measured jobs are all
    # steady-state (first-touch graph generation is not service time).
    warm = run_load(port=server.port, clients=1, requests_per_client=2,
                    seed=99, blocks=BLOCKS)
    assert warm.lost == 0

    reports = []

    def run():
        reports.append(run_load(
            port=server.port,
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            seed=1,
            blocks=BLOCKS,
            result_timeout_s=300.0,
        ))

    try:
        benchmark.pedantic(run, rounds=1, iterations=1)
        report = reports[-1]
        summary = report.summary()

        # offered load vs drain capacity: the submit burst arrives in
        # roughly the decision time, while draining takes the full wall
        # clock — overload factor is how much work arrived per slot.
        service_s = server.admission.service_time_s()
        offered_per_s = report.submitted / max(report.wall_s, 1e-9)
        capacity_per_s = WORKERS / max(service_s, 1e-9)
        summary["overload_factor"] = round(offered_per_s / capacity_per_s, 1)

        server.shutdown()
        accepted, terminals = server.journal.load()
    finally:
        server.shutdown(drain=False)

    # exactly-once cross-check: client receipts (warm-up included —
    # those jobs are journaled too) vs journal
    assert set(report.job_ids) | set(warm.job_ids) == set(accepted), \
        "receipt/journal mismatch"
    assert set(accepted) == set(terminals), "accepted job missing terminal"
    assert all(len(v) == 1 for v in terminals.values()), "duplicate terminals"
    summary["journal_accepted"] = len(accepted)
    summary["journal_terminals"] = len(terminals)

    OUT.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\nserve load -> {OUT}")
    for key, value in sorted(summary.items()):
        print(f"  {key}: {value}")

    assert summary["overload_factor"] >= 4.0, (
        f"burst only reached {summary['overload_factor']}x capacity — "
        "not an overload test"
    )
    assert report.rejected > 0, "overload never tripped admission control"
    assert summary["rejects_missing_retry_after"] == 0
    assert summary["lost"] == 0, f"{summary['lost']} accepted jobs dropped"
    assert summary["conn_errors"] == 0
    assert summary["decision_ms_p99"] < P99_DECISION_BUDGET_MS, (
        f"p99 admission decision {summary['decision_ms_p99']}ms exceeds "
        f"{P99_DECISION_BUDGET_MS}ms under {summary['overload_factor']}x overload"
    )
