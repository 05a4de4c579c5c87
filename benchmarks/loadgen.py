"""Concurrent load generator for the serve daemon (used by ``bench_serve_load``).

Drives N client connections submitting a seeded, mixed-size job stream
and reports the numbers the acceptance criteria care about:

* client-observed **decision latency** percentiles (submit → accept or
  reject frame) — the admission controller's promise is that this stays
  bounded no matter how overloaded the queue is;
* **accept / reject / shed** counts, with every reject checked for a
  machine-usable ``retry_after_s``;
* **zero lost jobs**: every accepted job must reach a terminal frame
  (and a terminal journal entry — the bench cross-checks receipts
  against the journal).

The stream is deterministic per ``seed``: same seed, same per-client
request sequence, regardless of scheduling interleaving.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.serve.client import JobReceipt, ServeClient, ServeConnectionClosed, ServeTimeout

__all__ = ["LoadReport", "percentile", "run_load"]

#: Default job mix: algorithm pool crossed with the smallest replicas so
#: a load test runs in seconds, not minutes.
DEFAULT_ALGORITHMS = ("GroupTC", "TRUST", "Polak", "Green")
DEFAULT_DATASETS = ("As-Caida", "P2p-Gnutella31")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    lost: int = 0                     # accepted but no terminal frame
    conn_errors: int = 0
    rejects_missing_retry_after: int = 0
    decision_ms: list[float] = field(default_factory=list)
    completion_s: list[float] = field(default_factory=list)
    statuses: dict = field(default_factory=dict)
    reject_codes: dict = field(default_factory=dict)
    wall_s: float = 0.0
    job_ids: list[str] = field(default_factory=list)

    def merge(self, other: "LoadReport") -> None:
        self.submitted += other.submitted
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.shed += other.shed
        self.completed += other.completed
        self.lost += other.lost
        self.conn_errors += other.conn_errors
        self.rejects_missing_retry_after += other.rejects_missing_retry_after
        self.decision_ms.extend(other.decision_ms)
        self.completion_s.extend(other.completion_s)
        for k, v in other.statuses.items():
            self.statuses[k] = self.statuses.get(k, 0) + v
        for k, v in other.reject_codes.items():
            self.reject_codes[k] = self.reject_codes.get(k, 0) + v
        self.job_ids.extend(other.job_ids)

    def summary(self) -> dict:
        """JSON-ready summary (what ``BENCH_serve.json`` records)."""
        total = max(self.submitted, 1)
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "reject_rate": round(self.rejected / total, 4),
            "reject_codes": dict(sorted(self.reject_codes.items())),
            "rejects_missing_retry_after": self.rejects_missing_retry_after,
            "shed": self.shed,
            "shed_rate": round(self.shed / max(self.accepted, 1), 4),
            "completed": self.completed,
            "lost": self.lost,
            "conn_errors": self.conn_errors,
            "statuses": dict(sorted(self.statuses.items())),
            "decision_ms_p50": round(percentile(self.decision_ms, 50), 3),
            "decision_ms_p99": round(percentile(self.decision_ms, 99), 3),
            "decision_ms_max": round(max(self.decision_ms, default=0.0), 3),
            "completion_s_p50": round(percentile(self.completion_s, 50), 4),
            "completion_s_p99": round(percentile(self.completion_s, 99), 4),
            "wall_s": round(self.wall_s, 3),
            "throughput_jobs_per_s": round(self.completed / max(self.wall_s, 1e-9), 2),
        }


def _client_worker(
    index: int,
    report: LoadReport,
    *,
    socket_path: str | None,
    host: str,
    port: int | None,
    requests: int,
    seed: int,
    algorithms: tuple[str, ...],
    datasets: tuple[str, ...],
    deadline_s: float | None,
    blocks: int | None,
    result_timeout_s: float,
) -> None:
    rng = random.Random((seed << 8) ^ index)
    receipts: list[tuple[JobReceipt, float]] = []
    try:
        client = ServeClient(
            socket_path=socket_path, host=host, port=port,
            client_id=f"load-{index}", timeout=result_timeout_s,
        )
    except OSError:
        report.conn_errors += 1
        return
    with client:
        for _ in range(requests):
            algorithm = rng.choice(algorithms)
            dataset = rng.choice(datasets)
            t0 = time.perf_counter()
            try:
                receipt = client.submit(
                    algorithm, dataset, blocks=blocks,
                    deadline_s=deadline_s, stream=False,
                )
            except (ServeConnectionClosed, ServeTimeout):
                report.conn_errors += 1
                break
            report.decision_ms.append((time.perf_counter() - t0) * 1e3)
            report.submitted += 1
            if receipt.accepted:
                report.accepted += 1
                if receipt.shed_level > 0:
                    report.shed += 1
                if receipt.job_id:
                    report.job_ids.append(receipt.job_id)
                receipts.append((receipt, time.perf_counter()))
            else:
                report.rejected += 1
                code = receipt.reject_code or "unknown"
                report.reject_codes[code] = report.reject_codes.get(code, 0) + 1
                if receipt.retry_after_s is None:
                    report.rejects_missing_retry_after += 1
        for receipt, submitted_at in receipts:
            try:
                terminal = receipt.result(timeout=result_timeout_s)
            except (ServeTimeout, ServeConnectionClosed):
                report.lost += 1
                continue
            report.completed += 1
            report.completion_s.append(time.perf_counter() - submitted_at)
            status = (terminal.get("record") or {}).get("status") \
                or terminal.get("code") or "unknown"
            report.statuses[status] = report.statuses.get(status, 0) + 1


def run_load(
    *,
    socket_path: str | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
    clients: int = 4,
    requests_per_client: int = 25,
    seed: int = 0,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    deadline_s: float | None = None,
    blocks: int | None = 4,
    result_timeout_s: float = 120.0,
) -> LoadReport:
    """Run ``clients`` concurrent submitters; returns the merged report."""
    reports = [LoadReport() for _ in range(clients)]
    t0 = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(i, reports[i]),
            kwargs=dict(
                socket_path=socket_path, host=host, port=port,
                requests=requests_per_client, seed=seed,
                algorithms=algorithms, datasets=datasets,
                deadline_s=deadline_s, blocks=blocks,
                result_timeout_s=result_timeout_s,
            ),
            name=f"loadgen-{i}", daemon=True,
        )
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = LoadReport()
    for r in reports:
        merged.merge(r)
    merged.wall_s = time.perf_counter() - t0
    return merged
