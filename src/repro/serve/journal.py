"""Crash-safe job log: the daemon's exactly-once backbone.

Two kinds of fsync'd JSONL lines under ``.cache/serve/<server_id>/``:

* ``accepted`` — written *before* the accept response leaves the server,
  so every client-held acceptance receipt is covered by a journal entry
  (a receipt with no entry is impossible; an entry with no receipt just
  means the response never arrived — the job still runs);
* ``terminal`` — written when the job reaches a terminal record
  (ok/degraded/failed/invalid), *before* the result frame is sent.

Restart replay is then mechanical: every ``accepted`` without a
``terminal`` is resubmitted with its original job id and parameters.  A
job can therefore run more than once across a crash (the crash may have
eaten an in-flight attempt), but it *terminals* exactly once per journal
— which is the guarantee clients can build on, and what the kill -9
chaos drill verifies against client-side receipts.

Both kinds go through :class:`repro.framework.resilience.AppendLog`, the
primitive under the matrix :class:`~repro.framework.resilience.RunJournal`
too: a torn tail (the crash tearing the final line) is skipped on load and
ended before the next append.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..framework.resilience import AppendLog
from ..graph import io as gio
from ..obs.metrics import get_metrics

__all__ = ["JobJournal", "serve_root"]


def serve_root() -> Path:
    """Directory holding one subdirectory per server id."""
    path = gio.cache_dir() / "serve"
    path.mkdir(parents=True, exist_ok=True)
    return path


class JobJournal:
    """Append-only accepted/terminal log for one server id."""

    def __init__(self, server_id: str, root: Path | str | None = None) -> None:
        if not server_id or "/" in server_id or server_id in (".", ".."):
            raise ValueError(f"bad server id {server_id!r}")
        self.server_id = server_id
        self.dir = (Path(root) if root is not None else serve_root()) / server_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / "jobs.jsonl"
        self._log = AppendLog(self.path)

    def _append(self, entry: dict) -> None:
        t0 = time.perf_counter()
        self._log.append(entry)
        registry = get_metrics()
        registry.inc(f"journal_{entry.get('kind', 'entry')}_records")
        registry.observe("serve_journal_fsync_s", time.perf_counter() - t0)

    def accepted(self, job_id: str, request: dict, *, client: str = "",
                 shed_level: int = 0, cost: float = 0.0) -> None:
        """Journal an acceptance (call *before* answering the client).

        ``cost`` is the admission controller's predicted-work estimate;
        persisting it lets restart replay rebuild the aggregate
        queued-cost ceiling instead of under-counting replayed jobs as 0.
        """
        self._append({
            "kind": "accepted", "job": job_id, "ts": time.time(),
            "client": client, "shed_level": shed_level, "cost": cost,
            "request": request,
        })

    def terminal(self, job_id: str, status: str, record: dict) -> None:
        """Journal a terminal outcome (call *before* sending the result)."""
        self._append({
            "kind": "terminal", "job": job_id, "ts": time.time(),
            "status": status, "record": record,
        })

    def load(self) -> tuple[dict[str, dict], dict[str, list[dict]]]:
        """``(accepted_by_id, terminal_lines_by_id)``; torn lines skipped.

        Terminal entries are returned as *lists* so the exactly-once drill
        can assert there is precisely one per accepted job — a dict keyed
        by id would silently absorb duplicates.
        """
        accepted: dict[str, dict] = {}
        terminals: dict[str, list[dict]] = {}
        for entry in self._log.entries():
            if "job" not in entry:
                continue
            if entry.get("kind") == "accepted":
                accepted[entry["job"]] = entry
            elif entry.get("kind") == "terminal":
                terminals.setdefault(entry["job"], []).append(entry)
        return accepted, terminals

    def pending(self) -> dict[str, dict]:
        """Accepted jobs with no terminal entry — the restart replay set."""
        accepted, terminals = self.load()
        return {jid: e for jid, e in accepted.items() if jid not in terminals}
