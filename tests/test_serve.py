"""End-to-end tests for the ``repro serve`` daemon.

Everything here runs a real server (in-process for speed, a subprocess
for the kill -9 drill) against real jobs on the smallest replica, and
pins the failure-semantics contract: typed rejects with retry hints,
deadline expiry, chaos survival (dropped connections, slow clients,
killed workers), graceful shutdown, and — the acceptance criterion —
exactly-once terminal states verified by journal replay after SIGKILL.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.framework.resilience import (
    CHAOS_ENV,
    KILL_MIDJOB_DELAY_ENV,
    RetryPolicy,
    set_chaos_kill_budget,
)
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.tracer import TELEMETRY_SCHEMA
from repro.serve import (
    JobJournal,
    ServeClient,
    ServeConnectionClosed,
    TriangleServer,
)
from repro.serve.admission import AdmissionPolicy
from repro.serve.server import SLOW_CLIENT_ENV

ALG, DS = "GroupTC", "As-Caida"


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    """Isolated cache (journal + replicas) and no ambient chaos."""
    for var in (CHAOS_ENV, SLOW_CLIENT_ENV,
                KILL_MIDJOB_DELAY_ENV, "REPRO_CHAOS_SEED"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    return tmp_path


@pytest.fixture(autouse=True)
def fresh_registry():
    """A fresh process-wide registry: the server counts only there."""
    old = set_metrics(MetricsRegistry())
    yield
    set_metrics(old)


@pytest.fixture
def server_factory():
    """Start in-process servers on ephemeral ports; shut them all down."""
    servers = []

    def make(**kw) -> TriangleServer:
        kw.setdefault("port", 0)
        kw.setdefault("workers", 1)
        kw.setdefault("retry_policy", RetryPolicy(cell_timeout_s=60.0, jitter=0.0))
        server = TriangleServer(**kw)
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.shutdown(drain=False)


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (read from /proc)."""
    out = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return out


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _poll(predicate, timeout=60.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


class TestHappyPath:
    def test_submit_streams_events_and_returns_result(self, server_factory):
        server = server_factory()
        with ServeClient(port=server.port, client_id="t") as client:
            receipt = client.submit(ALG, DS, blocks=4)
            assert receipt.accepted
            assert receipt.decision_ms is not None
            terminal = receipt.result(timeout=60.0)
        assert terminal["type"] == "result"
        record = terminal["record"]
        assert record["status"] == "ok"
        assert record["triangles"] > 0
        names = [e.get("name") for e in receipt.events]
        assert names == ["job_queued", "job_started", "job_done"]
        assert all(e.get("schema") == TELEMETRY_SCHEMA for e in receipt.events)
        # exactly one accepted + one terminal journal line
        accepted, terminals = server.journal.load()
        assert set(accepted) == {receipt.job_id}
        assert [len(v) for v in terminals.values()] == [1]
        # acceptance persists the admission cost estimate for replay
        assert accepted[receipt.job_id]["cost"] > 0

    def test_status_and_wait_ops(self, server_factory):
        server = server_factory()
        with ServeClient(port=server.port) as client:
            receipt = client.submit(ALG, DS, blocks=4, stream=False)
            receipt.result(timeout=60.0)
            status = client.status(receipt.job_id)
            assert status["state"] == "done"
            assert status["record"]["status"] == "ok"
            waited = client.wait(receipt.job_id)
            assert waited["type"] == "result"
            # a *different* connection can recover the result by job id
            with ServeClient(port=server.port) as other:
                assert other.wait(receipt.job_id)["record"]["status"] == "ok"

    def test_engine_field_is_ignored(self, server_factory):
        """Schema 2 dropped ``engine``; a client still sending it is served
        exactly like one that does not."""
        server = server_factory()
        with ServeClient(port=server.port) as client:
            plain = client.submit(ALG, DS, blocks=4, stream=False).result(timeout=60.0)
            response = client._request({
                "op": "submit", "algorithm": ALG, "dataset": DS, "blocks": 4,
                "stream": False, "engine": "event",
            })
            assert response["type"] == "accepted"
            legacy = client.wait(response["job"])
        assert legacy["type"] == "result"
        assert legacy["record"]["status"] == "ok"
        cell = ("triangles", "sim_time_s", "global_load_requests",
                "warp_execution_efficiency", "gld_transactions_per_request")
        assert {k: legacy["record"][k] for k in cell} == {
            k: plain["record"][k] for k in cell
        }

    def test_wait_on_running_job_blocks_until_terminal(self, server_factory):
        # Regression: wait on a NOT-yet-terminal job must deliver the
        # terminal frame tagged with the wait request's tag — an untagged
        # frame is unroutable client-side and wait() would time out.
        server = server_factory(workers=1)
        with ServeClient(port=server.port, client_id="submitter") as submitter:
            blocker = submitter.submit(ALG, DS, blocks=16, stream=False)
            target = submitter.submit(ALG, DS, blocks=16, stream=False)
            assert blocker.accepted and target.accepted
            # workers=1: target cannot start until blocker completes, so
            # this wait from a different connection registers pre-terminal.
            with ServeClient(port=server.port, client_id="waiter",
                             timeout=120.0) as other:
                frame = other.wait(target.job_id)
            assert frame["type"] == "result"
            assert frame["record"]["status"] == "ok"
            assert frame.get("tag"), "terminal frame for wait must be tagged"
            # the submitter's own receipt still completes independently
            assert blocker.result(timeout=120.0)["record"]["status"] == "ok"
            assert target.result(timeout=120.0)["record"]["status"] == "ok"
        _, terminals = server.journal.load()
        assert all(len(v) == 1 for v in terminals.values())

    def test_cancel_queued_job(self, server_factory):
        server = server_factory(workers=1)
        with ServeClient(port=server.port) as client:
            blocker = client.submit(ALG, DS, blocks=16, stream=False)
            victim = client.submit(ALG, DS, blocks=16, stream=False)
            cancelled = client.cancel(victim.job_id)
            blocker.result(timeout=60.0)
            terminal = victim.result(timeout=60.0)
        if cancelled["ok"]:  # cancel raced the worker; only assert when it took
            assert "Cancelled" in (terminal["record"]["error"] or "")
        accepted, terminals = server.journal.load()
        assert len(accepted) == 2
        assert sorted(len(v) for v in terminals.values()) == [1, 1]


class TestTransport:
    def test_tcp_nodelay_on_both_ends(self, server_factory):
        """Both ends of a TCP connection disable Nagle: small request and
        reply frames must not wait for the peer's delayed ACK."""
        server = server_factory()
        with ServeClient(port=server.port) as client:
            client.stats()  # one round trip: the server holds the connection
            (conn,) = server._conns
            for sock in (client._sock, conn.sock):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestAdmission:
    def test_overload_rejects_with_retry_after_and_loses_nothing(self, server_factory):
        server = server_factory(
            workers=1,
            admission=AdmissionPolicy(max_queue_depth=1, soft_queue_depth=0,
                                      quota_rate=1000.0, quota_burst=1000.0),
        )
        with ServeClient(port=server.port, client_id="burst") as client:
            receipts = [client.submit(ALG, DS, blocks=16, stream=False)
                        for _ in range(6)]
            accepted = [r for r in receipts if r.accepted]
            rejected = [r for r in receipts if not r.accepted]
            assert rejected, "queue never filled — overload not exercised"
            for r in rejected:
                assert r.reject_code == "overloaded"
                assert r.retry_after_s is not None and r.retry_after_s > 0
            # zero accepted jobs dropped
            for r in accepted:
                assert r.result(timeout=120.0)["record"]["status"] in ("ok", "degraded")
        _, terminals = server.journal.load()
        assert len(terminals) == len(accepted)
        assert all(len(v) == 1 for v in terminals.values())

    def test_shedding_between_watermarks(self, server_factory):
        server = server_factory(
            workers=1,
            admission=AdmissionPolicy(max_queue_depth=50, soft_queue_depth=0,
                                      quota_rate=1000.0, quota_burst=1000.0),
        )
        with ServeClient(port=server.port, client_id="shed") as client:
            receipts = [client.submit(ALG, DS, blocks=16, stream=False)
                        for _ in range(4)]
            assert all(r.accepted for r in receipts)
            shed = [r for r in receipts if r.shed_level > 0]
            assert shed, "no job was precision-shed above the soft watermark"
            for r in shed:
                record = r.result(timeout=120.0)["record"]
                assert record["extra"]["shed_level"] == r.shed_level
                assert record["extra"]["shed_blocks"] < 16
            for r in receipts:
                r.result(timeout=120.0)

    def test_quota_exceeded(self, server_factory):
        server = server_factory(
            admission=AdmissionPolicy(quota_rate=0.001, quota_burst=2.0),
        )
        with ServeClient(port=server.port, client_id="greedy") as client:
            outcomes = [client.submit(ALG, DS, blocks=2, stream=False)
                        for _ in range(3)]
            quota_rejects = [r for r in outcomes if r.reject_code == "quota_exceeded"]
            assert len(quota_rejects) == 1
            assert quota_rejects[0].retry_after_s > 0
            for r in outcomes:
                if r.accepted:
                    r.result(timeout=60.0)


class TestStatsWire:
    def test_stats_frame_keeps_pre_registry_names(self, server_factory):
        """The top-level counters/gauges are the registry's serve_* names
        without the prefix: every name clients read before the registry
        became the only counter store is still there, with its value."""
        server = server_factory(
            admission=AdmissionPolicy(quota_rate=0.001, quota_burst=1.0),
        )
        with ServeClient(port=server.port, client_id="wire") as client:
            ok = client.submit(ALG, DS, blocks=2, stream=False)
            rejected = client.submit(ALG, DS, blocks=2, stream=False)
            bad = client.submit("NoSuchAlg", DS)
            assert ok.accepted and rejected.reject_code == "quota_exceeded"
            assert bad.response["code"] == "bad_request"
            ok.result(timeout=60.0)
            # the gauges settle just after the result frame is sent
            _poll(lambda: client.stats()["gauges"].get("queued_cost") == 0,
                  what="queued cost to drain")
            frame = client.stats()
        assert {k: frame["counters"].get(k) for k in (
            "accepted", "rejected", "rejected_quota_exceeded", "jobs_ok",
            "bad_requests",
        )} == {
            "accepted": 1, "rejected": 1, "rejected_quota_exceeded": 1,
            "jobs_ok": 1, "bad_requests": 1,
        }
        assert all(type(v) is int for v in frame["counters"].values())
        assert {k: frame["gauges"].get(k) for k in ("queue_depth", "queued_cost")} == {
            "queue_depth": 0, "queued_cost": 0,
        }


class TestBadInput:
    def test_unknown_algorithm_and_dataset(self, server_factory):
        server = server_factory()
        with ServeClient(port=server.port) as client:
            r1 = client.submit("NoSuchAlg", DS)
            assert not r1.accepted and r1.response["code"] == "bad_request"
            r2 = client.submit(ALG, "No-Such-DS")
            assert not r2.accepted and r2.response["code"] == "bad_request"
            # the connection survives request-level errors
            assert client.ping()["type"] == "pong"

    def test_unknown_job(self, server_factory):
        server = server_factory()
        with ServeClient(port=server.port) as client:
            response = client.status("job-does-not-exist")
            assert response["type"] == "error"
            assert response["code"] == "unknown_job"

    def _raw(self, server):
        import socket

        return socket.create_connection(("127.0.0.1", server.port), timeout=10)

    def test_malformed_frame_gets_error_but_framing_survives(self, server_factory):
        # A newline-terminated garbage line is a bad *frame*, not lost
        # framing: the connection stays usable for the next frame.
        server = server_factory()
        with self._raw(server) as sock:
            sock.sendall(b"this is not json\n")
            data = sock.recv(65536)
            assert b'"code":"bad_frame"' in data
            sock.sendall(b'{"op":"ping"}\n')
            sock.settimeout(10)
            assert b'"type":"pong"' in sock.recv(65536)

    def test_oversized_frame_gets_error_then_close(self, server_factory):
        from repro.serve.protocol import MAX_FRAME_BYTES

        server = server_factory()
        with self._raw(server) as sock:
            sock.sendall(b"x" * (MAX_FRAME_BYTES + 2))  # no newline needed
            sock.settimeout(10)
            chunks = b""
            while b"\n" not in chunks:
                part = sock.recv(65536)
                if not part:
                    break
                chunks += part
            assert b'"code":"oversized"' in chunks

    def test_binary_garbage_does_not_crash_server(self, server_factory):
        server = server_factory()
        with self._raw(server) as sock:
            sock.sendall(bytes(range(256)) + b"\n")
            sock.recv(65536)
        # server still alive and serving
        with ServeClient(port=server.port) as client:
            assert client.ping()["type"] == "pong"


class TestDeadlines:
    def test_deadline_expired_is_typed_error(self, server_factory):
        server = server_factory(workers=1)
        with ServeClient(port=server.port) as client:
            # workers=1: doomed cannot dequeue until blocker fully completes,
            # which always takes far longer than this deadline — even with
            # fork-inherited warm trace/graph caches making blocker fast.
            blocker = client.submit(ALG, DS, blocks=16, stream=False)
            doomed = client.submit(ALG, DS, blocks=16, deadline_s=1e-4, stream=False)
            assert doomed.accepted  # admission is about load, not deadlines
            terminal = doomed.result(timeout=120.0)
            blocker.result(timeout=120.0)
        assert terminal["type"] == "error"
        assert terminal["code"] == "deadline_expired"
        assert "DeadlineExpired" in terminal["record"]["error"]
        # the expiry is a terminal state: journaled exactly once
        _, terminals = server.journal.load()
        assert len(terminals[doomed.job_id]) == 1


class TestChaos:
    def test_conn_drop_job_still_reaches_terminal(self, server_factory, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"conn_drop:{ALG}/{DS}")
        server = server_factory()
        with pytest.raises(ServeConnectionClosed):
            with ServeClient(port=server.port) as client:
                client.submit(ALG, DS, blocks=4)
        # acceptance was journaled before the drop; the job must terminal
        _poll(lambda: not server.journal.pending(), timeout=60.0,
              what="dropped-connection job to reach a terminal state")
        accepted, terminals = server.journal.load()
        (job_id,) = accepted
        assert len(terminals[job_id]) == 1
        assert terminals[job_id][0]["status"] == "ok"
        # a fresh client recovers the result by job id
        with ServeClient(port=server.port) as client:
            assert client.wait(job_id)["record"]["status"] == "ok"
        assert server.metrics.get("serve_chaos_conn_drops") == 1

    def test_slow_client_only_stalls_its_own_handler(self, server_factory, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"slow_client:{ALG}/{DS}")
        monkeypatch.setenv(SLOW_CLIENT_ENV, "0.4")
        server = server_factory(workers=2)
        with ServeClient(port=server.port) as slow, \
                ServeClient(port=server.port) as brisk:
            t0 = time.perf_counter()
            receipt = slow.submit(ALG, DS, blocks=2, stream=False)
            slow_elapsed = time.perf_counter() - t0
            t1 = time.perf_counter()
            brisk.ping()
            brisk_elapsed = time.perf_counter() - t1
            receipt.result(timeout=60.0)
        assert slow_elapsed >= 0.4
        assert brisk_elapsed < 0.4  # other connections unaffected

    def test_worker_kill_circuit_breaks(self, server_factory, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"worker_kill_midjob:{ALG}/{DS}")
        monkeypatch.setenv(KILL_MIDJOB_DELAY_ENV, "0.01")
        server = server_factory(
            workers=1,
            retry_policy=RetryPolicy(
                cell_timeout_s=60.0, jitter=0.0, max_worker_deaths=2, backoff_base_s=0.01,
            ),
        )
        with ServeClient(port=server.port) as client:
            receipt = client.submit(ALG, DS, blocks=2, stream=False)
            terminal = receipt.result(timeout=120.0)
        record = terminal["record"]
        assert record["status"] == "failed"
        assert record["error"].startswith("circuit open after 2 worker deaths")
        assert record["extra"]["circuit_open"] is True
        assert server.metrics.get("serve_circuit_opens") == 1
        _, terminals = server.journal.load()
        assert len(terminals[receipt.job_id]) == 1

    def test_worker_kill_recovers_within_budget(self, server_factory, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"worker_kill_midjob:{ALG}/{DS}")
        monkeypatch.setenv(KILL_MIDJOB_DELAY_ENV, "0.01")
        set_chaos_kill_budget(1)  # one death, then workers survive
        server = server_factory(
            workers=1,
            retry_policy=RetryPolicy(
                cell_timeout_s=60.0, jitter=0.0, max_worker_deaths=3, backoff_base_s=0.01,
            ),
        )
        with ServeClient(port=server.port) as client:
            receipt = client.submit(ALG, DS, blocks=2, stream=False)
            terminal = receipt.result(timeout=120.0)
        assert terminal["record"]["status"] == "ok"
        assert server.metrics.get("serve_worker_restarts") == 1


class TestDisconnect:
    def test_client_vanishing_midstream_does_not_lose_the_job(self, server_factory):
        server = server_factory()
        client = ServeClient(port=server.port)
        receipt = client.submit(ALG, DS, blocks=4)  # streaming on
        assert receipt.accepted
        client.close()  # walk away mid-stream
        _poll(lambda: not server.journal.pending(), timeout=60.0,
              what="abandoned job to reach a terminal state")
        _, terminals = server.journal.load()
        assert terminals[receipt.job_id][0]["status"] == "ok"


class TestLifecycle:
    def test_graceful_shutdown_drains_then_stops(self, server_factory):
        server = server_factory(workers=1)
        with ServeClient(port=server.port) as client:
            receipt = client.submit(ALG, DS, blocks=4, stream=False)
            assert client.shutdown()["type"] == "shutting_down"
        assert server.wait(timeout=120.0)
        # the in-flight job was drained, not dropped
        assert server.journal.pending() == {}
        _, terminals = server.journal.load()
        assert terminals[receipt.job_id][0]["status"] == "ok"

    def test_restart_replays_pending_jobs(self, server_factory):
        journal = JobJournal("replay-live")
        journal.accepted("replay-live-000001", {
            "algorithm": ALG, "dataset": DS, "blocks": 2, "priority": 0,
            "deadline_s": None, "ordering": "degree", "engine": None,
            "validate": False, "client": "ghost", "tag": "",
        })
        # A schema-1 request doc that asked for the event engine: the
        # field is ignored, and the job still terminals exactly once.
        journal.accepted("replay-live-000002", {
            "algorithm": ALG, "dataset": DS, "blocks": 2, "priority": 0,
            "deadline_s": None, "ordering": "degree", "engine": "event",
            "validate": False, "client": "ghost", "tag": "",
        })
        server = server_factory(server_id="replay-live")
        assert server.metrics.get("serve_journal_replayed_jobs") == 2
        _poll(lambda: not server.journal.pending(), timeout=60.0,
              what="replayed jobs to reach a terminal state")
        _, terminals = server.journal.load()
        for job in ("replay-live-000001", "replay-live-000002"):
            assert [t["status"] for t in terminals[job]] == ["ok"]

    def test_connect_during_drain_is_refused_without_wedging(self, server_factory):
        # Regression: the accept loop used to send+close the refused
        # connection while holding the global lock; close() re-acquires
        # the same lock via _forget_conn(), self-deadlocking the accept
        # thread and wedging every later lock acquisition.
        import socket as _socket

        server = server_factory()
        with server._lock:
            server._shutting_down = True
        try:
            with _socket.create_connection(("127.0.0.1", server.port),
                                           timeout=10) as sock:
                sock.settimeout(10)
                data = b""
                try:
                    while b"\n" not in data:
                        part = sock.recv(65536)
                        if not part:
                            break
                        data += part
                except OSError:
                    pass
            # the refusal is typed when it wins the race with the close
            assert not data or b"shutting_down" in data
            # the accept thread must not be stuck holding the server lock
            acquired = server._lock.acquire(timeout=5)
            assert acquired, "accept thread deadlocked holding the server lock"
            server._lock.release()
            # and a second connect is also handled promptly
            with _socket.create_connection(("127.0.0.1", server.port),
                                           timeout=10) as sock:
                sock.settimeout(10)
                try:
                    sock.recv(65536)
                except OSError:
                    pass
        finally:
            with server._lock:
                server._shutting_down = False  # let teardown shut down fully

    def test_submit_racing_scheduler_shutdown_still_terminals(
            self, server_factory, monkeypatch):
        # Regression: shutdown closing the scheduler AFTER a job was
        # journaled as accepted must yield a terminal failed record, not
        # an acceptance receipt that never resolves in this process life.
        server = server_factory()

        def closed_submit(job, on_done=None):
            raise RuntimeError("scheduler is shut down")

        monkeypatch.setattr(server.scheduler, "submit", closed_submit)
        with ServeClient(port=server.port) as client:
            receipt = client.submit(ALG, DS, blocks=2, stream=False)
            assert receipt.accepted
            terminal = receipt.result(timeout=30.0)
        assert terminal["record"]["status"] == "failed"
        assert "ShuttingDown" in terminal["record"]["error"]
        assert terminal["record"]["extra"]["shutting_down"] is True
        assert server.metrics.get("serve_shutdown_race_failures") == 1
        accepted, terminals = server.journal.load()
        assert set(accepted) == set(terminals) == {receipt.job_id}
        assert len(terminals[receipt.job_id]) == 1

    def test_replay_restores_queued_cost_from_journal(self, tmp_cache, monkeypatch):
        # Regression: replayed jobs used to re-enter with cost 0, letting
        # the aggregate queued-cost ceiling under-count after a restart.
        from repro.framework.scheduler import JobHandle

        request = {
            "algorithm": ALG, "dataset": DS, "blocks": 2, "priority": 0,
            "deadline_s": None, "ordering": "degree", "engine": None,
            "validate": False, "client": "ghost", "tag": "",
        }
        journal = JobJournal("replay-cost")
        journal.accepted("replay-cost-000001", request, cost=7.5)
        # pre-cost journal entry (older daemon): cost is recomputed
        journal._append({
            "kind": "accepted", "job": "replay-cost-000002",
            "ts": time.time(), "client": "ghost", "shed_level": 0,
            "request": request,
        })
        server = TriangleServer(port=0, server_id="replay-cost", workers=1)
        try:
            monkeypatch.setattr(server.scheduler, "submit",
                                lambda job, on_done=None: JobHandle(job))
            server._replay_journal()
            from repro.serve.admission import estimate_cost

            expected = 7.5 + estimate_cost(ALG, DS, 2)
            assert server._queued_cost == pytest.approx(expected)
        finally:
            server.scheduler.shutdown(wait=False)

    def test_replay_of_expired_job_terminals_without_running(self, server_factory):
        journal = JobJournal("replay-dead")
        journal.accepted("replay-dead-000001", {
            "algorithm": ALG, "dataset": DS, "blocks": 2, "priority": 0,
            "deadline_s": 0.001, "ordering": "degree", "engine": None,
            "validate": False, "client": "ghost", "tag": "",
        })
        time.sleep(0.01)  # the deadline dies before the "restart"
        server = server_factory(server_id="replay-dead")
        _poll(lambda: not server.journal.pending(), timeout=10.0,
              what="expired replay to terminal")
        _, terminals = server.journal.load()
        entry = terminals["replay-dead-000001"][0]
        assert entry["status"] == "failed"
        assert "DeadlineExpired" in entry["record"]["error"]


class TestTerminalRetention:
    """Terminal job states are evicted past the retention bounds — the
    daemon must not grow memory forever — yet stay queryable through the
    journal-backed (and cached) fallback."""

    def test_count_eviction_keeps_results_recoverable(self, server_factory):
        server = server_factory(workers=1, max_terminal_jobs=2)
        job_ids = []
        with ServeClient(port=server.port) as client:
            for _ in range(5):
                receipt = client.submit(ALG, DS, blocks=2, stream=False)
                assert receipt.accepted
                job_ids.append(receipt.job_id)
                assert receipt.result(timeout=120.0)["record"]["status"] == "ok"
        with server._lock:
            live = len(server._jobs)
        assert live <= 2, f"terminal states not pruned: {live} live job states"
        # every evicted job is still recoverable by id, via status AND wait
        with ServeClient(port=server.port) as client:
            for job_id in job_ids:
                assert client.wait(job_id)["record"]["status"] == "ok"
                status = client.status(job_id)
                assert status["state"] == "done"
                assert status["record"]["status"] == "ok"
        # lookups for evicted ids land in the bounded terminal cache, so
        # repeat probes do not re-parse the journal file each time
        with server._lock:
            assert all(j in server._terminal_cache for j in job_ids)

    def test_ttl_eviction(self, server_factory):
        server = server_factory(workers=1, terminal_ttl_s=0.0)
        with ServeClient(port=server.port) as client:
            first = client.submit(ALG, DS, blocks=2, stream=False)
            assert first.result(timeout=120.0)["record"]["status"] == "ok"
            second = client.submit(ALG, DS, blocks=2, stream=False)
            assert second.result(timeout=120.0)["record"]["status"] == "ok"
            with server._lock:
                live = len(server._jobs)
            assert live == 0, "ttl=0 must evict terminal states immediately"
            assert client.wait(first.job_id)["record"]["status"] == "ok"
            assert client.wait(second.job_id)["record"]["status"] == "ok"


class TestKillDrill:
    """The acceptance-criteria chaos drill: kill -9 the daemon mid-flight,
    restart with the same server id, and verify exactly-once terminal
    states by replaying the journal against client-held receipts."""

    def _boot(self, tmp_cache: Path, server_id: str, workers: int = 1) -> tuple[subprocess.Popen, int]:
        env = os.environ.copy()
        env["REPRO_CACHE_DIR"] = str(tmp_cache)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--server-id", server_id, "--workers", str(workers),
             "--default-deadline", "300"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        line = proc.stdout.readline()
        match = re.search(r"tcp:127\.0\.0\.1:(\d+)", line)
        assert match, f"no ready line from daemon: {line!r}"
        return proc, int(match.group(1))

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="lists processes from /proc")
    @pytest.mark.parametrize("stop", ["kill9", "shutdown"])
    def test_no_worker_outlives_the_daemon(self, tmp_cache, stop):
        """The slot workers the daemon forked are gone within 5 s of its
        SIGKILL or of its clean shutdown."""
        proc, port = self._boot(tmp_cache, f"orphans-{stop}", workers=2)
        try:
            with ServeClient(port=port, timeout=30.0) as client:
                receipts = [client.submit(alg, DS, blocks=4, stream=False)
                            for alg in ("Polak", "TRUST", "GroupTC", "Hu")]
                assert all(r.result(timeout=120.0)["record"]["status"] == "ok" for r in receipts)
                workers = _children(proc.pid)
                assert workers, "the daemon forked no slot worker"
                if stop == "shutdown":
                    client.shutdown()
            if stop == "kill9":
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        _poll(lambda: not any(_running(pid) for pid in workers), timeout=5.0,
              what=f"the daemon's workers {workers} to exit")

    def test_kill9_exactly_once_via_journal_replay(self, tmp_cache):
        server_id = "drill"
        proc, port = self._boot(tmp_cache, server_id)
        receipt_ids: list[str] = []
        try:
            with ServeClient(port=port, client_id="drill", timeout=30.0) as client:
                for _ in range(5):
                    receipt = client.submit(ALG, DS, blocks=16, stream=False)
                    assert receipt.accepted
                    receipt_ids.append(receipt.job_id)
                # SIGKILL with the queue still full: no drain, no cleanup
                proc.send_signal(signal.SIGKILL)
        except ServeConnectionClosed:
            pass  # the kill racing the client teardown is fine
        proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGKILL

        journal = JobJournal(server_id)
        accepted, terminals = journal.load()
        # every client-held receipt is covered by an accepted journal entry
        assert set(receipt_ids) <= set(accepted)
        assert journal.pending(), "kill -9 landed after all jobs finished " \
            "— drill did not exercise replay"

        # restart with the same id: pending jobs replay to terminal states
        proc2, port2 = self._boot(tmp_cache, server_id)
        try:
            _poll(lambda: not JobJournal(server_id).pending(), timeout=300.0,
                  interval=0.25, what="journal replay to drain")
            with ServeClient(port=port2, timeout=30.0) as client:
                # terminal results are recoverable by receipt id post-crash
                for job_id in receipt_ids:
                    frame = client.wait(job_id)
                    assert frame["type"] in ("result", "error")
                client.shutdown()
            proc2.wait(timeout=60)
            assert proc2.returncode == 0
        finally:
            if proc2.poll() is None:
                proc2.kill()

        accepted, terminals = JobJournal(server_id).load()
        # EXACTLY once: every accepted job has precisely one terminal entry
        assert set(accepted) == set(terminals)
        dupes = {j: len(v) for j, v in terminals.items() if len(v) != 1}
        assert not dupes, f"duplicate terminal states: {dupes}"
        assert set(receipt_ids) <= set(terminals)
