"""Unit tests for the JobScheduler (the queueing half of the split).

The executor underneath is stubbed out so these tests pin pure queueing
semantics — priorities, deadlines, cancellation, shedding, supervision —
without forking subprocesses.  The real executor path is covered by
test_resilience (run_cells_resilient drives the same scheduler) and the
serve end-to-end tests.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.framework.resilience import RetryPolicy
from repro.framework.runner import DEFAULT_MAX_BLOCKS, RunRecord
from repro.framework.scheduler import (
    CellJob,
    JobScheduler,
    SupervisionPolicy,
    new_job_id,
    shed_blocks,
)


def _ok_record(algorithm="A", dataset="D", **extra) -> RunRecord:
    return RunRecord(algorithm=algorithm, dataset=dataset, device="sim",
                     status="ok", triangles=1, **extra)


def _death_record(algorithm="A", dataset="D") -> RunRecord:
    return RunRecord(algorithm=algorithm, dataset=dataset, device="sim",
                     status="failed", error="worker process died (exit 17)")


@pytest.fixture
def stub_executor(monkeypatch):
    """Replace the forked-subprocess executor with an in-thread stub.

    Returns a controller with ``calls`` (kwargs of each invocation),
    ``gate`` (first call blocks until released), and a pluggable
    ``behavior(algorithm, dataset, call_index) -> RunRecord``.
    """

    class Stub:
        def __init__(self):
            self.calls = []
            self.gate = threading.Event()
            self.gate.set()
            self.behavior = lambda algorithm, dataset, i: _ok_record(algorithm, dataset)
            self._lock = threading.Lock()

        def __call__(self, algorithm, dataset, **kwargs):
            with self._lock:
                i = len(self.calls)
                self.calls.append({"algorithm": algorithm, "dataset": dataset, **kwargs})
            self.gate.wait(timeout=10.0)
            return self.behavior(algorithm, dataset, i)

    stub = Stub()
    monkeypatch.setattr("repro.framework.scheduler.run_cell_resilient", stub)
    return stub


class TestShedBlocks:
    def test_level_zero_is_identity(self):
        assert shed_blocks(16, 0) == 16
        assert shed_blocks(None, 0) is None

    def test_halving_ladder(self):
        assert shed_blocks(16, 1) == 8
        assert shed_blocks(16, 2) == 4
        assert shed_blocks(16, 3) == 2

    def test_unlimited_sheds_to_default_first(self):
        assert shed_blocks(None, 1) == DEFAULT_MAX_BLOCKS >> 1

    def test_floor(self):
        assert shed_blocks(16, 30) == 1
        assert shed_blocks(4, 3, min_blocks=2) == 2


class TestSupervisionPolicy:
    def test_backoff_grows_and_stays_bounded(self):
        p = SupervisionPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25)
        b1, b2 = p.restart_backoff_s(1, "k"), p.restart_backoff_s(2, "k")
        assert 0.075 <= b1 <= 0.125
        assert 0.15 <= b2 <= 0.25

    def test_backoff_deterministic_per_key(self):
        p = SupervisionPolicy(jitter=0.25, jitter_seed=3)
        assert p.restart_backoff_s(1, "x") == p.restart_backoff_s(1, "x")
        assert p.restart_backoff_s(1, "x") != p.restart_backoff_s(1, "y")

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_worker_deaths=0)


class TestScheduling:
    def test_runs_to_done_and_fires_on_done(self, stub_executor):
        sched = JobScheduler(workers=1, policy=RetryPolicy(jitter=0.0))
        seen = []
        try:
            handle = sched.submit(CellJob("A", "D"), on_done=seen.append)
            record = handle.result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        assert record.status == "ok"
        assert handle.state == "done"
        assert seen == [handle]

    def test_priority_order_with_fifo_ties(self, stub_executor):
        stub_executor.gate.clear()
        sched = JobScheduler(workers=1, policy=RetryPolicy(jitter=0.0))
        try:
            gate_job = sched.submit(CellJob("GATE", "D"))
            # wait until the gate job occupies the single worker
            for _ in range(200):
                if stub_executor.calls:
                    break
                time.sleep(0.005)
            assert stub_executor.calls, "gate job never started"
            handles = [
                sched.submit(CellJob("A", "D", priority=0)),
                sched.submit(CellJob("B", "D", priority=5)),
                sched.submit(CellJob("C", "D", priority=5)),
                sched.submit(CellJob("E", "D", priority=1)),
            ]
            stub_executor.gate.set()
            for h in handles:
                h.result(timeout=5.0)
            gate_job.result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        order = [c["algorithm"] for c in stub_executor.calls[1:]]
        assert order == ["B", "C", "E", "A"]  # priority desc, FIFO within ties

    def test_expired_deadline_never_reaches_executor(self, stub_executor):
        sched = JobScheduler(workers=1)
        try:
            job = CellJob("A", "D", deadline=time.monotonic() - 1.0)
            record = sched.submit(job).result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        assert record.status == "failed"
        assert "DeadlineExpired" in record.error
        assert stub_executor.calls == []

    def test_deadline_clamps_cell_timeout(self, stub_executor):
        sched = JobScheduler(workers=1, policy=RetryPolicy(cell_timeout_s=None))
        try:
            job = CellJob("A", "D", deadline=time.monotonic() + 5.0)
            sched.submit(job).result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        (call,) = stub_executor.calls
        assert call["policy"].cell_timeout_s is not None
        assert call["policy"].cell_timeout_s <= 5.0

    def test_deadline_tightens_existing_timeout(self, stub_executor):
        sched = JobScheduler(workers=1, policy=RetryPolicy(cell_timeout_s=120.0))
        try:
            job = CellJob("A", "D", deadline=time.monotonic() + 2.0)
            sched.submit(job).result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        assert stub_executor.calls[0]["policy"].cell_timeout_s <= 2.0

    def test_cancel_queued_job(self, stub_executor):
        stub_executor.gate.clear()
        sched = JobScheduler(workers=1)
        try:
            gate = sched.submit(CellJob("GATE", "D"))
            victim = sched.submit(CellJob("A", "D"))
            assert victim.cancel() is True
            stub_executor.gate.set()
            record = victim.result(timeout=5.0)
            gate.result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        assert victim.state == "cancelled"
        assert record.status == "failed"
        assert "Cancelled" in record.error
        assert [c["algorithm"] for c in stub_executor.calls] == ["GATE"]

    def test_cancel_running_job_refused(self, stub_executor):
        stub_executor.gate.clear()
        sched = JobScheduler(workers=1)
        try:
            handle = sched.submit(CellJob("A", "D"))
            for _ in range(200):
                if handle.state == "running":
                    break
                time.sleep(0.005)
            assert handle.cancel() is False
            stub_executor.gate.set()
            assert handle.result(timeout=5.0).status == "ok"
        finally:
            sched.shutdown(wait=False)

    def test_shed_level_reduces_blocks_and_is_recorded(self, stub_executor):
        sched = JobScheduler(workers=1, max_blocks_simulated=16)
        try:
            record = sched.submit(CellJob("A", "D", shed_level=2)).result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        assert stub_executor.calls[0]["max_blocks_simulated"] == 4
        assert record.extra["shed_level"] == 2
        assert record.extra["shed_blocks"] == 4

    def test_override_blocks_and_engine(self, stub_executor):
        sched = JobScheduler(workers=1, max_blocks_simulated=16)
        try:
            # An ``engine`` override (pre-schema-2 request docs) is ignored.
            job = CellJob("A", "D", overrides={"blocks": 2, "engine": "event"})
            sched.submit(job).result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        (call,) = stub_executor.calls
        assert call["max_blocks_simulated"] == 2
        assert "engine" not in call

    def test_submit_after_shutdown_raises(self, stub_executor):
        sched = JobScheduler(workers=1)
        sched.shutdown(wait=False)
        with pytest.raises(RuntimeError):
            sched.submit(CellJob("A", "D"))

    def test_drain_and_stats(self, stub_executor):
        sched = JobScheduler(workers=2)
        try:
            handles = [sched.submit(CellJob(f"A{i}", "D")) for i in range(5)]
            assert sched.drain(timeout=10.0) is True
            for h in handles:
                assert h.done
            stats = sched.stats()
        finally:
            sched.shutdown(wait=False)
        assert stats["completed"] == 5
        assert stats["queue_depth"] == 0
        assert stats["running"] == 0


class TestSupervision:
    def test_worker_death_restarts_then_succeeds(self, stub_executor):
        stub_executor.behavior = (
            lambda a, d, i: _death_record(a, d) if i < 2 else _ok_record(a, d)
        )
        events = []
        sched = JobScheduler(
            workers=1,
            supervision=SupervisionPolicy(max_worker_deaths=5, backoff_base_s=0.001),
            on_event=lambda name, job, payload: events.append(name),
        )
        try:
            record = sched.submit(CellJob("A", "D")).result(timeout=10.0)
        finally:
            sched.shutdown(wait=False)
        assert record.status == "ok"
        assert len(stub_executor.calls) == 3
        assert events.count("job_worker_restart") == 2

    def test_circuit_breaks_after_max_deaths(self, stub_executor):
        stub_executor.behavior = lambda a, d, i: _death_record(a, d)
        events = []
        sched = JobScheduler(
            workers=1,
            supervision=SupervisionPolicy(max_worker_deaths=2, backoff_base_s=0.001),
            on_event=lambda name, job, payload: events.append(name),
        )
        try:
            record = sched.submit(CellJob("A", "D")).result(timeout=10.0)
        finally:
            sched.shutdown(wait=False)
        assert record.status == "failed"
        assert record.error.startswith("circuit open after 2 worker deaths")
        assert record.extra["circuit_open"] is True
        assert record.extra["worker_deaths"] == 2
        assert len(stub_executor.calls) == 2
        assert "job_circuit_open" in events

    def test_ordinary_failure_is_not_supervised(self, stub_executor):
        stub_executor.behavior = lambda a, d, i: RunRecord(
            algorithm=a, dataset=d, device="sim", status="failed",
            error="ValueError: boom",
        )
        sched = JobScheduler(workers=1)
        try:
            record = sched.submit(CellJob("A", "D")).result(timeout=5.0)
        finally:
            sched.shutdown(wait=False)
        assert record.status == "failed"
        assert len(stub_executor.calls) == 1  # no restart for a reported error


def test_new_job_id_unique():
    ids = {new_job_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(i.startswith("job-") for i in ids)
