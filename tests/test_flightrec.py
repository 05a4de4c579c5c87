"""Crash flight recorder: ring bounds, atomic dumps, and the hook sites.

The contract under test: installing a recorder is observable only through
its ring sink; dumps are single atomic JSON files carrying the recent
telemetry ring plus a metrics snapshot; and the instrumented failure
paths (scheduler worker death, unhandled CLI exceptions) produce dumps
without being able to mask the original failure.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.framework.resilience import RetryPolicy, WorkerDied
from repro.framework.runner import RunRecord
from repro.framework.scheduler import CellJob, JobScheduler
from repro.obs.flightrec import (
    DEFAULT_RING_CAPACITY,
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    RingSink,
    get_flight_recorder,
    install_flight_recorder,
    maybe_dump,
    uninstall_flight_recorder,
)
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.tracer import BufferSink, Tracer, set_tracer


@pytest.fixture
def tracer():
    t = Tracer([BufferSink()])
    old = set_tracer(t)
    yield t
    set_tracer(old)


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    old = set_metrics(reg)
    yield reg
    set_metrics(old)


@pytest.fixture
def recorder(tmp_path, tracer, registry):
    rec = install_flight_recorder("t-run", directory=tmp_path / "flightrec",
                                  excepthook=False)
    yield rec
    uninstall_flight_recorder()


def _load_dumps(directory):
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


class TestRing:
    def test_ring_keeps_only_last_capacity_events(self, tracer):
        ring = RingSink(capacity=8)
        tracer.add_sink(ring)
        for i in range(50):
            tracer.info("tick", i=i)
        assert len(ring.events) == 8
        assert [e["i"] for e in ring.events] == list(range(42, 50))

    def test_default_capacity(self):
        assert RingSink().events.maxlen == DEFAULT_RING_CAPACITY


class TestDump:
    def test_dump_is_valid_self_contained_json(self, tmp_path, recorder,
                                               tracer, registry):
        tracer.info("before_crash", detail=1)
        registry.inc("some_counter", 3)
        path = recorder.dump("test_reason", error="boom",
                             extra={"note": "hi"})
        assert path is not None and path.is_file()
        payload = json.loads(path.read_text())
        assert payload["schema"] == FLIGHTREC_SCHEMA
        assert payload["reason"] == "test_reason"
        assert payload["error"] == "boom"
        assert payload["run_id"] == "t-run"
        assert payload["note"] == "hi"
        assert any(e.get("msg") == "before_crash" for e in payload["events"])
        assert payload["metrics"]["counters"]["some_counter"] == 3
        # atomic: no temp files left behind
        assert not list(path.parent.glob("*.tmp"))

    def test_dump_count_is_bounded(self, tmp_path, tracer, registry):
        rec = FlightRecorder("t", directory=tmp_path, max_dumps=3)
        paths = [rec.dump(f"r{i}") for i in range(10)]
        assert sum(p is not None for p in paths) == 3
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_dump_never_raises_on_bad_directory(self, tmp_path, registry):
        victim = tmp_path / "not-a-dir"
        victim.write_text("file in the way")
        rec = FlightRecorder("t", directory=victim)
        assert rec.dump("r") is None  # swallowed, not raised

    def test_maybe_dump_is_noop_without_recorder(self):
        uninstall_flight_recorder()
        assert get_flight_recorder() is None
        assert maybe_dump("anything", error="x") is None

    def test_install_replaces_previous(self, tmp_path, tracer, registry):
        first = install_flight_recorder("a", directory=tmp_path / "a",
                                        excepthook=False)
        second = install_flight_recorder("b", directory=tmp_path / "b",
                                         excepthook=False)
        try:
            assert get_flight_recorder() is second
            assert first._attached_to is None  # detached from the tracer
            maybe_dump("check")
            assert not (tmp_path / "a").exists()
            assert len(list((tmp_path / "b").glob("*.json"))) == 1
        finally:
            uninstall_flight_recorder()

    def test_excepthook_dumps_then_defers(self, tmp_path, tracer, registry):
        seen = []
        old_hook = sys.excepthook
        sys.excepthook = lambda *a: seen.append(a)
        try:
            rec = install_flight_recorder("t", directory=tmp_path,
                                          excepthook=True)
            try:
                raise ValueError("drill")
            except ValueError:
                sys.excepthook(*sys.exc_info())
        finally:
            uninstall_flight_recorder()
            sys.excepthook = old_hook
        dumps = _load_dumps(tmp_path)
        assert len(dumps) == 1
        assert dumps[0]["reason"] == "unhandled_exception"
        assert "ValueError: drill" in dumps[0]["error"]
        assert len(seen) == 1  # previous hook still ran


class TestWorkerDeathDump:
    def test_scheduler_worker_death_produces_dump(self, tmp_path, tracer,
                                                  registry, monkeypatch):
        """A worker that dies mid-job (exit without reporting) must leave a
        flight-recorder dump per death, before circuit-break."""

        def death(algorithm, dataset, **kwargs):
            raise WorkerDied("worker process died with exit code 17")

        monkeypatch.setattr("repro.framework.scheduler._attempt_cell", death)
        install_flight_recorder("t", directory=tmp_path, excepthook=False)
        try:
            sched = JobScheduler(
                workers=1,
                policy=RetryPolicy(jitter=0.0, max_worker_deaths=2,
                                   backoff_base_s=0.01),
            )
            try:
                record = sched.submit(CellJob("Polak", "As-Caida")).result(
                    timeout=30.0)
            finally:
                sched.shutdown(wait=False)
        finally:
            uninstall_flight_recorder()
        assert record.extra.get("circuit_open") is True
        dumps = _load_dumps(tmp_path)
        assert len(dumps) == 2  # one per death
        assert all(d["reason"] == "worker_death" for d in dumps)
        assert all("Polak/As-Caida" in d["error"] for d in dumps)
        assert registry.get("sched_worker_deaths") == 2.0
        assert registry.get("sched_circuit_opens") == 1.0


class TestQuarantineDump:
    def test_quarantined_cell_dumps(self, tmp_path, tracer, registry,
                                    monkeypatch):
        from repro.framework.resilience import validate_record

        record = RunRecord(algorithm="Polak", dataset="As-Caida",
                           device="sim", status="ok", triangles=123456)
        monkeypatch.setattr(
            "repro.framework.resilience.expected_triangles",
            lambda dataset, ordering="degree": 42)
        install_flight_recorder("t", directory=tmp_path, excepthook=False)
        try:
            out = validate_record(record)
        finally:
            uninstall_flight_recorder()
        assert out.status == "invalid"
        dumps = _load_dumps(tmp_path)
        assert len(dumps) == 1
        assert dumps[0]["reason"] == "cell_quarantined"
        assert registry.get("cells_quarantined") == 1.0
