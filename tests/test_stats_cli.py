"""``python -m repro stats``: the operator health surface, end to end.

Drives the real CLI entry point against an in-process server: one-shot
text/JSON/Prometheus output, ``--watch`` consuming server pushes from the
client's unrouted stash, ``--dir`` reading snapshots back out of a
telemetry file or flight-recorder dump, and the protocol-level validation
of the watch subscription fields.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.framework.cli import main
from repro.framework.resilience import CHAOS_ENV
from repro.obs.flightrec import uninstall_flight_recorder
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.statsview import latest_dir_snapshot, render_stats
from repro.serve import protocol as proto
from repro.serve.client import ServeClient
from repro.serve.server import TriangleServer

ALG, DS = "Polak", "As-Caida"


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    """Fresh cache dir, fresh registry, no chaos, recorder cleaned up."""
    for var in (CHAOS_ENV, "REPRO_LOG"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reg = MetricsRegistry()
    old = set_metrics(reg)
    yield tmp_path
    set_metrics(old)
    uninstall_flight_recorder()


@pytest.fixture
def server():
    srv = TriangleServer(port=0, workers=1)
    srv.start()
    yield srv
    srv.shutdown(drain=False)


def _run_job(server):
    with ServeClient(port=server.port, client_id="t") as client:
        receipt = client.submit(ALG, DS, blocks=4, stream=False)
        assert receipt.accepted
        receipt.result(timeout=120.0)


class TestOneShot:
    def test_renders_health_view(self, server, capsys):
        _run_job(server)
        assert main(["stats", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert "repro stats @" in out
        assert f"server={server.server_id}" in out
        assert "admission: accepted=1" in out
        assert "queue_depth=" in out
        assert "latency:" in out

    def test_json_frame_carries_metrics_snapshot(self, server, capsys):
        _run_job(server)
        assert main(["stats", "--port", str(server.port), "--json"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["type"] == "stats"
        assert frame["metrics"]["counters"]["serve_accepted"] == 1
        assert frame["metrics"]["counters"]["serve_jobs_terminal"] == 1
        assert "serve_job_latency_s" in frame["metrics"]["hists"]

    def test_prometheus_exposition(self, server, capsys):
        _run_job(server)
        assert main(["stats", "--port", str(server.port), "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_accepted_total counter" in out
        assert "repro_serve_accepted_total 1" in out
        assert "repro_serve_job_latency_s_count 1" in out

    def test_unreachable_server_exits_1(self, capsys):
        probe = TriangleServer(port=0, workers=1)  # grab a free port
        probe.start()
        port = probe.port
        probe.shutdown(drain=False)
        assert main(["stats", "--port", str(port)]) == 1
        assert "stats:" in capsys.readouterr().err


class TestWatch:
    def test_watch_renders_pushed_frames(self, server, capsys):
        _run_job(server)
        t0 = time.monotonic()
        rc = main(["stats", "--port", str(server.port),
                   "--watch", "--interval", "0.3", "--frames", "3"])
        assert rc == 0
        assert time.monotonic() - t0 < 30.0
        out = capsys.readouterr().out
        assert out.count("repro stats @") == 3

    def test_watch_json_frames_marked_as_push(self, server, capsys):
        rc = main(["stats", "--port", str(server.port), "--json",
                   "--watch", "--interval", "0.3", "--frames", "2"])
        assert rc == 0
        frames = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        assert len(frames) == 2
        assert "push" not in frames[0]   # the subscription response
        assert frames[1]["push"] is True  # server-initiated push


class TestDirMode:
    def test_reads_metrics_snapshot_from_telemetry(self, tmp_path, capsys):
        run_dir = tmp_path / "runs" / "r1"
        run_dir.mkdir(parents=True)
        snap = MetricsRegistry()
        snap.inc("serve_accepted", 7)
        event = {"schema": 1, "ts": time.time(), "level": 20, "event": "log",
                 "name": "metrics_snapshot", "server_id": "srv-x",
                 "metrics": snap.snapshot()}
        (run_dir / "telemetry.jsonl").write_text(
            json.dumps({"event": "log", "name": "other"}) + "\n"
            + json.dumps(event) + "\n")
        assert main(["stats", "--dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "admission: accepted=7" in out
        assert "server=srv-x" in out

    def test_falls_back_to_flightrec_dump(self, tmp_path, capsys):
        run_dir = tmp_path / "runs" / "r2"
        (run_dir / "flightrec").mkdir(parents=True)
        snap = MetricsRegistry()
        snap.inc("sim_launches", 5)
        dump = {"schema": 1, "reason": "sigterm", "ts": time.time(),
                "run_id": "r2", "events": [], "metrics": snap.snapshot()}
        (run_dir / "flightrec" / "x.json").write_text(json.dumps(dump))
        assert main(["stats", "--dir", str(run_dir)]) == 0
        assert "launches=5" in capsys.readouterr().out

    def test_empty_dir_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["stats", "--dir", str(empty)]) == 1
        assert "no snapshot" in capsys.readouterr().err

    def test_latest_snapshot_prefers_newest_event(self, tmp_path):
        reg = MetricsRegistry()
        lines = []
        for i in (1, 2):
            reg.inc("serve_accepted")
            lines.append(json.dumps({
                "event": "log", "name": "metrics_snapshot",
                "metrics": reg.snapshot()}))
        (tmp_path / "telemetry.jsonl").write_text("\n".join(lines) + "\n")
        frame = latest_dir_snapshot(tmp_path)
        assert frame["metrics"]["counters"]["serve_accepted"] == 2


class TestRenderAndProtocol:
    def test_render_accepts_bare_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("serve_accepted", 2)
        reg.inc("serve_rejected", 1)
        reg.inc("serve_rejected_overloaded", 1)
        reg.observe("serve_job_latency_s", 0.5)
        text = render_stats(reg.snapshot())
        assert "admission: accepted=2 rejected=1 (overloaded=1)" in text
        assert "job latency" in text

    def test_render_empty_frame(self):
        assert "(no metrics recorded yet)" in render_stats({})

    def test_protocol_validates_watch_fields(self):
        parsed = proto.parse_request(
            {"op": "stats", "watch": True, "interval_s": 1.5})
        assert parsed["watch"] is True and parsed["interval_s"] == 1.5
        for bad in ({"watch": "yes"}, {"watch": True, "interval_s": 0},
                    {"watch": True, "interval_s": "fast"},
                    {"watch": True, "interval_s": True}):
            with pytest.raises(proto.RequestError) as exc:
                proto.parse_request({"op": "stats", **bad})
            assert exc.value.code == "bad_request"

    def test_stats_frame_metrics_key_on_wire(self, server):
        with ServeClient(port=server.port) as client:
            frame = client.stats()
        assert frame["type"] == "stats"
        assert frame["metrics"]["schema"] == 1
