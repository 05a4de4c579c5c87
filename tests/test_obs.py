"""Observability subsystem: tracer, attribution conservation, profile CLI.

The load-bearing assertion is *conservation*: per-source-line counters
summed over the hotspot table must equal the launch totals the golden
tests pin — on record/replay, on its event oracle, and on warm
trace-cache hits.
If attribution ever drifts from the metrics, the profiler is lying.
"""

import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import repro
from repro.framework.cli import main
from repro.framework.compare import run_matrix
from repro.framework.parallel import run_cells
from repro.framework.resilience import RunJournal
from repro.gpu.engine import event_oracle
from repro.gpu.metrics import ProfileMetrics
from repro.gpu.trace import reset_trace_cache
from repro.obs.attribution import LINE_FIELDS, LineProfileCollector
from repro.obs.chrome import timeline_to_trace, validate_trace, write_trace
from repro.obs.session import profile_run
from repro.obs.timeline import build_timeline
from repro.obs.tracer import (
    TELEMETRY_SCHEMA,
    BufferSink,
    JsonlSink,
    Tracer,
    absorb_forwarded,
    set_tracer,
)

ENGINES = ("vectorized", "event")


def _engine_scope(engine):
    return event_oracle() if engine == "event" else nullcontext()


@pytest.fixture
def tracer_buf():
    """Install an isolated in-memory tracer; restore the old one after."""
    buf = BufferSink()
    old = set_tracer(Tracer([buf]))
    yield buf
    set_tracer(old)


# -- tracer core -------------------------------------------------------------


class TestSpans:
    def test_nesting_and_event_shape(self, tracer_buf):
        tracer = Tracer([tracer_buf])
        set_tracer(tracer)
        with tracer.span("outer", level="info", tag="a"):
            with tracer.span("inner", level="info"):
                tracer.info("hello", n=3)
        events = tracer_buf.events
        kinds = [(e["event"], e.get("name")) for e in events]
        assert kinds == [
            ("span_begin", "outer"), ("span_begin", "inner"),
            ("log", "log"), ("span_end", "inner"), ("span_end", "outer"),
        ]
        for e in events:
            assert e["schema"] == TELEMETRY_SCHEMA
            assert isinstance(e["ts"], float)
            assert e["pid"] == os.getpid()
        begin_inner = events[1]
        end_outer = events[-1]
        assert begin_inner["parent"] == events[0]["span"]
        assert begin_inner["depth"] == 1
        assert end_outer["dur_s"] >= 0
        assert end_outer["tag"] == "a"

    def test_exception_safety(self, tracer_buf):
        tracer = Tracer([tracer_buf])
        set_tracer(tracer)
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        ends = [e for e in tracer_buf.events if e["event"] == "span_end"]
        assert [e["name"] for e in ends] == ["inner", "outer"]
        assert all(e["error"] == "ValueError: boom" for e in ends)
        assert tracer._stack() == []  # fully unwound

    def test_disabled_tracer_is_null(self):
        tracer = Tracer()  # no sinks => min_level off
        assert not tracer.enabled("error")
        span = tracer.span("x")
        with span:
            span.set(ignored=True)  # NULL_SPAN: all no-ops

    def test_counter_deltas_ride_on_span_end(self, tracer_buf):
        tracer = Tracer([tracer_buf])
        set_tracer(tracer)
        metrics = ProfileMetrics()
        with tracer.span("work", metrics=metrics):
            metrics.global_load_requests += 7
        end = tracer_buf.events[-1]
        assert end["counters"]["global_load_requests"] == 7


class TestJsonlRoundTrip:
    def test_schema_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer([sink])
        old = set_tracer(tracer)
        try:
            with tracer.span("launch", kernel="k", grid_dim=8):
                tracer.warning("watch out", code=7)
        finally:
            sink.close()
            set_tracer(old)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert {e["schema"] for e in lines} == {TELEMETRY_SCHEMA}
        begin, log, end = lines
        assert begin["event"] == "span_begin" and begin["grid_dim"] == 8
        assert log["msg"] == "watch out" and log["span"] == begin["span"]
        assert end["event"] == "span_end" and end["span"] == begin["span"]

    def test_batches_write_compact_lines_in_order(self, tmp_path):
        """Events wait in the batch until a warning (or FLUSH_EVERY); each
        lands as its own compact JSON line, in emit order, and a sink
        dropped without close() still writes its tail."""
        import gc

        path = tmp_path / "batch.jsonl"
        sink = JsonlSink(path, level="info")
        tracer = Tracer([sink])
        tracer.info("a", x=1.5, big=2**70, text="é")
        assert path.read_text() == ""  # still batched
        tracer.warning("b", ys=[1, 2], nested={"k": None})
        assert len(path.read_text().splitlines()) == 2
        tracer.info("c")
        del tracer, sink
        gc.collect()
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["msg"] for e in events] == ["a", "b", "c"]
        assert lines == [json.dumps(e, separators=(",", ":")) for e in events]

    def test_atexit_flushes_batched_tail(self, tmp_path):
        """A process that emits fewer than FLUSH_EVERY events and exits
        without close() must not lose them: the sink's finalizer writes
        the batched tail at exit."""
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "tail.jsonl"
        code = textwrap.dedent(f"""
            from repro.obs.tracer import JsonlSink, Tracer, set_tracer
            sink = JsonlSink({str(path)!r})
            tracer = Tracer([sink])
            set_tracer(tracer)
            for i in range(5):  # well under FLUSH_EVERY, all debug-level
                tracer.debug("tick", i=i)
            # no close(), no flush: exit with the tail still buffered
        """)
        env = dict(os.environ, PYTHONPATH="src")
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["i"] for e in lines] == list(range(5))


class TestMetricsSnapshot:
    def test_snapshot_delta_pair(self):
        m = ProfileMetrics()
        before = m.snapshot()
        m.global_load_requests += 5
        m.warp_steps += 2
        m.kernel_launches += 1
        d = m.delta(before)
        assert d["global_load_requests"] == 5
        assert d["warp_steps"] == 2
        assert d["kernel_launches"] == 1
        assert all(v == 0 for k, v in d.items()
                   if k not in ("global_load_requests", "warp_steps", "kernel_launches"))

    def test_add_counters_order_deterministic(self):
        a, b = ProfileMetrics(), ProfileMetrics()
        deltas = {"warp_steps": 0.1, "global_load_requests": 0.2, "alu_cycles": 0.3}
        a.add_counters(deltas)
        b.add_counters(dict(reversed(list(deltas.items()))))
        assert a.snapshot() == b.snapshot()


# -- attribution conservation ------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
class TestConservation:
    def test_line_sums_equal_metric_totals(self, engine):
        with _engine_scope(engine):
            session = profile_run("Polak", "As-Caida", max_blocks_simulated=4)
        rec, col = session.record, session.collector
        assert rec.ok
        assert col.launches >= 1
        assert col.line_total("global_load_requests") == pytest.approx(
            rec.global_load_requests, rel=1e-6
        )
        assert col.line_total("global_load_requests") == pytest.approx(
            col.kernel_total("global_load_requests"), rel=1e-6
        )
        # every hot line carries a real source location
        for (fname, lineno), values in col.hot_lines(top=5):
            assert fname and lineno > 0
            assert set(values) == set(LINE_FIELDS)

    def test_warm_cache_hit_preserves_attribution(self, engine):
        with _engine_scope(engine):
            cold = profile_run("Polak", "As-Caida", max_blocks_simulated=4)
            warm = profile_run("Polak", "As-Caida", max_blocks_simulated=4)
        assert warm.collector.lines == cold.collector.lines
        if engine == "vectorized":
            # Launch capture (for the timeline) needs recorded traces,
            # which only the vectorized engine produces — and it must
            # fire on the warm cache-hit path too.
            assert warm.launches and len(warm.launches) == len(cold.launches)


def test_engines_attribute_identically():
    vec = profile_run("Polak", "As-Caida", max_blocks_simulated=4)
    with event_oracle():
        evt = profile_run("Polak", "As-Caida", max_blocks_simulated=4)
    assert set(vec.collector.lines) == set(evt.collector.lines)
    for loc, values in vec.collector.lines.items():
        for field in LINE_FIELDS:
            assert values[field] == pytest.approx(
                evt.collector.lines[loc][field], rel=1e-6
            ), (loc, field)


def test_trace_store_attributes_under_another_package_root(tmp_path, monkeypatch):
    """Stored traces name package-relative files, so a checkout at another
    root reads a store recorded here and attributes the same lines to its
    own copies of the sources."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    reset_trace_cache()
    try:
        here = profile_run("Polak", "As-Caida", max_blocks_simulated=4)
    finally:
        reset_trace_cache()
    assert here.collector.lines
    assert not any(os.path.isabs(f) for f, _ in here.collector.lines)
    root = tmp_path / "elsewhere"
    shutil.copytree(
        Path(repro.__file__).parent, root / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    script = (
        "import json, sys\n"
        "from repro.obs.attribution import source_path\n"
        "from repro.obs.metrics import get_metrics\n"
        "from repro.obs.report import render_hot_lines\n"
        "from repro.obs.session import profile_run\n"
        "s = profile_run('Polak', 'As-Caida', max_blocks_simulated=4)\n"
        "m = get_metrics()\n"
        "json.dump({'lines': [[f, n, v] for (f, n), v in s.collector.lines.items()],\n"
        "           'files': sorted({source_path(f) for f, _ in s.collector.lines}),\n"
        "           'report': render_hot_lines(s.collector),\n"
        "           'disk_hits': m.get('trace_cache_disk_hits'),\n"
        "           'misses': m.get('trace_cache_misses')}, sys.stdout)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root), "REPRO_CACHE_DIR": str(cache)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    there = json.loads(out.stdout)
    assert there["disk_hits"] > 0 and there["misses"] == 0  # nothing re-recorded
    assert {(f, n): v for f, n, v in there["lines"]} == here.collector.lines
    assert all(f.startswith(str(root / "repro")) for f in there["files"])
    assert 'yield ("g"' in there["report"]  # source text read from the copy


# -- timeline & Chrome export ------------------------------------------------


class TestTimeline:
    def test_build_and_validate_trace(self, tmp_path):
        session = profile_run("Polak", "As-Caida", max_blocks_simulated=4)
        timeline = build_timeline(session.launches)
        assert timeline.sm_count >= 1
        assert timeline.slices
        assert all(0 <= s.sm < timeline.sm_count for s in timeline.slices)
        assert all(s.dur_us >= 0 for s in timeline.slices)
        trace = timeline_to_trace(timeline, telemetry_events=session.events)
        assert validate_trace(trace) == []
        path = tmp_path / "trace.json"
        write_trace(trace, path)
        assert validate_trace(json.loads(path.read_text())) == []

    def test_phases_nest_inside_block_slice(self):
        session = profile_run("Bisson", "As-Caida", max_blocks_simulated=4)
        timeline = build_timeline(session.launches)
        for s in timeline.slices:
            end = s.start_us + s.dur_us
            for t0, dur in s.phases:
                assert s.start_us - 1e-9 <= t0 and t0 + dur <= end + 1e-9

    def test_validator_flags_garbage(self):
        assert validate_trace({}) == ["traceEvents missing or not a list"]
        bad = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "ts": -1, "name": "k"}]}
        assert any("bad ts" in p for p in validate_trace(bad))
        unbalanced = {"traceEvents": [
            {"ph": "E", "pid": 0, "tid": 0, "ts": 1.0, "name": "s"},
        ]}
        assert any("E without matching B" in p for p in validate_trace(unbalanced))


# -- worker forwarding -------------------------------------------------------


def _carries_telemetry(record) -> bool:
    text = json.dumps(record.extra, default=str)
    return "span_begin" in text or '"pid"' in text


class TestForwarding:
    def test_parallel_workers_forward_events(self, tracer_buf):
        cells = [("Polak", "As-Caida"), ("Bisson", "As-Caida")]
        records = run_cells(cells, jobs=2, max_blocks_simulated=4)
        assert [r.status for r in records] == ["ok", "ok"]
        assert not any(_carries_telemetry(r) for r in records)
        forwarded = [e for e in tracer_buf.events if e.get("forwarded")]
        assert forwarded, "worker events never reached the parent tracer"
        assert {e["name"] for e in forwarded} >= {"cell", "launch"}
        assert all(e["pid"] != os.getpid() for e in forwarded)

    def test_serial_path_emits_without_duplicates(self, tracer_buf):
        records = run_cells([("Polak", "As-Caida")], jobs=1, max_blocks_simulated=4)
        assert records[0].status == "ok"
        assert not _carries_telemetry(records[0])
        cell_ends = [
            e for e in tracer_buf.events
            if e.get("event") == "span_end" and e.get("name") == "cell"
        ]
        assert len(cell_ends) == 1

    def test_journaled_records_carry_no_telemetry(self, tracer_buf, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        m = run_matrix(["Polak"], ["As-Caida"], max_blocks_simulated=4, run_id="fwd")
        assert m.records[0].ok and not _carries_telemetry(m.records[0])
        assert [e for e in tracer_buf.events if e.get("forwarded") and e.get("name") == "cell"]
        journaled = RunJournal("fwd").load()
        assert not any(_carries_telemetry(r) for r in journaled.values())

    def test_same_pid_events_are_not_reemitted(self, tracer_buf):
        event = {"event": "log", "msg": "x", "level": 20, "pid": os.getpid()}
        absorb_forwarded([event], None)
        assert tracer_buf.events == []
        absorb_forwarded([dict(event, pid=os.getpid() + 1)], None)
        assert [e["forwarded"] for e in tracer_buf.events] == [True]


# -- profile CLI -------------------------------------------------------------


class TestProfileCli:
    def test_profile_command(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main([
            "--blocks", "4",
            "profile", "Polak", "As-Caida",
            "--top", "5", "--export-trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "==PROF==" in out
        assert "_polak_thread" in out
        assert "polak.py:" in out  # hotspot rows name real source lines
        assert "wrote Chrome trace" in out
        trace = json.loads(trace_path.read_text())
        assert validate_trace(trace) == []
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

    def test_profile_unknown_dataset_fails_cleanly(self, capsys):
        with pytest.raises(KeyError):
            main(["profile", "Polak", "Not-A-Dataset"])

    def test_log_flags_parse(self):
        from repro.framework.cli import build_parser
        args = build_parser().parse_args(["--verbose", "table1"])
        assert args.verbose and not args.quiet
        args = build_parser().parse_args(["--log-level", "debug", "table1"])
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):  # mutually exclusive
            build_parser().parse_args(["--quiet", "--verbose", "table1"])
