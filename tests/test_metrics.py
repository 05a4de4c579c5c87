"""Metrics registry: bucket math, snapshot algebra, worker forwarding.

The two load-bearing properties:

* **merge associativity** — worker snapshots fold into the parent in
  completion order, which varies run to run; merge_snapshots must be
  associative (hypothesis-checked on integer-valued observations, where
  float addition is exact) or parallel totals would depend on scheduling.
* **jobs=1 == jobs=N** — the deterministic per-launch counters
  (sim_launches, sim_global_load_requests) must come out identical
  whether cells run serially in-process or forwarded from pool workers.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework.compare import run_matrix
from repro.framework.parallel import run_cells
from repro.gpu.engine import stage_times
from repro.gpu.trace import reset_trace_cache
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    _bucket_key,
    absorb_delta,
    delta_snapshots,
    empty_snapshot,
    hist_quantile,
    hist_summary,
    merge_snapshots,
    set_metrics,
    snapshot_is_empty,
    to_prometheus,
)
from repro.obs.tracer import BufferSink, Tracer, absorb_forwarded, set_tracer

CELLS = [("Polak", "As-Caida"), ("GroupTC", "As-Caida")]
BLOCKS = 4


@pytest.fixture
def registry():
    """Fresh registry installed process-wide; restored after."""
    reg = MetricsRegistry()
    old = set_metrics(reg)
    yield reg
    set_metrics(old)


@pytest.fixture
def quiet_tracer():
    old = set_tracer(Tracer([BufferSink()]))
    yield
    set_tracer(old)


# -- registry core -----------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_hist_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 2.5)
        reg.gauge("g", 3)
        reg.gauge("g", 7)
        for v in (0.5, 1.0, 4.0):
            reg.observe("h", v)
        assert reg.get("c") == 3.5
        assert reg.get_gauge("g") == 7.0
        snap = reg.snapshot()
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["pid"] == os.getpid()
        h = snap["hists"]["h"]
        assert h["count"] == 3
        assert h["sum"] == 5.5
        assert (h["min"], h["max"]) == (0.5, 4.0)
        assert sum(h["buckets"].values()) == 3

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 1.0)
        reg.reset()
        assert snapshot_is_empty(reg.snapshot())

    def test_bucket_key_powers_of_two_on_lower_boundary(self):
        # 2**e must land in bucket e (upper bound inclusive), not e+1.
        for e in (-3, 0, 1, 10):
            assert _bucket_key(2.0 ** e) == str(e)
        assert _bucket_key(3.0) == "2"  # 2 < 3 <= 4
        assert _bucket_key(0.0) == "z"
        assert _bucket_key(-1.0) == "z"

    def test_quantiles_clamped_to_exact_extrema(self):
        reg = MetricsRegistry()
        for v in (0.3, 0.4, 0.45, 100.0):
            reg.observe("h", v)
        h = reg.snapshot()["hists"]["h"]
        # p50's bucket upper bound is 0.5; clamping keeps all quantiles
        # inside the observed range.
        for q in (0.0, 0.5, 0.95, 1.0):
            assert 0.3 <= hist_quantile(h, q) <= 100.0
        digest = hist_summary(h)
        assert digest["min"] == 0.3 and digest["max"] == 100.0
        assert digest["count"] == 4
        assert math.isclose(digest["mean"], (0.3 + 0.4 + 0.45 + 100.0) / 4)
        assert digest["p50"] <= digest["p95"] <= digest["p99"] <= digest["max"]

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.inc("jobs_total_seen", 3)
        reg.gauge("queue_depth", 2)
        reg.observe("latency_s", 0.75)
        reg.observe("latency_s", 1.5)
        text = to_prometheus(reg.snapshot())
        assert "# TYPE repro_jobs_total_seen_total counter" in text
        assert "repro_jobs_total_seen_total 3" in text
        assert "repro_queue_depth 2" in text
        assert 'repro_latency_s_bucket{le="+Inf"} 2' in text
        assert "repro_latency_s_count 2" in text
        # cumulative le buckets are monotonically non-decreasing
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                  if "_bucket{" in line]
        assert counts == sorted(counts)


# -- snapshot algebra --------------------------------------------------------


def _snap_from_ops(ops):
    reg = MetricsRegistry()
    for kind, name, value in ops:
        if kind == 0:
            reg.inc(name, float(value))
        elif kind == 1:
            reg.gauge(name, float(value))
        else:
            reg.observe(name, float(value))
    return reg.snapshot()


def _comparable(snap):
    """Strip the non-algebraic fields (ts/pid) for equality checks."""
    return {"counters": snap["counters"], "hists": snap["hists"],
            "gauges": snap["gauges"]}


_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=-4, max_value=1 << 20),
    ),
    max_size=12,
)


class TestSnapshotAlgebra:
    @given(_OPS, _OPS, _OPS)
    @settings(max_examples=150, deadline=None)
    def test_merge_is_associative(self, ops_a, ops_b, ops_c):
        a, b, c = _snap_from_ops(ops_a), _snap_from_ops(ops_b), _snap_from_ops(ops_c)
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        # gauges are last-write-wins, so both orders end at c's values
        assert _comparable(left) == _comparable(right)

    @given(_OPS, _OPS)
    @settings(max_examples=150, deadline=None)
    def test_empty_is_identity_and_counters_commute(self, ops_a, ops_b):
        a, b = _snap_from_ops(ops_a), _snap_from_ops(ops_b)
        assert _comparable(merge_snapshots(a, empty_snapshot())) == _comparable(a)
        assert _comparable(merge_snapshots(empty_snapshot(), a)) == _comparable(a)
        ab = merge_snapshots(a, b)
        ba = merge_snapshots(b, a)
        assert ab["counters"] == ba["counters"]
        assert {n: h["buckets"] for n, h in ab["hists"].items()} == \
            {n: h["buckets"] for n, h in ba["hists"].items()}

    def test_delta_recovers_increments(self):
        reg = MetricsRegistry()
        reg.inc("c", 5)
        reg.observe("h", 1.0)
        base = reg.snapshot()
        reg.inc("c", 2)
        reg.inc("new", 1)
        reg.observe("h", 2.0)
        delta = delta_snapshots(reg.snapshot(), base)
        assert delta["counters"] == {"c": 2.0, "new": 1.0}
        assert delta["hists"]["h"]["count"] == 1
        assert delta["hists"]["h"]["sum"] == 2.0
        # nothing changed -> empty delta
        assert snapshot_is_empty(delta_snapshots(reg.snapshot(), reg.snapshot()))

    def test_absorb_delta_skips_same_pid(self, registry):
        snap = {"schema": METRICS_SCHEMA, "pid": os.getpid(),
                "counters": {"x": 1.0}, "gauges": {}, "hists": {}}
        absorb_delta(snap)
        assert registry.get("x") == 0.0  # in-process work already counted
        absorb_forwarded([], dict(snap, pid=os.getpid() + 1))
        assert registry.get("x") == 1.0  # a foreign delta merges once


# -- worker forwarding: jobs=1 == jobs=N ------------------------------------


DETERMINISTIC_COUNTERS = ("sim_launches", "sim_global_load_requests",
                          "sim_warps_launched")


class TestWorkerMerge:
    def test_parallel_counters_match_serial(self, tmp_path, monkeypatch,
                                            quiet_tracer):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def run(jobs):
            reg = MetricsRegistry()
            old = set_metrics(reg)
            try:
                records = run_cells(CELLS, jobs=jobs,
                                    max_blocks_simulated=BLOCKS)
            finally:
                set_metrics(old)
            assert all(r.ok for r in records)
            snap = reg.snapshot()
            return {name: snap["counters"].get(name, 0.0)
                    for name in DETERMINISTIC_COUNTERS}

        serial = run(1)
        parallel = run(2)
        assert serial["sim_launches"] >= len(CELLS)  # actually instrumented
        assert parallel == serial

    def test_cold_parallel_matrix_reaches_parent_without_a_switch(
        self, tmp_path, monkeypatch, registry
    ):
        """The registry always counts, so worker stage times and launch
        counts reach the parent with no env var and no flag set."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_trace_cache()
        before = stage_times()["record_s"]
        try:
            matrix = run_matrix(["Polak", "GroupTC"], ["As-Caida"],
                                max_blocks_simulated=BLOCKS, jobs=2)
        finally:
            reset_trace_cache()
        assert all(r.ok for r in matrix.records)
        assert stage_times()["record_s"] > before
        launches = sum(int(r.extra["kernel_launches"]) for r in matrix.records)
        assert launches > 0
        assert registry.get("sim_launches") == launches
