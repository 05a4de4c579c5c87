"""Green's array emitter writes the trace generator recording would.

:mod:`repro.algorithms.green_emit` replaces generator recording for
Green's Merge-Path kernel.  For every launch shape Green can make the
emitted :class:`~repro.gpu.trace.LaunchTrace` must equal the
generator-recorded one field by field — block digests, instances,
writeback, location table, sampled blocks — and leave the same ``out``
buffer behind.  ``record_generators`` is the reference throughout.
"""

import linecache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import Polak, green, polak
from repro.algorithms.green import Green, _green_thread
from repro.algorithms.green_emit import SITES, emit_green_launch
from repro.graph import oriented_csr
from repro.graph.datasets import load_oriented
from repro.graph.edgelist import clean_edges
from repro.gpu import engine
from repro.gpu.device import SIM_V100, get_device
from repro.gpu.engine import check_emitters, emitter_mismatches, record_launch
from repro.gpu.kernel import launch_kernel
from repro.gpu.trace import reset_trace_cache
from repro.obs.attribution import package_path, source_path
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.statsview import render_stats
from repro.obs.tracer import BufferSink, Tracer, set_tracer
from repro.verify.engines import engine_mismatches
from repro.verify.fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, fixture_csr, fixture_names
from tests import emit_checks
from tests.emit_checks import algorithm_launches, copy_args


def green_launch(csr, device, max_blocks=None, **config):
    """The ``launch_kernel`` arguments ``Green.launch`` passes for ``csr``."""
    [(_, launch)] = algorithm_launches(green, Green, csr, device, max_blocks, **config)
    return launch


def assert_identical(device, launch):
    """Emit and generator-record ``launch`` on copies; every field agrees."""
    return emit_checks.assert_identical(device, _green_thread, launch)


# --------------------------------------------------------------------------
# launch shapes
# --------------------------------------------------------------------------


@pytest.mark.parametrize("device_name", GOLDEN_DEVICES)
@pytest.mark.parametrize("fixture", fixture_names())
def test_golden_fixtures(device_name, fixture):
    device = get_device(device_name)
    assert_identical(device, green_launch(fixture_csr(fixture), device, GOLDEN_BLOCKS))


@pytest.mark.parametrize(
    "dataset,blocks",
    [("As-Caida", 16), ("P2p-Gnutella31", 16), ("Email-EuAll", 16), ("Com-Orkut", 4)],
)
def test_matrix_replicas(dataset, blocks):
    launch = green_launch(load_oriented(dataset), SIM_V100, blocks)
    trace = assert_identical(SIM_V100, launch)
    assert len(trace.blocks) == min(blocks, launch["grid_dim"])


@pytest.mark.parametrize("fixture", ["powerlaw-120", "rmat-128", "star-cliques"])
def test_unsampled_grids(fixture):
    launch = green_launch(fixture_csr(fixture), SIM_V100, None, grid_divisor=1)
    assert len(launch["blocks"]) == launch["grid_dim"] > 1
    assert_identical(SIM_V100, launch)


@pytest.mark.parametrize("block_dim", [512, 96, 48, 40])
@pytest.mark.parametrize("max_blocks", [None, 3])
def test_block_dims(block_dim, max_blocks):
    """Partial warps (48, 40) and warps straddling two ``tid // 32`` slots."""
    launch = green_launch(
        fixture_csr("powerlaw-120"), SIM_V100, max_blocks, block_dim=block_dim, grid_divisor=4
    )
    assert_identical(SIM_V100, launch)


def test_large_grid_divisor():
    """One block: every warp walks many edges in its grid stride."""
    launch = green_launch(fixture_csr("powerlaw-120"), SIM_V100, None, grid_divisor=10**6)
    assert launch["grid_dim"] == 1
    assert_identical(SIM_V100, launch)


TINY = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])


@pytest.mark.parametrize(
    "edges,grid_divisor,block_dim",
    [(TINY, 10**6, 512), ("wheel-24", 1, 40), ("wheel-24", 1, 48)],
)
def test_warps_starting_past_the_last_edge(edges, grid_divisor, block_dim):
    csr = fixture_csr(edges) if isinstance(edges, str) else oriented_csr(edges)
    launch = green_launch(csr, SIM_V100, None, block_dim=block_dim, grid_divisor=grid_divisor)
    last_tid = launch["grid_dim"] * block_dim - 1
    assert last_tid // 32 >= csr.m  # some lanes never enter the edge loop
    assert_identical(SIM_V100, launch)


def test_empty_graph():
    csr = oriented_csr(np.empty((0, 2), dtype=np.int64))
    trace = assert_identical(SIM_V100, green_launch(csr, SIM_V100))
    assert trace.writeback.tolist() == [[5, 0, 0]]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 24))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=70)
    )
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return oriented_csr(clean_edges(edges))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    csr=small_graphs(),
    block_dim=st.sampled_from([32, 40, 48, 64, 96, 512]),
    grid_divisor=st.sampled_from([1, 2, 10]),
    max_blocks=st.sampled_from([None, 1, 2]),
)
def test_random_graphs(csr, block_dim, grid_divisor, max_blocks):
    launch = green_launch(
        csr, SIM_V100, max_blocks, block_dim=block_dim, grid_divisor=grid_divisor
    )
    assert_identical(SIM_V100, launch)


# --------------------------------------------------------------------------
# wiring: dispatch, line table, checks, observability
# --------------------------------------------------------------------------


def test_site_lines_name_the_kernel_yields():
    assert len(SITES.lines) == len(SITES.keys) == 11
    for (op, tag), (path, line) in zip(SITES.keys, SITES.lines):
        assert path == package_path(_green_thread.__code__.co_filename)
        assert f'("{op}", "{tag}"' in linecache.getline(source_path(path), line)


def test_record_launch_uses_the_emitter():
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        launch = green_launch(fixture_csr("clique-12"), SIM_V100)
        with mock.patch.dict(engine._EMITTERS, {_green_thread: mock.Mock(wraps=emit_green_launch)}):
            record_launch(SIM_V100, _green_thread, **launch)
            assert engine._EMITTERS[_green_thread].call_count == 1
    finally:
        set_metrics(old)
    assert registry.snapshot()["counters"]["record_emitted_launches"] == 1


def _mislabelled(*args, **kwargs):
    """An emitter whose location table swaps two sites' lines."""
    trace = emit_green_launch(*args, **kwargs)
    locs = list(trace.locations)
    locs[1], locs[2] = locs[2], locs[1]
    trace.locations = tuple(locs)
    return trace


def test_emitter_mismatches_names_the_differing_fields():
    launch = green_launch(fixture_csr("clique-12"), SIM_V100)
    assert emitter_mismatches(SIM_V100, _green_thread, **launch) == []
    with mock.patch.dict(engine._EMITTERS, {_green_thread: _mislabelled}):
        assert emitter_mismatches(SIM_V100, _green_thread, **launch) == ["locations"]


def test_engine_parity_reports_trace_mismatches():
    edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3], [1, 3]])
    assert engine_mismatches(edges) == {}
    with mock.patch.dict(engine._EMITTERS, {_green_thread: _mislabelled}):
        bad = engine_mismatches(edges)
    # The counters agree; only the trace-level diff sees the wrong lines.
    assert bad == {"Green/trace": {"_green_thread": ["locations"]}}


def test_check_emitters_runs_on_cache_hits(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    cache = reset_trace_cache()
    old = set_metrics(MetricsRegistry())  # the cache's stats are its counters
    launch = green_launch(fixture_csr("clique-12"), SIM_V100)
    del launch["blocks"]
    try:
        with mock.patch.dict(engine._EMITTERS, {_green_thread: _mislabelled}):
            for _ in range(2):
                with check_emitters() as found:
                    args = copy_args(launch["args"])
                    launch_kernel(SIM_V100, _green_thread, **{**launch, "args": args})
                assert found == [("_green_thread", ["locations"])]
        assert cache.stats.hits == 1  # the second launch never recorded
    finally:
        set_metrics(old)
        reset_trace_cache()


def test_record_span_says_whether_the_trace_was_emitted(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    buf = BufferSink()
    old = set_tracer(Tracer([buf]))
    try:
        Green().profile(fixture_csr("clique-12"), device=SIM_V100)
        Polak().profile(fixture_csr("clique-12"), device=SIM_V100)
    finally:
        set_tracer(old)
    emitted = {
        e["kernel"]: e["emitted"]
        for e in buf.events
        if e["event"] == "span_begin" and e["name"] == "record"
    }
    assert emitted["_green_thread"] is True
    assert set(emitted.values()) == {True, False}


def test_stats_engine_line_shows_emitted_launches():
    """``emitted=N/M``: N launches recorded by emitters out of M recorded."""
    registry = MetricsRegistry()
    registry.inc("engine_record_s", 0.25)
    registry.inc("record_emitted_launches", 3)
    registry.inc("record_generator_launches", 2)
    line = next(
        ln for ln in render_stats(registry.snapshot()).splitlines() if "engine stages" in ln
    )
    assert "record=" in line and line.endswith("emitted=3/5")


def test_record_launch_counts_generator_launches():
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        [(_, launch)] = algorithm_launches(polak, Polak, fixture_csr("clique-12"), SIM_V100)
        record_launch(SIM_V100, polak._polak_thread, **launch)
    finally:
        set_metrics(old)
    counters = registry.snapshot()["counters"]
    assert counters["record_generator_launches"] == 1
    assert "record_emitted_launches" not in counters
