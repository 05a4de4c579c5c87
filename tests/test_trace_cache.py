"""Trace cache: keying, invalidation, writeback, disk layer, and budget.

The cache must *only* serve a trace when (kernel, input data, launch
config) are identical — and on a hit it must reproduce the launch's
functional effects (triangle counters) through the writeback log, because
callers read counts out of the argument arrays.
"""

import numpy as np
import pytest

from repro.algorithms.base import get_algorithm
from repro.gpu import GlobalMemory, ProfileMetrics, launch_kernel
from repro.gpu.device import SIM_RTX_4090, SIM_V100
from repro.gpu.intrinsics import atomic_add_global, ld_global
from repro.gpu.trace import (
    _trace_from_arrays,
    _trace_to_arrays,
    launch_fingerprint,
    reset_trace_cache,
    trace_cache_enabled,
)
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.verify.fixtures import fixture_csr


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Fresh in-memory cache, private disk root and fresh registry (the
    cache's stats are the registry's counters) for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    old = set_metrics(MetricsRegistry())
    cache = reset_trace_cache()
    yield cache
    reset_trace_cache()
    set_metrics(old)


def _sum_kernel(ctx, n, data, out):
    i = ctx.tid
    if i >= n:
        return
    v = yield ld_global(data, i, "ld")
    yield atomic_add_global(out, 0, v, "acc")


def _launch_sum(device=SIM_V100, n=100, seed=3, blocks=None):
    gm = GlobalMemory(device)
    rng = np.random.default_rng(seed)
    host = rng.integers(0, 50, size=n, dtype=np.int64)
    data = gm.alloc("data", host)
    out = gm.zeros("out", 1)
    launch_kernel(
        device,
        _sum_kernel,
        grid_dim=-(-n // 64),
        block_dim=64,
        args=(n, data, out),
        metrics=ProfileMetrics(warp_size=device.warp_size),
        max_blocks_simulated=blocks,
    )
    return int(host.sum()), int(out.data[0])


def test_second_run_hits_memory(isolated_cache):
    _launch_sum()
    assert isolated_cache.stats.stores == 1
    assert isolated_cache.stats.misses == 1
    _launch_sum()
    assert isolated_cache.stats.hits == 1
    assert isolated_cache.stats.stores == 1  # nothing re-recorded


def test_writeback_reproduces_functional_effects(isolated_cache):
    expected, got_cold = _launch_sum()
    assert got_cold == expected
    expected2, got_warm = _launch_sum()
    assert isolated_cache.stats.hits == 1
    assert got_warm == expected2 == expected


def test_config_change_rerecords(isolated_cache):
    _launch_sum(n=100)
    _launch_sum(n=100, blocks=1)  # different sampled block set
    assert isolated_cache.stats.hits == 0
    assert isolated_cache.stats.stores == 2


def test_input_change_rerecords(isolated_cache):
    _launch_sum(seed=3)
    _launch_sum(seed=4)  # same shapes, different array content
    assert isolated_cache.stats.hits == 0
    assert isolated_cache.stats.stores == 2


def test_cross_device_replay_reuses_trace(isolated_cache):
    """Device geometry is replay-time: a second device hits the same trace."""
    csr = fixture_csr("wheel-24")
    alg = get_algorithm("Polak")
    r1 = alg.profile(csr, device=SIM_V100, max_blocks_simulated=4)
    stores_after_first = isolated_cache.stats.stores
    r2 = alg.profile(csr, device=SIM_RTX_4090, max_blocks_simulated=4)
    assert stores_after_first > 0
    assert isolated_cache.stats.stores == stores_after_first
    assert isolated_cache.stats.hits > 0
    assert r1.triangles == r2.triangles


def test_closure_program_is_uncacheable(isolated_cache):
    bias = 7

    def closure_kernel(ctx, n, data, out):
        i = ctx.tid
        if i >= n:
            return
        v = yield ld_global(data, i, "ld")
        yield atomic_add_global(out, 0, v + bias, "acc")

    def run():
        gm = GlobalMemory(SIM_V100)
        data = gm.alloc("data", np.arange(10, dtype=np.int64))
        out = gm.zeros("out", 1)
        launch_kernel(
            SIM_V100, closure_kernel, grid_dim=1, block_dim=32,
            args=(10, data, out),
            metrics=ProfileMetrics(),
        )
        return int(out.data[0])

    assert run() == int(np.arange(10).sum()) + 10 * bias
    run()
    assert isolated_cache.stats.stores == 0
    assert isolated_cache.stats.uncacheable == 2


def test_disk_roundtrip_survives_process_cache_reset(isolated_cache):
    expected, _ = _launch_sum()
    assert isolated_cache.stats.stores == 1
    cache = reset_trace_cache()  # simulate a fresh process: memory gone
    _, got = _launch_sum()
    assert cache.stats.disk_hits == 1
    assert got == expected
    # metrics parity against the event engine after a disk rehydrate
    from repro.verify.engines import engine_mismatches

    rng = np.random.default_rng(11)
    assert engine_mismatches(rng.integers(0, 16, size=(40, 2))) == {}


def test_trace_cache_disabled_by_env(isolated_cache, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    assert not trace_cache_enabled()
    expected, got = _launch_sum()
    assert got == expected
    _launch_sum()
    stats = isolated_cache.stats
    assert (stats.stores, stats.hits, stats.misses, stats.uncacheable) == (0, 0, 0, 0)


def test_fingerprint_sensitivity():
    gm = GlobalMemory(SIM_V100)
    data = gm.alloc("data", np.arange(8, dtype=np.int64))
    out = gm.zeros("out", 1)
    common = dict(grid_dim=1, block_dim=32, shared_words=0, warp_size=32,
                  blocks=np.array([0]))
    base = launch_fingerprint(_sum_kernel, (8, data, out), **common)
    assert base is not None
    assert launch_fingerprint(_sum_kernel, (9, data, out), **common) != base
    assert launch_fingerprint(_sum_kernel, (8, data, out),
                              **{**common, "block_dim": 64}) != base
    data.data[0] = 99
    assert launch_fingerprint(_sum_kernel, (8, data, out), **common) != base
    # unknown argument types cannot be fingerprinted
    assert launch_fingerprint(_sum_kernel, (object(),), **common) is None


def test_trace_serialisation_roundtrip():
    from repro.gpu.engine import record_launch, replay_launch

    gm = GlobalMemory(SIM_V100)
    data = gm.alloc("data", np.arange(40, dtype=np.int64))
    out = gm.zeros("out", 1)
    trace = record_launch(
        SIM_V100, _sum_kernel, grid_dim=2, block_dim=32,
        args=(40, data, out), shared_words=0, blocks=np.array([0, 1]),
    )
    restored = _trace_from_arrays(_trace_to_arrays(trace))
    assert restored is not None
    np.testing.assert_array_equal(restored.writeback, trace.writeback)
    assert replay_launch(restored, SIM_V100).as_dict() == replay_launch(
        trace, SIM_V100
    ).as_dict()


def test_writeback_of_a_trace_stored_before_array_logs():
    """A trace file written while the writeback log was a tuple of tuples
    (TriCore's streaming stage over 5 edges) still loads, and its
    ``(n, 3)`` log reproduces the launch on fresh buffers."""
    import shutil
    from pathlib import Path

    from repro.algorithms.tricore import _stream_thread
    from repro.gpu.engine import apply_writeback, record_launch
    from repro.graph import io

    key = "traces/tricore-stream-5-edges"
    io.store_path(key).parent.mkdir(parents=True)
    shutil.copyfile(Path(__file__).parent / "data" / f"{key}{io.STORE_SUFFIX}", io.store_path(key))
    trace = _trace_from_arrays(io.load_cached_arrays(key))
    assert trace.writeback.shape == (10, 3) and trace.writeback.dtype == np.int64

    def stream_args():
        gm = GlobalMemory(SIM_V100)
        raw_u = gm.alloc("raw_u", np.array([0, 0, 1, 2, 3], dtype=np.int64))
        raw_v = gm.alloc("raw_v", np.array([1, 2, 2, 3, 4], dtype=np.int64))
        return (5, raw_u, raw_v, gm.zeros("stream_u", 5), gm.zeros("stream_v", 5))

    args = stream_args()
    apply_writeback(trace, args)
    np.testing.assert_array_equal(args[3].data, args[1].data)
    np.testing.assert_array_equal(args[4].data, args[2].data)
    recorded = record_launch(
        SIM_V100, _stream_thread, grid_dim=1, block_dim=32, args=stream_args(),
        shared_words=0, blocks=np.arange(1),
    )
    np.testing.assert_array_equal(recorded.writeback, trace.writeback)
    assert [t.digest for t in recorded.unique] == [t.digest for t in trace.unique]


def test_memory_budget_evicts_lru():
    cache = reset_trace_cache(max_bytes=1)  # everything over budget
    _launch_sum(seed=1)
    _launch_sum(seed=2)
    assert cache.stats.evictions >= 1
    assert len(cache) == 1  # at least the newest entry is kept


def test_schema_mismatch_ignored(tmp_path, isolated_cache):
    """A stale on-disk trace with the wrong schema is treated as a miss."""
    from repro.graph import io

    _launch_sum()
    cache = reset_trace_cache()
    get_metrics().reset()  # fresh process: no counts yet
    # rewrite every stored trace with a forged schema tag (valid digest)
    files = list((io.cache_dir() / "traces").glob(f"trace-*{io.STORE_SUFFIX}"))
    assert files
    for f in files:
        key = f"traces/{f.stem}"
        io.store_cached_arrays(key, **{**io.load_cached_arrays(key), "schema": 999_999})
    _launch_sum()
    assert cache.stats.disk_hits == 0
    assert cache.stats.stores == 1
