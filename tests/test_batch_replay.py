"""Batched fused replay: parity with per-launch replay and the event engine.

``replay_launch_batch`` reduces many launch traces in single fused array
passes.  The contract is bit-identity: batching is purely an execution
strategy, so every batched :class:`ProfileMetrics` must equal a lone
``replay_launch`` of the same trace, which in turn is parity-tested
against the event engine.  The batch may freely mix kernels, launch
configurations, and matrix cells.
"""

import numpy as np
import pytest

from repro.gpu import GlobalMemory, ProfileMetrics, launch_kernel, use_engine
from repro.gpu.device import SIM_RTX_4090, SIM_V100, get_device
from repro.gpu.engine import record_launch, replay_launch, replay_launch_batch
from repro.gpu.intrinsics import atomic_add_global, ld_global, st_global, syncthreads
from repro.gpu.trace import _trace_from_arrays, _trace_to_arrays, get_trace_cache
from repro.verify.fixtures import GOLDEN_DEVICES
from repro.verify.goldens import compare_snapshots, record_device

_MEMO_SECTIONS = ("base_counters", "stream_per_trace", "stream", "group_sectors")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    from repro.gpu.trace import reset_trace_cache

    yield reset_trace_cache()
    reset_trace_cache()


def _fresh_copy(trace):
    """Round-trip a trace without its replay memo: replays run from scratch.

    The stored per-geometry totals are dropped too, or a replay on the
    recording device would be served from them without reducing anything.
    """
    arrays = _trace_to_arrays(trace)
    for name in _MEMO_SECTIONS + ("totals",):
        arrays.pop(name, None)
    restored = _trace_from_arrays(arrays)
    assert restored is not None
    assert not restored._totals
    return restored


# --- hand kernels with deliberately mixed shapes --------------------------


def _sum_kernel(ctx, n, data, out):
    i = ctx.tid
    if i >= n:
        return
    v = yield ld_global(data, i, "ld")
    yield atomic_add_global(out, 0, v, "acc")


def _strided_kernel(ctx, n, data, out):
    i = ctx.tid
    total = 0
    while i < n:
        total += yield ld_global(data, i, "ld")
        i += ctx.block_dim * ctx.grid_dim
    yield atomic_add_global(out, 0, total, "acc")


def _divergent_kernel(ctx, n, data, out):
    i = ctx.tid
    if i >= n:
        return
    v = yield ld_global(data, i, "ld")
    if v % 2:
        yield atomic_add_global(out, 0, v, "odd")
    else:
        yield st_global(out, 1 + (i % 3), v, "even")
    yield syncthreads()


def _record_mixed(seed):
    """Record a window of launches mixing kernels and configurations."""
    rng = np.random.default_rng(seed)
    traces = []
    for kernel in (_sum_kernel, _strided_kernel, _divergent_kernel):
        n = int(rng.integers(5, 200))
        block_dim = int(rng.choice([32, 64, 128]))
        grid = max(1, -(-n // block_dim))
        gm = GlobalMemory(SIM_V100)
        data = gm.alloc("data", rng.integers(0, 99, size=n, dtype=np.int64))
        out = gm.zeros("out", 8)
        blocks = np.arange(grid, dtype=np.int64)
        traces.append(
            record_launch(
                SIM_V100,
                kernel,
                grid_dim=grid,
                block_dim=block_dim,
                args=(n, data, out),
                shared_words=0,
                blocks=blocks,
            )
        )
    return traces


@pytest.mark.parametrize("device", [SIM_V100, SIM_RTX_4090])
def test_batch_equals_per_launch_mixed_configs(device):
    """Batched replay of a mixed window == one replay_launch per trace."""
    for seed in range(5):
        traces = _record_mixed(seed)
        solo = [replay_launch(_fresh_copy(t), device).as_dict() for t in traces]
        batch = [
            m.as_dict()
            for m in replay_launch_batch([_fresh_copy(t) for t in traces], device)
        ]
        assert batch == solo


def test_batch_equals_event_engine():
    """Batch-replayed metrics match the event engine's, kernel by kernel."""
    traces = _record_mixed(99)
    batched = replay_launch_batch([_fresh_copy(t) for t in traces], SIM_V100)
    # Re-run the same launches (same rng stream) under the event engine.
    rng = np.random.default_rng(99)
    for kernel, got in zip(
        (_sum_kernel, _strided_kernel, _divergent_kernel), batched
    ):
        n = int(rng.integers(5, 200))
        block_dim = int(rng.choice([32, 64, 128]))
        grid = max(1, -(-n // block_dim))
        gm = GlobalMemory(SIM_V100)
        data = gm.alloc("data", rng.integers(0, 99, size=n, dtype=np.int64))
        out = gm.zeros("out", 8)
        metrics = ProfileMetrics(warp_size=SIM_V100.warp_size)
        with use_engine("event"):
            launch_kernel(
                SIM_V100,
                kernel,
                grid_dim=grid,
                block_dim=block_dim,
                args=(n, data, out),
                metrics=metrics,
            )
        # Launch-level bookkeeping (kernel_launches, blocks/warps launched)
        # is added by launch_kernel, not by replay — compare the
        # trace-derived counters.
        launch_level = {
            "kernel_launches",
            "blocks_launched",
            "warps_launched",
            "blocks_simulated",
        }
        got_d = {k: v for k, v in got.as_dict().items() if k not in launch_level}
        want = {k: v for k, v in metrics.as_dict().items() if k not in launch_level}
        assert got_d == want


def test_batch_equals_per_launch_on_golden_matrix():
    """All traces of a full golden-matrix run: batched == per-launch.

    The production run memoises replay results on each trace; the batch
    and solo replays below run on memo-stripped copies, so both recompute
    from raw trace rows and must still agree with the production metrics'
    source traces.
    """
    device_name = GOLDEN_DEVICES[0]
    device = get_device(device_name)
    with use_engine("vectorized"):
        record_device(device_name)
    traces = list(get_trace_cache()._entries.values())
    assert len(traces) > 20  # the matrix produced a real trace population
    solo = [replay_launch(_fresh_copy(t), device).as_dict() for t in traces]
    batch = [
        m.as_dict()
        for m in replay_launch_batch([_fresh_copy(t) for t in traces], device)
    ]
    assert batch == solo
    # Batching memoised traces (the warm path) reproduces the same result.
    warm = [m.as_dict() for m in replay_launch_batch(traces, device)]
    assert warm == solo


def test_batch_replay_memoises_totals():
    """A second batched replay serves from the per-trace totals memo."""
    traces = [_fresh_copy(t) for t in _record_mixed(7)]
    first = [m.as_dict() for m in replay_launch_batch(traces, SIM_V100)]
    assert all(t._totals for t in traces)
    second = [m.as_dict() for m in replay_launch_batch(traces, SIM_V100)]
    assert second == first


def test_golden_snapshot_identical_across_engines():
    """Byte-identical snapshots: event vs. vectorized on the golden device."""
    device_name = GOLDEN_DEVICES[0]
    with use_engine("event"):
        event = record_device(device_name)
    with use_engine("vectorized"):
        vec = record_device(device_name)
    assert compare_snapshots(event, vec) == []
