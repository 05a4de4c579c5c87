"""Launch traces in the cache store (``.cache/traces/``).

Covers the storage contract on the trace's own terms: roundtrip fidelity
of every field (including the optional replay-memo sections), zero-copy
read-only mapping, a damaged file re-recorded through the trace cache,
concurrent multi-process open of one entry, the ``repro stats`` trace-store
line counting trace files only, and jobs=1 == jobs=N record identity
through the framework matrix.  Damage of every kind, to every kind of
store file, is covered in ``tests/test_io.py``.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.gpu import GlobalMemory, ProfileMetrics, launch_kernel
from repro.gpu.device import SIM_V100
from repro.gpu.intrinsics import atomic_add_global, ld_global
from repro.gpu.trace import reset_trace_cache
from repro.graph import io
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.statsview import _fmt_bytes, render_stats


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
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


def _launch(n=64, seed=5):
    gm = GlobalMemory(SIM_V100)
    rng = np.random.default_rng(seed)
    host = rng.integers(0, 50, size=n, dtype=np.int64)
    data = gm.alloc("data", host)
    out = gm.zeros("out", 1)
    launch_kernel(
        SIM_V100,
        _sum_kernel,
        grid_dim=-(-n // 32),
        block_dim=32,
        args=(n, data, out),
        metrics=ProfileMetrics(warp_size=SIM_V100.warp_size),
    )
    return int(host.sum()), int(out.data[0])


def _stored_keys():
    files = sorted((io.cache_dir() / "traces").glob(f"*{io.STORE_SUFFIX}"))
    return [f"traces/{path.stem}" for path in files]


def test_roundtrip_preserves_all_sections():
    """store -> load returns every entry identically, memo included."""
    _launch()
    keys = _stored_keys()
    assert keys
    for key in keys:
        entries = io.load_cached_arrays(key)
        assert entries is not None
        # The production path stores after the first replay, so the memo
        # sections must have travelled with the trace.
        for name in ("base_counters", "stream_per_trace", "stream", "group_sectors"):
            assert name in entries, f"missing memo section {name}"
        io.store_cached_arrays(key + "-copy", **entries)
        again = io.load_cached_arrays(key + "-copy")
        assert sorted(again) == sorted(entries)
        for name, val in entries.items():
            if isinstance(val, np.ndarray):
                assert val.dtype == again[name].dtype
                np.testing.assert_array_equal(val, again[name])
            else:
                assert val == again[name]


def test_loaded_arrays_are_readonly_views():
    """mmap-served arrays are zero-copy and cannot be mutated in place."""
    _launch()
    entries = io.load_cached_arrays(_stored_keys()[0])
    ops = entries["ops"]
    assert not ops.flags.writeable
    with pytest.raises(ValueError):
        ops[0] = 0


def test_corrupt_file_dropped_and_regenerated():
    """Flipping payload bytes breaks the digest: miss, drop, re-record."""
    expected, _ = _launch()
    (key,) = _stored_keys()
    path = io.store_path(key)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    cache = reset_trace_cache()  # fresh process: memory cache gone
    get_metrics().reset()  # ... and no counts yet
    _, got = _launch()
    assert got == expected
    assert cache.stats.disk_hits == 0
    assert cache.stats.stores == 1  # re-recorded and re-stored
    assert get_metrics().get("trace_store_heals") == 1
    # the store healed itself: the entry is valid again
    assert io.load_cached_arrays(key) is not None


def test_stats_line_counts_trace_files_only(isolated_cache):
    """Replica and facts reads (hits, misses, heals) share the store but
    stay out of the ``trace store:`` line of ``repro stats``."""
    _launch()  # cold: one disk miss, one file stored
    (key,) = _stored_keys()
    size = io.store_path(key).stat().st_size
    edges = io.cache_key("edges", "Stats", seed=1)
    io.store_cached_arrays(edges, edges=np.zeros((4, 2), dtype=np.int64))
    assert io.load_cached_arrays(edges) is not None
    assert io.load_cached_arrays("facts-never-stored") is None
    io.store_path(edges).write_bytes(b"")
    assert io.load_cached_arrays(edges) is None  # a healed replica file
    reset_trace_cache()
    _launch()  # warm: one disk hit
    (line,) = [
        ln for ln in render_stats(get_metrics().snapshot()).splitlines() if "trace store:" in ln
    ]
    assert f"disk 1/2 hits (50%) mapped={_fmt_bytes(size)} heals=0 " in line


def _read_worker(args):
    root, key = args
    os.environ["REPRO_CACHE_DIR"] = root
    arrays = io.load_cached_arrays(key)
    if arrays is None:
        return None
    return {
        name: val.tobytes()
        for name, val in arrays.items()
        if isinstance(val, np.ndarray)
    }


def test_concurrent_multiprocess_open():
    """N workers mapping one entry all see identical bytes (shared pages)."""
    _launch()
    root, key = str(io.cache_dir()), _stored_keys()[0]
    baseline = _read_worker((root, key))
    assert baseline is not None
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_read_worker, [(root, key)] * 8))
    assert all(r == baseline for r in results)


def _matrix_records(jobs):
    from repro.framework.compare import run_matrix

    matrix = run_matrix(["Polak", "Hu"], ["As-Caida"], jobs=jobs)
    return matrix.records


def test_jobs_parallel_matches_serial():
    """jobs=1 and jobs=2 produce identical records over a warm store."""
    serial = _matrix_records(jobs=1)
    assert _stored_keys()  # serial run populated the store
    parallel = _matrix_records(jobs=2)
    assert parallel == serial
    # the parallel workers served from the shared store: nothing re-stored
    reset_trace_cache()
    again = _matrix_records(jobs=2)
    assert again == serial
