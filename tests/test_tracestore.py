"""The mmap-backed shared trace store (``.cache/traces/``).

Covers the storage contract on its own terms: binary roundtrip fidelity
(including the optional replay-memo sections), corruption and truncation
handling (drop and re-record, never crash), zero-copy read-only mapping,
concurrent multi-process open of one entry, and jobs=1 == jobs=N record
identity through the framework matrix.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.gpu import GlobalMemory, ProfileMetrics, launch_kernel
from repro.gpu.device import SIM_V100
from repro.gpu.intrinsics import atomic_add_global, ld_global
from repro.gpu.trace import reset_trace_cache
from repro.gpu.tracestore import MAGIC, TraceStore, get_trace_store, reset_trace_store
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    old = set_metrics(MetricsRegistry())
    reset_trace_store()
    cache = reset_trace_cache()
    yield cache
    reset_trace_cache()
    reset_trace_store()
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


def _stored_files():
    return sorted(get_trace_store().root.glob("*.trc"))


def test_roundtrip_preserves_all_sections():
    """save -> load returns every array byte-identically, memo included."""
    _launch()
    files = _stored_files()
    assert files
    store = get_trace_store()
    for f in files:
        key = f.name[: -len(".trc")]
        arrays = store.load(key)
        assert arrays is not None
        # The production path stores after the first replay, so the memo
        # sections must have travelled with the trace.
        for name in ("base_counters", "stream_per_trace", "stream", "group_sectors"):
            assert name in arrays, f"missing memo section {name}"
        store2 = TraceStore(store.root)
        store2.save(key + "-copy", dict(arrays))
        again = store2.load(key + "-copy")
        assert sorted(again) == sorted(arrays)
        for name, val in arrays.items():
            if isinstance(val, np.ndarray):
                np.testing.assert_array_equal(val, again[name])
            else:
                assert val == again[name]


def test_loaded_arrays_are_readonly_views():
    """mmap-served arrays are zero-copy and cannot be mutated in place."""
    _launch()
    store = get_trace_store()
    key = _stored_files()[0].name[: -len(".trc")]
    arrays = store.load(key)
    ops = arrays["ops"]
    assert not ops.flags.writeable
    with pytest.raises(ValueError):
        ops[0] = 0


def test_corrupt_file_dropped_and_regenerated():
    """Flipping payload bytes breaks the digest: miss, drop, re-record."""
    expected, _ = _launch()
    (path,) = _stored_files()
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    cache = reset_trace_cache()  # fresh process: memory cache gone
    get_metrics().reset()  # ... and no counts yet
    _, got = _launch()
    assert got == expected
    assert cache.stats.disk_hits == 0
    assert cache.stats.stores == 1  # re-recorded and re-stored
    # the store healed itself: the entry is valid again
    assert get_trace_store().load(path.name[: -len(".trc")]) is not None


@pytest.mark.parametrize("cut", ["header", "digest", "empty"])
def test_truncated_file_is_a_miss(cut):
    """Torn writes at any length read as corruption, not crashes."""
    _launch()
    (path,) = _stored_files()
    blob = path.read_bytes()
    size = {"header": len(MAGIC) + 4, "digest": len(blob) - 7, "empty": 0}[cut]
    path.write_bytes(blob[:size])
    assert get_trace_store().load(path.name[: -len(".trc")]) is None
    assert not path.exists()  # bad file dropped


def test_bad_magic_is_a_miss():
    _launch()
    (path,) = _stored_files()
    blob = bytearray(path.read_bytes())
    blob[:2] = b"XX"
    path.write_bytes(bytes(blob))
    assert get_trace_store().load(path.name[: -len(".trc")]) is None


def _read_worker(args):
    root, key = args
    store = TraceStore(root)
    arrays = store.load(key)
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
    store = get_trace_store()
    key = _stored_files()[0].name[: -len(".trc")]
    baseline = _read_worker((str(store.root), key))
    assert baseline is not None
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_read_worker, [(str(store.root), key)] * 8))
    assert all(r == baseline for r in results)


def _matrix_records(jobs):
    from repro.framework.compare import run_matrix

    matrix = run_matrix(["Polak", "Hu"], ["As-Caida"], jobs=jobs)
    return matrix.records


def test_jobs_parallel_matches_serial():
    """jobs=1 and jobs=2 produce identical records over a warm store."""
    serial = _matrix_records(jobs=1)
    assert get_trace_store().root.exists()  # serial run populated the store
    parallel = _matrix_records(jobs=2)
    assert parallel == serial
    # the parallel workers served from the shared store: nothing re-stored
    reset_trace_cache()
    again = _matrix_records(jobs=2)
    assert again == serial
