"""Graph serialisation round trips (the framework's format converters) and
the one on-disk store behind replicas, graph facts and launch traces."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.algorithms.cpu_reference import count_triangles_oriented
from repro.framework.cli import main
from repro.gpu import GlobalMemory, ProfileMetrics, launch_kernel
from repro.gpu.device import SIM_V100
from repro.gpu.intrinsics import atomic_add_global, ld_global
from repro.gpu.trace import TRACE_SCHEMA, reset_trace_cache
from repro.graph import CSRGraph, clean_edges, facts, io
from repro.graph.datasets import get_spec, load_edges, load_oriented, load_undirected
from repro.graph.generators import chung_lu, complete_graph
from repro.graph.io import (
    CACHE_VERSION,
    cache_dir,
    cache_key,
    disk_cache_enabled,
    load_cached_arrays,
    read_binary_edges,
    read_csr,
    read_text_edges,
    store_cached_arrays,
    store_path,
    write_binary_edges,
    write_csr,
    write_text_edges,
)
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.verify.fixtures import fixture_csr


@pytest.fixture
def edges():
    return clean_edges(chung_lu(40, 120, seed=1))


class TestTextFormat:
    def test_round_trip(self, tmp_path, edges):
        p = tmp_path / "g.txt"
        write_text_edges(p, edges)
        assert np.array_equal(read_text_edges(p), edges)

    def test_comments_skipped(self, tmp_path, edges):
        p = tmp_path / "g.txt"
        write_text_edges(p, edges, comment="SNAP-style header\nsecond line")
        assert np.array_equal(read_text_edges(p), edges)

    def test_empty(self, tmp_path):
        p = tmp_path / "e.txt"
        write_text_edges(p, [])
        assert read_text_edges(p).shape == (0, 2)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n42\n")
        with pytest.raises(ValueError, match="line 2"):
            read_text_edges(p)

    def test_non_integer_id_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# header\n0 1\n2 x\n")
        with pytest.raises(ValueError, match="non-integer.*line 3"):
            read_text_edges(p)

    def test_negative_id_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n1 2\n3 -4\n")
        with pytest.raises(ValueError, match="negative.*line 3"):
            read_text_edges(p)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path, edges):
        p = tmp_path / "g.bin"
        write_binary_edges(p, edges)
        assert np.array_equal(read_binary_edges(p), edges)

    def test_rejects_huge_ids(self, tmp_path):
        with pytest.raises(ValueError):
            write_binary_edges(tmp_path / "x.bin", [[0, 2**31]])

    def test_rejects_negative_ids_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            write_binary_edges(tmp_path / "x.bin", [[0, -1]])

    def test_negative_id_on_read_names_byte_offset(self, tmp_path):
        """Flipped sign bits (corruption / int32 overflow) must be located,
        not silently passed through as vertex ids."""
        p = tmp_path / "neg.bin"
        np.array([0, 1, 2, -3], dtype="<i4").tofile(str(p))
        with pytest.raises(ValueError, match="-3 at byte offset 12"):
            read_binary_edges(p)

    def test_rejects_odd_file(self, tmp_path):
        p = tmp_path / "odd.bin"
        np.array([1, 2, 3], dtype="<i4").tofile(str(p))
        with pytest.raises(ValueError):
            read_binary_edges(p)


class TestCSRFormat:
    def test_round_trip(self, tmp_path):
        g = CSRGraph.from_edges(clean_edges(complete_graph(6)))
        p = tmp_path / "g.npz"
        write_csr(p, g)
        back = read_csr(p)
        assert np.array_equal(back.row_ptr, g.row_ptr)
        assert np.array_equal(back.col, g.col)


class TestReplicaDiskCache:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        self.dir = tmp_path

    def test_round_trip(self, edges):
        key = cache_key("edges", "Test-Graph", seed=7)
        store_cached_arrays(key, edges=edges)
        back = load_cached_arrays(key)
        assert np.array_equal(back["edges"], edges)

    def test_multi_array_bundle(self, edges):
        key = cache_key("csr", "Test-Graph", ordering="degree", seed=7)
        store_cached_arrays(key, row_ptr=edges[:, 0], col=edges[:, 1])
        back = load_cached_arrays(key)
        assert set(back) == {"row_ptr", "col"}

    def test_miss_returns_none(self):
        assert load_cached_arrays(cache_key("edges", "never-stored", seed=1)) is None

    def test_version_bump_invalidates(self, edges):
        """Bumping CACHE_VERSION must miss every file written under the old
        version — the invalidation contract of the replica cache."""
        old = cache_key("edges", "Test-Graph", seed=7, version=CACHE_VERSION)
        store_cached_arrays(old, edges=edges)
        bumped = cache_key("edges", "Test-Graph", seed=7, version=CACHE_VERSION + 1)
        assert bumped != old
        assert load_cached_arrays(bumped) is None
        assert load_cached_arrays(old) is not None

    def test_attrs_ride_in_the_header(self, edges):
        key = cache_key("csr", "Attrs", seed=7)
        store_cached_arrays(key, col=edges[:, 1], n=40, names=["a", "b"])
        back = load_cached_arrays(key)
        assert (back["n"], back["names"]) == (40, ["a", "b"])
        assert np.array_equal(back["col"], edges[:, 1])
        facts_only = cache_key("facts", "Attrs", seed=7)
        store_cached_arrays(facts_only, triangles=12)
        assert load_cached_arrays(facts_only) == {"triangles": 12}

    def test_key_distinguishes_all_dimensions(self):
        base = cache_key("csr", "G", ordering="degree", seed=1)
        assert cache_key("csr", "G", ordering="id", seed=1) != base
        assert cache_key("csr", "G", ordering="degree", seed=2) != base
        assert cache_key("csr", "H", ordering="degree", seed=1) != base
        assert cache_key("und", "G", ordering="degree", seed=1) != base

    def test_atomic_store_leaves_no_temp_files(self, edges):
        store_cached_arrays(cache_key("edges", "Atomic", seed=1), edges=edges)
        leftovers = [p for p in self.dir.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_disable_switch(self, monkeypatch, edges):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not disk_cache_enabled()
        key = cache_key("edges", "Disabled", seed=1)
        store_cached_arrays(key, edges=edges)
        assert list(self.dir.iterdir()) == []
        assert load_cached_arrays(key) is None

    def test_cache_dir_env_override(self):
        assert cache_dir() == self.dir


# --------------------------------------------------------------------------
# corruption: every kind of store file, every kind of damage
# --------------------------------------------------------------------------

DS = "As-Caida"


@pytest.fixture
def store_root(tmp_path, monkeypatch):
    """An empty cache root, registry, trace cache and facts layer; the
    replica loaders forget what they memoised from it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for var in ("REPRO_DISK_CACHE", "REPRO_TRACE_CACHE"):
        monkeypatch.delenv(var, raising=False)
    previous = set_metrics(MetricsRegistry())
    loaders = (load_edges, load_oriented, load_undirected)
    for loader in loaders:
        loader.cache_clear()
    reset_trace_cache()
    facts.reset_facts()
    yield tmp_path
    for loader in loaders:
        loader.cache_clear()
    reset_trace_cache()
    facts.reset_facts()
    set_metrics(previous)


def _sum_kernel(ctx, n, data, out):
    i = ctx.tid
    if i >= n:
        return
    v = yield ld_global(data, i, "ld")
    yield atomic_add_global(out, 0, v, "acc")


def _fill_edges():
    load_edges.__wrapped__(DS)
    return cache_key("edges", DS, seed=get_spec(DS).seed)


def _fill_csr():
    load_oriented.__wrapped__(DS)
    return cache_key("csr", DS, ordering="degree", seed=get_spec(DS).seed)


def _fill_facts():
    csr = fixture_csr("powerlaw-120")
    replica = CSRGraph(row_ptr=csr.row_ptr, col=csr.col, meta={"dataset": "powerlaw-120"})
    facts.reset_facts()
    facts.fact(replica, "triangles", count_triangles_oriented, "exact_count_s")
    return facts.facts_key(replica)


def _fill_trace():
    """Launch one small kernel through an empty trace memory layer: a disk
    miss records the launch and stores it."""
    reset_trace_cache()
    before = set((cache_dir() / "traces").glob("*"))
    gm = GlobalMemory(SIM_V100)
    data = gm.alloc("data", np.arange(64, dtype=np.int64))
    out = gm.zeros("out", 1)
    launch_kernel(
        SIM_V100, _sum_kernel, grid_dim=2, block_dim=32, args=(64, data, out),
        metrics=ProfileMetrics(warp_size=SIM_V100.warp_size),
    )
    assert int(out.data[0]) == 64 * 63 // 2
    (path,) = set((cache_dir() / "traces").glob("*")) - before
    return f"traces/{path.stem}"


FILLS = {"edges": _fill_edges, "csr": _fill_csr, "facts": _fill_facts, "trace": _fill_trace}


def _layout(blob: bytes) -> tuple[int, dict, int]:
    """Header length, header and first-section offset of a store file."""
    hdr_len = int.from_bytes(blob[8:16], "little")
    return hdr_len, json.loads(blob[16 : 16 + hdr_len]), -(-(16 + hdr_len) // 64) * 64


def _flip(blob: bytes, at: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :]


def _flip_section_byte(blob: bytes) -> bytes:
    """Flip the first byte of the largest section; a facts file has no
    sections, so the digest trailer stands in for them."""
    _, header, start = _layout(blob)
    sections = header["sections"].values()
    if not sections:
        return _flip(blob, len(blob) - 1)
    offset = max(sections, key=lambda s: np.dtype(s[1]).itemsize * np.prod(s[2]))[0]
    return _flip(blob, start + offset)


DAMAGE = {
    "empty": lambda b: b"",
    "truncated": lambda b: b[: len(b) // 2],
    "bad-magic": lambda b: b"XX" + b[2:],
    "header-byte": lambda b: _flip(b, 16 + _layout(b)[0] // 2),
    "section-byte": _flip_section_byte,
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
@pytest.mark.parametrize("kind", FILLS.keys())
def test_damaged_file_is_a_dropped_miss_and_heals(store_root, kind, damage):
    """Any damage to any kind of store file reads as a miss (never as an
    exception), drops the file, and the next store of the entry heals it
    byte for byte."""
    key = FILLS[kind]()
    path = store_path(key)
    intact = path.read_bytes()
    damaged = path.with_name("damaged")
    damaged.write_bytes(damage(intact))
    os.replace(damaged, path)  # a new inode: earlier maps keep the intact bytes
    assert load_cached_arrays(key) is None
    assert not path.exists()
    load_edges.cache_clear()
    assert FILLS[kind]() == key
    assert path.read_bytes() == intact
    assert load_cached_arrays(key) is not None


# --------------------------------------------------------------------------
# repro cache prune
# --------------------------------------------------------------------------


def test_prune_removes_what_this_code_cannot_read(store_root, monkeypatch, capsys):
    current_digest = io.code_digest
    monkeypatch.setattr(io, "code_digest", lambda: "0" * 16)
    stale = {store_path(_fill_trace()), store_path(_fill_facts())}
    monkeypatch.setattr(io, "code_digest", current_digest)
    trace = [store_path(fill()) for fill in FILLS.values()][-1]
    old_version = cache_key("edges", "Old", seed=1, version=CACHE_VERSION - 1)
    store_cached_arrays(old_version, edges=np.zeros((1, 2)))
    stale.add(store_path(old_version))
    other_schema = trace.with_name(trace.name.replace(f"-v{TRACE_SCHEMA}", f"-v{TRACE_SCHEMA + 1}"))
    shutil.copyfile(trace, other_schema)
    stale.add(other_schema)
    for old_format in ("edges-as-caida-s11-v2.npz", "traces/trace-0-v1.trc", ".csr-x.abc.tmp"):
        (store_root / old_format).write_bytes(b"old")
        stale.add(store_root / old_format)
    # Not cache entries: nothing prunes run directories or the chaos budget.
    (store_root / "runs").mkdir()
    (store_root / "runs" / "telemetry.jsonl").write_text("{}")
    (store_root / "chaos_kill_budget").write_text("1")
    kept = {p: p.read_bytes() for p in store_root.rglob("*") if p.is_file() and p not in stale}
    freed = sum(p.stat().st_size for p in stale)
    assert len(stale) == 7 and len(kept) == 6

    assert main(["cache", "prune"]) == 0
    assert capsys.readouterr().out.strip() == f"pruned 7 files, {freed / 1e6:.1f} MB freed"
    assert not any(p.exists() for p in stale)
    assert {p: p.read_bytes() for p in kept} == kept
    assert main(["cache", "prune"]) == 0
    assert capsys.readouterr().out.strip() == "pruned 0 files, 0.0 MB freed"
