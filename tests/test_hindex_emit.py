"""H-INDEX's array emitter writes the trace generator recording would.

:mod:`repro.algorithms.hindex_emit` records H-INDEX's warp-per-edge hash
kernel without generators: bucket clear, the shared atomic fill, the
split between shared slots and the global spill, and the bucket scan.
For every launch shape H-INDEX can make the emitted trace must equal the
generator-recorded one field by field
(:func:`tests.emit_checks.assert_identical`), spill workspace included.
"""

import linecache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import hindex
from repro.algorithms.hindex import NUM_BUCKETS, SHARED_DEPTH, HIndex, _hindex_thread
from repro.algorithms.hindex_emit import HSPILL, PROBE_G, SITES, W1
from repro.graph import CSRGraph, oriented_csr
from repro.graph.datasets import load_oriented
from repro.graph.edgelist import clean_edges
from repro.graph.generators import complete_graph
from repro.gpu import engine
from repro.gpu.device import SIM_V100, get_device
from repro.gpu.trace import OP_WSYNC
from repro.obs.attribution import package_path, source_path
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.verify.fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, fixture_csr, fixture_names
from tests.emit_checks import algorithm_launches, assert_identical, issued_lines


def check(csr, device=SIM_V100, max_blocks=None, **config):
    """H-INDEX's launch for ``csr`` agrees both ways."""
    [(program, launch)] = algorithm_launches(hindex, HIndex, csr, device, max_blocks, **config)
    assert program is _hindex_thread
    return assert_identical(device, program, launch)


@pytest.mark.parametrize("device_name", GOLDEN_DEVICES)
@pytest.mark.parametrize("fixture", fixture_names())
def test_golden_fixtures(device_name, fixture):
    check(fixture_csr(fixture), get_device(device_name), GOLDEN_BLOCKS)


@pytest.mark.parametrize(
    "dataset,blocks",
    [("As-Caida", 16), ("P2p-Gnutella31", 16), ("Email-EuAll", 16), ("Com-Orkut", 4)],
)
def test_matrix_replicas(dataset, blocks):
    trace = check(load_oriented(dataset), SIM_V100, blocks)
    assert len(trace.blocks) == min(blocks, trace.grid_dim)


@pytest.mark.parametrize("fixture", ["powerlaw-120", "rmat-128", "star-cliques"])
def test_unsampled_grids(fixture):
    trace = check(fixture_csr(fixture), SIM_V100, None, edges_per_warp=1)
    assert len(trace.blocks) == trace.grid_dim > 1


@pytest.mark.parametrize("block_dim", [256, 96, 48, 40])
@pytest.mark.parametrize("max_blocks", [None, 3])
def test_block_dims(block_dim, max_blocks):
    """Odd warp counts (96), and partial warps whose lanes straddle two
    ``tid // 32`` edge slots (48, 40): a partial warp's bucket table lies
    past the block's shared memory, so both recorders must fail alike."""
    check(fixture_csr("powerlaw-120"), SIM_V100, max_blocks, block_dim=block_dim, edges_per_warp=2)


@pytest.mark.parametrize("residue", [0, 5, 31])
@pytest.mark.parametrize("size", [7, 9, 14])
def test_bucket_collisions_spill(residue, size):
    """Every neighbour id is ``residue`` mod 32: one bucket takes every key,
    so keys past the fourth spill to global memory and probes follow."""
    ids = residue + NUM_BUCKETS * np.arange(size)
    # Built directly: orienting would compact the ids.
    csr = CSRGraph.from_edges(np.sort(ids[complete_graph(size)], axis=1))
    trace = check(csr, SIM_V100, None, edges_per_warp=1)
    lines = issued_lines(trace)
    assert SITES.lines[HSPILL][1] in lines and SITES.lines[PROBE_G][1] in lines
    assert size - 2 > SHARED_DEPTH  # the hashed side outgrows the shared slots


def test_edges_whose_hashed_side_is_empty():
    """A star's leaves have no out-neighbours: their edges hash nothing and
    go straight to the next edge, next to edges that do hash."""
    edges = np.array([[0, v] for v in range(1, 40)] + [[1, 2], [2, 3], [1, 3]])
    csr = oriented_csr(edges)
    trace = check(csr, SIM_V100, None, edges_per_warp=1)
    opened = sum(
        int(np.count_nonzero((t.ops == OP_WSYNC) & (t.loc == trace.locations.index(SITES.lines[W1]))))
        for t in (trace.unique[i] for i in trace.instances.tolist())
    )
    assert 0 < opened < csr.m


TINY = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])


@pytest.mark.parametrize("block_dim", [256, 160])
def test_warps_starting_past_the_last_edge(block_dim):
    csr = oriented_csr(TINY)
    trace = check(csr, SIM_V100, None, block_dim=block_dim)
    assert trace.grid_dim == 1 and (block_dim - 1) // 32 >= csr.m


def test_empty_graph():
    trace = check(oriented_csr(np.empty((0, 2), dtype=np.int64)))
    assert trace.writeback.tolist() == [[7, 0, 0]]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 24))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=70)
    )
    # Spread the ids so that buckets collide as often as they do not.
    stride = draw(st.sampled_from([1, 16, NUM_BUCKETS]))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) * stride
    return oriented_csr(clean_edges(edges))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    csr=small_graphs(),
    block_dim=st.sampled_from([32, 64, 96, 256]),
    edges_per_warp=st.sampled_from([1, 2, 8]),
    max_blocks=st.sampled_from([None, 1, 2]),
)
def test_random_graphs(csr, block_dim, edges_per_warp, max_blocks):
    check(csr, SIM_V100, max_blocks, block_dim=block_dim, edges_per_warp=edges_per_warp)


def test_site_lines_name_the_kernel_yields():
    """A multi-line yield reports the line its ``yield`` keyword is on."""
    for (key, (path, line)) in zip(SITES.keys, SITES.lines):
        assert path == package_path(_hindex_thread.__code__.co_filename)
        text = "".join("".join(linecache.getline(source_path(path), line + k).split()) for k in range(3))
        site = '("w",)' if key == ("w",) else f'("{key[0]}","{key[1]}",'
        assert "yield" + site in text


def test_an_hindex_cell_runs_no_generators(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        with mock.patch.object(engine, "record_generators", side_effect=AssertionError):
            result = HIndex().profile(fixture_csr("powerlaw-120"), device=SIM_V100)
    finally:
        set_metrics(old)
    assert result.device_triangles == result.triangles
    assert registry.snapshot()["counters"]["record_emitted_launches"] == 1
