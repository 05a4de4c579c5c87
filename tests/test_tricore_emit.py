"""TriCore's array emitters write the traces generator recording would.

:mod:`repro.algorithms.tricore_emit` records both of TriCore's kernels
without generators: the streaming stage, and the counting kernel with its
per-warp heap top in shared memory.  For every launch shape TriCore can
make, each emitted trace must equal the generator-recorded one field by
field (:func:`tests.emit_checks.assert_identical`).
"""

import linecache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import tricore
from repro.algorithms.tricore import TriCore, _stream_thread, _tricore_thread, heap_to_array_index
from repro.algorithms.tricore_emit import PROBE_G, SITES, heap_positions
from repro.graph import oriented_csr
from repro.graph.datasets import load_oriented
from repro.graph.edgelist import clean_edges
from repro.gpu import engine
from repro.gpu.device import SIM_V100, get_device
from repro.obs.attribution import package_path, source_path
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.verify.fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, fixture_csr, fixture_names
from tests.emit_checks import algorithm_launches, assert_identical, issued_lines


def check(csr, device=SIM_V100, max_blocks=None, **config):
    """Both of TriCore's launches for ``csr`` agree both ways."""
    launches = algorithm_launches(tricore, TriCore, csr, device, max_blocks, **config)
    assert [program for program, _ in launches] == [_stream_thread, _tricore_thread]
    return [assert_identical(device, program, launch) for program, launch in launches]


@pytest.mark.parametrize("device_name", GOLDEN_DEVICES)
@pytest.mark.parametrize("fixture", fixture_names())
def test_golden_fixtures(device_name, fixture):
    check(fixture_csr(fixture), get_device(device_name), GOLDEN_BLOCKS)


@pytest.mark.parametrize(
    "dataset,blocks",
    [("As-Caida", 16), ("P2p-Gnutella31", 16), ("Email-EuAll", 16), ("Com-Orkut", 4)],
)
def test_matrix_replicas(dataset, blocks):
    stream, count = check(load_oriented(dataset), SIM_V100, blocks)
    for trace in (stream, count):
        assert len(trace.blocks) == min(blocks, trace.grid_dim)


@pytest.mark.parametrize("fixture", ["powerlaw-120", "rmat-128", "star-cliques"])
def test_unsampled_grids(fixture):
    stream, count = check(fixture_csr(fixture), SIM_V100, None, edges_per_warp=1)
    assert len(count.blocks) == count.grid_dim > 1


@pytest.mark.parametrize("cache_nodes", [None, 0])
@pytest.mark.parametrize("block_dim", [256, 96, 48, 40])
@pytest.mark.parametrize("max_blocks", [None, 3])
def test_block_dims(block_dim, max_blocks, cache_nodes):
    """Odd warp counts (96), and partial warps whose lanes straddle two
    ``tid // 32`` edge slots (48, 40).  A partial warp's heap top lies past
    the block's shared memory, so with a cache both recorders must fail
    alike; without one (``cache_nodes=0``) they must agree."""
    check(
        fixture_csr("powerlaw-120"), SIM_V100, max_blocks,
        block_dim=block_dim, edges_per_warp=2, cache_nodes=cache_nodes,
    )


@pytest.mark.parametrize("cache_nodes", [1, 3, 7])
@pytest.mark.parametrize("fixture", ["powerlaw-120", "rmat-128", "star-cliques"])
def test_small_heap_tops(fixture, cache_nodes):
    """Probes below the cached levels go to global memory (``probeG``)."""
    _, count = check(fixture_csr(fixture), SIM_V100, None, cache_nodes=cache_nodes)
    assert SITES.lines[PROBE_G][1] in issued_lines(count)


def test_staging_skips_empty_heap_nodes():
    """With 7 cached nodes, a 5-long tree has an empty node 5: its lane
    stages nothing for it (``heap_to_array_index`` returns -1)."""
    assert heap_to_array_index(5, 5) == -1
    # Vertex 0's list (1..5) is the tree for every query list of length < 5.
    edges = np.array([[0, v] for v in range(1, 6)] + [[1, 2], [1, 6], [2, 6]])
    check(oriented_csr(edges), SIM_V100, None, cache_nodes=7)


@pytest.mark.parametrize("top", [300, 1100])
def test_heap_positions_match_heap_to_array_index(top):
    """Shallow nodes and nodes deeper than the default cache (h >= 1024)."""
    rng = np.random.default_rng(top)
    h, length = (a.ravel() for a in np.meshgrid(np.arange(1, top), np.arange(0, 300)))
    h = np.concatenate([h[::3], rng.integers(1, top, 20000)])
    length = np.concatenate([length[::3], rng.integers(0, 10**7, 20000)])
    expected = [heap_to_array_index(int(a), int(b)) for a, b in zip(h, length)]
    assert heap_positions(h, length).tolist() == expected


TINY = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])


@pytest.mark.parametrize("block_dim", [256, 160])
def test_warps_starting_past_the_last_edge(block_dim):
    csr = oriented_csr(TINY)
    stream, count = check(csr, SIM_V100, None, block_dim=block_dim)
    assert count.grid_dim == 1 and (block_dim - 1) // 32 >= csr.m


def test_empty_graph():
    csr = oriented_csr(np.empty((0, 2), dtype=np.int64))
    stream, count = check(csr)
    assert stream.writeback.shape == (0, 3)
    assert count.writeback.tolist() == [[6, 0, 0]]


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
    block_dim=st.sampled_from([32, 64, 96, 256]),
    edges_per_warp=st.sampled_from([1, 2, 8]),
    cache_nodes=st.sampled_from([None, 0, 1, 3, 7]),
    max_blocks=st.sampled_from([None, 1, 2]),
)
def test_random_graphs(csr, block_dim, edges_per_warp, cache_nodes, max_blocks):
    check(
        csr, SIM_V100, max_blocks,
        block_dim=block_dim, edges_per_warp=edges_per_warp, cache_nodes=cache_nodes,
    )


def test_site_lines_name_the_kernel_yields():
    for (key, (path, line)) in zip(SITES.keys, SITES.lines):
        assert path == package_path(_tricore_thread.__code__.co_filename)
        text = "".join(linecache.getline(source_path(path), line).split())
        site = '("w",)' if key == ("w",) else f'("{key[0]}","{key[1]}",'
        assert "yield" + site in text


def test_a_tricore_cell_runs_no_generators(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        with mock.patch.object(engine, "record_generators", side_effect=AssertionError):
            result = TriCore().profile(fixture_csr("powerlaw-120"), device=SIM_V100)
    finally:
        set_metrics(old)
    assert result.device_triangles == result.triangles
    counters = registry.snapshot()["counters"]
    assert counters["record_emitted_launches"] == 2
    assert "record_generator_launches" not in counters
