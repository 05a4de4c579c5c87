"""Bisson's array emitter writes the trace generator recording would.

:mod:`repro.algorithms.bisson_emit` records Bisson's bitmap kernel
without generators in all three thread assignments (thread and warp mode:
a warp per vertex; block mode: a block per vertex), with the bitmap in
shared memory (``so``/``s``/``ss``) or in the global pool that sub-groups
reuse modulo ``pool_slots`` (``go``/``g``/``gs``).  For every launch the
emitted trace must equal the generator-recorded one field by field
(:func:`tests.emit_checks.assert_identical`), bitmap pool included.
"""

import linecache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import bisson, bisson_emit
from repro.algorithms.bisson import Bisson, _bisson_thread
from repro.algorithms.bisson_emit import BCLR, BGET, BSET, GLOBAL_SITES, SHARED_SITES
from repro.gpu import engine
from repro.gpu.device import SIM_V100, get_device
from repro.gpu.trace import OP_GLOBAL_ATOMIC, OP_SHARED_ATOMIC, OP_SYNC_EVENT
from repro.graph import CSRGraph, oriented_csr
from repro.graph.datasets import load_oriented
from repro.graph.edgelist import clean_edges
from repro.obs.attribution import package_path, source_path
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.verify.fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, fixture_csr, fixture_names
from tests.emit_checks import algorithm_launches, assert_identical, issued_lines

#: one resident warp and one SM: a one-slot bitmap pool that every
#: sub-group of the launch shares
TINY_POOL = SIM_V100.with_overrides(sm_count=1, max_resident_warps_per_sm=1)


def check(csr, device=SIM_V100, max_blocks=None, **config):
    """Bisson's launch for ``csr`` agrees both ways; the emitted trace."""
    [(program, launch)] = algorithm_launches(bisson, Bisson, csr, device, max_blocks, **config)
    assert program is _bisson_thread
    return assert_identical(device, program, launch)


def ops(trace) -> set[int]:
    return {op for i in set(trace.instances.tolist()) for op in trace.unique[i].ops.tolist()}


def paper_scale(csr, paper_n=10**7) -> CSRGraph:
    """``csr`` posing as a paper-scale dataset whose bitmap never fits in
    shared memory."""
    return CSRGraph(row_ptr=csr.row_ptr, col=csr.col, meta={"paper_n": paper_n})


@pytest.mark.parametrize("device_name", GOLDEN_DEVICES)
@pytest.mark.parametrize("fixture", fixture_names())
def test_golden_fixtures(device_name, fixture):
    check(fixture_csr(fixture), get_device(device_name), GOLDEN_BLOCKS)


@pytest.mark.parametrize("dataset", ["As-Caida", "P2p-Gnutella31", "Email-EuAll"])
def test_matrix_replicas(dataset):
    """The matrix-small cells: warp mode on the global pool."""
    trace = check(load_oriented(dataset), SIM_V100, 16)
    assert len(trace.blocks) == 16
    assert trace.writeback[0, 0] == 7  # bitmap_pool, argument 7, written first


@pytest.mark.parametrize("fixture", ["powerlaw-120", "rmat-128", "star-cliques"])
@pytest.mark.parametrize("mode", ["warp", "block"])
def test_unsampled_grids(fixture, mode):
    trace = check(fixture_csr(fixture), SIM_V100, None, mode=mode)
    assert len(trace.blocks) == trace.grid_dim > 1


def test_empty_graph():
    trace = check(oriented_csr(np.empty((0, 2), dtype=np.int64)))
    assert trace.grid_dim == 1
    assert OP_SYNC_EVENT not in ops(trace)


def test_vertices_without_neighbours_skip_both_barriers():
    """A symmetric CSR is walked as it is: vertices 3-39 have no edges, so
    their warps load their row bounds and go straight to the final add,
    while the triangle's and the pair's warps pass both barriers."""
    edges = np.array([[0, 1], [1, 2], [0, 2], [40, 41]])
    csr = CSRGraph.from_edges(np.concatenate([edges, edges[:, ::-1]]), n=64)
    assert not csr.is_oriented()
    trace = check(csr, SIM_V100, None, mode="warp", block_dim=64)
    syncs = [
        np.count_nonzero(trace.unique[i].ops == OP_SYNC_EVENT) for i in trace.instances.tolist()
    ]
    assert 0 in syncs and max(syncs) > 0


@pytest.mark.parametrize("mode", ["thread", "warp", "block"])
def test_modes(mode):
    trace = check(fixture_csr("powerlaw-120"), SIM_V100, None, mode=mode)
    assert OP_GLOBAL_ATOMIC in ops(trace)


@pytest.mark.parametrize("fixture", ["clique-12", "powerlaw-120", "star-cliques"])
def test_shared_bitmap(fixture):
    """Block mode on a graph without ``paper_n`` meta: the bitmap fits in
    shared memory, so the block's warps OR into one shared bitmap."""
    trace = check(fixture_csr(fixture), SIM_V100, None, mode="block")
    assert OP_SHARED_ATOMIC in ops(trace)
    lines = issued_lines(trace)
    assert {SHARED_SITES.lines[s][1] for s in (BSET, BGET, BCLR)} <= lines
    assert set(trace.writeback[:, 0].tolist()) == {8}  # only out


@pytest.mark.parametrize("mode", ["warp", "block"])
def test_global_pool(mode):
    """A paper-scale bitmap never fits in shared memory: both modes OR
    into, read and clear the global pool, which the launch leaves zero."""
    trace = check(paper_scale(fixture_csr("powerlaw-120")), SIM_V100, None, mode=mode)
    assert OP_GLOBAL_ATOMIC in ops(trace)
    assert {GLOBAL_SITES.lines[s][1] for s in (BSET, BGET, BCLR)} <= issued_lines(trace)
    pool = trace.writeback[trace.writeback[:, 0] == 7]
    assert pool.shape[0] > 0 and not pool[:, 2].any()


@pytest.mark.parametrize("mode", ["warp", "block"])
@pytest.mark.parametrize("max_blocks", [None, 4])
def test_sub_groups_that_share_a_pool_slot(mode, max_blocks):
    """One pool slot: the warps of a block OR into one bitmap and probe
    each other's bits, and every sampled block reuses the slot after the
    one before it cleared it."""
    check(paper_scale(fixture_csr("rmat-128")), TINY_POOL, max_blocks, mode=mode)


@pytest.mark.parametrize("block_dim", [100, 48, 32])
@pytest.mark.parametrize("mode", ["warp", "block"])
def test_odd_block_dims(block_dim, mode):
    """In warp mode a 100-lane block's last four lanes are a partial
    sub-group for the vertex the next block's first warp takes."""
    check(fixture_csr("powerlaw-120"), SIM_V100, None, mode=mode, block_dim=block_dim)
    check(paper_scale(fixture_csr("rmat-128")), TINY_POOL, None, mode=mode, block_dim=block_dim)


@pytest.mark.parametrize("mode", ["warp", "block"])
def test_probe_laid_out_a_warp_at_a_time(monkeypatch, mode):
    """The probe is laid out a few warps at a time; one warp at a time
    writes the same trace."""
    monkeypatch.setattr(bisson_emit, "_PROBE_CHUNK", 1)
    check(paper_scale(fixture_csr("powerlaw-120")), TINY_POOL, None, mode=mode)
    check(load_oriented("As-Caida"), SIM_V100, 4, mode=mode)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 40))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120)
    )
    # Spread the ids so that neighbours fall in one bitmap word as often as not.
    stride = draw(st.sampled_from([1, 7, 32]))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) * stride
    return oriented_csr(clean_edges(edges))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    csr=small_graphs(),
    mode=st.sampled_from(["warp", "block"]),
    block_dim=st.sampled_from([32, 64, 96, 100]),
    max_blocks=st.sampled_from([None, 1, 2]),
    tiny_pool=st.booleans(),
    paper=st.booleans(),
)
def test_random_graphs(csr, mode, block_dim, max_blocks, tiny_pool, paper):
    check(
        paper_scale(csr) if paper else csr, TINY_POOL if tiny_pool else SIM_V100, max_blocks,
        mode=mode, block_dim=block_dim,
    )


def test_site_lines_name_the_kernel_yields():
    """Both bitmap placements' sites sit on the kernel's yields; the three
    variable yields are the ``set_bit``, ``load_word`` and ``clear_word``
    lines."""
    calls = {BSET: "yieldset_bit(", BGET: "yieldload_word(", BCLR: "yieldclear_word("}
    for sites in (SHARED_SITES, GLOBAL_SITES):
        for site, (key, (path, line)) in enumerate(zip(sites.keys, sites.lines)):
            assert path == package_path(_bisson_thread.__code__.co_filename)
            text = "".join(linecache.getline(source_path(path), line).split())
            expected = calls.get(site) or (
                'yield("y",)' if key == ("y",) else f'yield("{key[0]}","{key[1]}",'
            )
            assert expected in text


@pytest.mark.parametrize("mode", ["warp", "block"])
def test_a_cold_bisson_cell_runs_no_generators(monkeypatch, mode):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        with mock.patch.object(engine, "record_generators", side_effect=AssertionError):
            result = Bisson(mode=mode).profile(fixture_csr("powerlaw-120"), device=SIM_V100)
    finally:
        set_metrics(old)
    assert result.device_triangles == result.triangles
    counters = registry.snapshot()["counters"]
    assert counters.get("record_generator_launches", 0) == 0
    assert counters["record_emitted_launches"] == 1
