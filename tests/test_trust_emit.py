"""TRUST's array emitters write the traces generator recording would.

:mod:`repro.algorithms.trust_emit` records TRUST's classification kernel
and its hash kernel without generators, in both degree tiers: the warp
tier (a warp per vertex, ``__syncwarp``, the ``("bc", "wmeta")`` exchange)
and the block tier (a 1024-lane block per hub vertex, ``__syncthreads``,
one table shared by the block's warps).  For every launch TRUST makes the
emitted trace must equal the generator-recorded one field by field
(:func:`tests.emit_checks.assert_identical`), spill workspaces included.
"""

import linecache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import trust
from repro.algorithms.trust import TRUST, _classify_thread, _trust_thread
from repro.algorithms.trust_emit import (
    B_PROBE_G,
    BLOCK_SITES,
    HSPILL,
    PROBE_G,
    WARP_SITES,
)
from repro.framework.cluster import run_cluster
from repro.gpu import engine
from repro.gpu.cluster import build_plan
from repro.gpu.device import SIM_V100, get_device
from repro.gpu.trace import OP_SYNC_EVENT
from repro.graph import CSRGraph, oriented_csr
from repro.graph.datasets import load_oriented
from repro.graph.edgelist import clean_edges
from repro.graph.generators import complete_graph
from repro.obs.attribution import package_path, source_path
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.verify.fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, fixture_csr, fixture_names
from tests.emit_checks import algorithm_launches, assert_identical, issued_lines

#: one resident warp and one SM: every sub-group of a tier shares spill slots
TINY_POOL = SIM_V100.with_overrides(sm_count=1, max_resident_warps_per_sm=1)


def check(csr, device=SIM_V100, max_blocks=None, **config) -> dict:
    """Every TRUST launch for ``csr`` agrees both ways; the traces by kernel
    and tier (``classify``, ``warp``, ``block``)."""
    traces = {}
    for program, launch in algorithm_launches(trust, TRUST, csr, device, max_blocks, **config):
        if program is _classify_thread:
            name = "classify"
        else:
            assert program is _trust_thread
            name = "warp" if launch["args"][1] == 32 else "block"
        traces[name] = assert_identical(device, program, launch)
    return traces


@pytest.mark.parametrize("device_name", GOLDEN_DEVICES)
@pytest.mark.parametrize("fixture", fixture_names())
def test_golden_fixtures(device_name, fixture):
    check(fixture_csr(fixture), get_device(device_name), GOLDEN_BLOCKS)


@pytest.mark.parametrize("dataset", ["As-Caida", "P2p-Gnutella31", "Email-EuAll"])
def test_matrix_replicas(dataset):
    traces = check(load_oriented(dataset), SIM_V100, 16)
    assert len(traces["warp"].blocks) == 16


@pytest.mark.parametrize("partitioner", ["edge1d", "hash2d"])
@pytest.mark.parametrize("devices", [2, 4, 8])
def test_wiki_talk_partitions(partitioner, devices):
    plan = build_plan(load_oriented("Wiki-Talk"), devices, partitioner=partitioner)
    for part in plan.partitions:
        check(part.csr, SIM_V100, 16)


@pytest.mark.parametrize("fixture", ["powerlaw-120", "rmat-128", "star-cliques"])
def test_unsampled_grids(fixture):
    traces = check(fixture_csr(fixture), SIM_V100, None)
    assert len(traces["warp"].blocks) == traces["warp"].grid_dim > 1


def test_empty_graph():
    traces = check(oriented_csr(np.empty((0, 2), dtype=np.int64)))
    assert list(traces) == ["classify"]


def test_vertices_below_the_warp_tier():
    """Leaves and path vertices (out-degree 0 or 1) classify as tier 0 next
    to a triangle's apex; only the apex enters the warp tier."""
    edges = np.array([[0, v] for v in range(1, 20)] + [[1, 2], [2, 3], [1, 3], [20, 21], [21, 22]])
    csr = oriented_csr(edges)
    traces = check(csr, SIM_V100, None)
    klass = traces["classify"].writeback
    assert set(klass[:, 2].tolist()) == {0, 1}
    assert np.count_nonzero(klass[:, 2] == 0) > csr.n // 2


@pytest.mark.parametrize("block_dim", [256, 96, 32])
def test_block_dims(block_dim):
    check(fixture_csr("powerlaw-120"), SIM_V100, None, block_dim=block_dim)


def _shared_slot_spills():
    """Two 12-cliques on ids that are 3 and 7 mod 32: each clique's lowest
    vertices hash 9 or more neighbours into one of 32 buckets, so they
    spill, and their wedges probe the spilled slots."""
    edges = []
    for residue in (3, 7):
        ids = residue + 32 * np.arange(1, 13)
        edges.append(np.sort(ids[complete_graph(12)], axis=1))
    return CSRGraph.from_edges(np.concatenate(edges))


def test_spills_of_sub_groups_that_share_a_slot():
    """With one spill slot per tier, every spilling warp of the launch
    writes the same ``trust_warp_spill`` words; each must read back its
    own, and the pool ends as the last warp left it."""
    traces = check(_shared_slot_spills(), TINY_POOL, None)
    lines = issued_lines(traces["warp"])
    assert {WARP_SITES.lines[HSPILL][1], WARP_SITES.lines[PROBE_G][1]} <= lines
    spill = traces["warp"].writeback
    assert len(set(spill[:, 0].tolist())) == 2  # the spill pool and out


def _hubs(n_hubs=3, spilled=10):
    """``n_hubs`` hub vertices past the warp tier, each with 100 small
    neighbours and then ``spilled`` neighbours in one of 1024 buckets (10
    slots: two spill), with a path through those, so the hubs' probes
    reach the spill."""
    edges = []
    for h in range(n_hubs):
        same = 5 + 1024 * np.arange(1, spilled + 1) + h
        nbrs = np.concatenate([np.arange(10, 110), same])
        edges += [[h, v] for v in nbrs.tolist()]
        edges += [[a, b] for a, b in zip(same[:-1].tolist(), same[1:].tolist())]
    return CSRGraph.from_edges(np.array(edges))


def test_block_tier_spills_of_hubs_that_share_a_slot():
    """Two spill slots for three hubs: hubs 0 and 2 share one.  Only warp
    3 of each block spills, between the barriers, and warp 0 writes first
    after them, so the spill pool leads the writeback."""
    traces = check(_hubs(), TINY_POOL, None)
    block = traces["block"]
    assert block.grid_dim == 3
    assert BLOCK_SITES.lines[B_PROBE_G][1] in issued_lines(block)
    assert block.writeback[0, 0] == 6  # trust_block_spill, argument 6


def test_clique_reaches_the_block_tier():
    """A 102-clique's first vertex has out-degree 101: one block of 32
    warps syncing with ``__syncthreads``.  Every warp emits a barrier row
    at both barriers."""
    traces = check(oriented_csr(complete_graph(102)), SIM_V100, None)
    block = traces["block"]
    rows = block.unique[block.instances[0]]
    assert np.count_nonzero(rows.ops == OP_SYNC_EVENT) == 2 * 32
    assert rows.npay[rows.ops == OP_SYNC_EVENT].tolist() == [0] * 64


def test_block_tier_with_several_build_rounds():
    """64-lane blocks: each lane clears 16 buckets and hashes two or three
    of a hub's 150 neighbours, which fill 15 buckets 10 deep, so both
    warps bump the same fill words in every round between the barriers:
    the slots come out right only if warp 0 runs its rounds first."""
    device = SIM_V100.with_overrides(max_threads_per_block=64)
    nbrs = (np.arange(15)[None, :] + 1024 * np.arange(1, 11)[:, None]).ravel()
    path = np.stack([nbrs[:-1], nbrs[1:]], axis=1)
    edges = np.concatenate([np.stack([np.zeros_like(nbrs), nbrs], axis=1), path])
    traces = check(CSRGraph.from_edges(edges), device, None)
    assert traces["block"].block_dim == 64


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 28))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=90)
    )
    # Spread the ids so that buckets collide as often as they do not.
    stride = draw(st.sampled_from([1, 16, 32]))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) * stride
    return oriented_csr(clean_edges(edges))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    csr=small_graphs(),
    block_dim=st.sampled_from([32, 64, 256]),
    max_blocks=st.sampled_from([None, 1, 2]),
    tiny_pool=st.booleans(),
)
def test_random_graphs(csr, block_dim, max_blocks, tiny_pool):
    check(csr, TINY_POOL if tiny_pool else SIM_V100, max_blocks, block_dim=block_dim)


def test_site_lines_name_the_kernel_yields():
    """Both tiers' sites sit on the kernel's yields; a variable yield is
    the ``yield sync`` line."""
    for sites in (WARP_SITES, BLOCK_SITES):
        for key, declared, (path, line) in zip(sites.keys, sites.declared, sites.lines):
            assert path == package_path(_trust_thread.__code__.co_filename)
            text = "".join(linecache.getline(source_path(path), line).split())
            expected = "yieldsync" if declared == () else f'yield("{key[0]}","{key[1]}",'
            assert expected in text


def _counters(registry):
    return registry.snapshot()["counters"]


def test_a_trust_cell_runs_no_generators(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        with mock.patch.object(engine, "record_generators", side_effect=AssertionError):
            result = TRUST().profile(fixture_csr("powerlaw-120"), device=SIM_V100)
    finally:
        set_metrics(old)
    assert result.device_triangles == result.triangles
    assert _counters(registry)["record_emitted_launches"] == 2


def test_a_cold_trust_cluster_runs_no_generators(monkeypatch):
    """Every partition of a 2-device TRUST cluster run on Wiki-Talk is
    recorded by the emitters."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        record = run_cluster("TRUST", "Wiki-Talk", devices=2, jobs=1)
    finally:
        set_metrics(old)
    assert record.ok
    counters = _counters(registry)
    assert counters.get("record_generator_launches", 0) == 0
    assert counters["record_emitted_launches"] >= 4
