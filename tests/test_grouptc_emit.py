"""GroupTC's array emitter writes the trace generator recording would.

:mod:`repro.algorithms.grouptc_emit` records GroupTC's edge-chunk kernel
without generators: the staged edge bounds, the block scan of
:func:`repro.gpu.coop.group_inclusive_scan` (one warp's shuffle scan for
``chunk <= 32``, the two-level scan above), and the strided search whose
prefix search and table search are unrolled loops.  For every launch the
emitted trace must equal the generator-recorded one field by field
(:func:`tests.emit_checks.assert_identical`).
"""

import linecache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import grouptc
from repro.algorithms.grouptc import FLIP_RATIO, GroupTC, _grouptc_thread
from repro.algorithms.grouptc_emit import FIND, PROBE, SC, SC2, SC_TOT, SC_WS, SITES
from repro.gpu import coop, engine
from repro.gpu.device import SIM_V100, get_device
from repro.gpu.trace import OP_ALU, OP_SYNC_EVENT
from repro.graph import CSRGraph, oriented_csr
from repro.graph.datasets import load_oriented
from repro.graph.edgelist import clean_edges
from repro.obs.attribution import package_path, source_path
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.verify.fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, fixture_csr, fixture_names
from tests.emit_checks import algorithm_launches, assert_identical, issued_lines


def check(csr, device=SIM_V100, max_blocks=None, **config):
    """GroupTC's launch for ``csr`` agrees both ways; the emitted trace."""
    [(program, launch)] = algorithm_launches(grouptc, GroupTC, csr, device, max_blocks, **config)
    assert program is _grouptc_thread
    return assert_identical(device, program, launch)


def lines_of(*sites) -> set[int]:
    return {SITES.lines[s][1] for s in sites}


def stars(hub_nbrs: int, tail: int) -> CSRGraph:
    """Vertex 0 sees 1 and 2..``hub_nbrs``; vertex 1 sees 2..``tail``.
    Stored ``u < v``, so edge (0, 1) has u-side table ``2..hub_nbrs`` and
    v-side list ``2..tail``."""
    edges = [[0, v] for v in range(1, hub_nbrs + 1)] + [[1, v] for v in range(2, tail + 1)]
    return CSRGraph.from_edges(np.array(edges))


@pytest.mark.parametrize("device_name", GOLDEN_DEVICES)
@pytest.mark.parametrize("fixture", fixture_names())
def test_golden_fixtures(device_name, fixture):
    check(fixture_csr(fixture), get_device(device_name), GOLDEN_BLOCKS)


@pytest.mark.parametrize("dataset", ["As-Caida", "P2p-Gnutella31", "Email-EuAll"])
def test_matrix_replicas(dataset):
    trace = check(load_oriented(dataset), SIM_V100, 16)
    assert len(trace.blocks) == trace.grid_dim <= 16


@pytest.mark.parametrize("fixture", ["powerlaw-120", "rmat-128", "star-cliques"])
def test_unsampled_grids(fixture):
    trace = check(fixture_csr(fixture), SIM_V100, None, chunk=32)
    assert len(trace.blocks) == trace.grid_dim > 1


def test_empty_graph():
    """No edges: one block whose lanes only scan zeros and add nothing."""
    trace = check(oriented_csr(np.empty((0, 2), dtype=np.int64)))
    assert lines_of(FIND, PROBE).isdisjoint(issued_lines(trace))


@pytest.mark.parametrize("chunk", [32, 96, 256])
def test_chunk_sizes(chunk):
    """32 lanes scan with one shuffle scan and broadcast the total through
    one word; more scan per warp, then across the warps' partials."""
    trace = check(fixture_csr("rmat-128"), SIM_V100, None, chunk=chunk)
    rows = trace.unique[trace.instances[0]]
    scans = np.count_nonzero((rows.ops == OP_ALU) & (rows.aux == 5))
    barriers = np.count_nonzero(rows.ops == OP_SYNC_EVENT)
    warps = chunk // 32
    if chunk == 32:
        assert scans == 1 and barriers == 2
        assert lines_of(SC, SC_TOT) <= issued_lines(trace)
    else:
        assert scans == warps + 1 and barriers == 3 * warps
        assert lines_of(SC, SC_WS, SC2) <= issued_lines(trace)


@pytest.mark.parametrize("chunk", [100, 48, 33])
def test_chunks_that_are_not_whole_warps(chunk):
    check(fixture_csr("powerlaw-120"), SIM_V100, None, chunk=chunk)


def test_flipped_tables():
    """Edge (0, 1) has a 69-entry u-side table and a 1-entry v-side list:
    the roles flip, and u's tail is searched in v's list."""
    csr = stars(70, 2)
    u_len, v_len = 69, 1
    assert v_len * FLIP_RATIO < u_len
    check(csr, SIM_V100, None, chunk=32)
    check(csr, SIM_V100, None)


def test_rows_whose_last_edge_has_an_empty_table():
    """Every row's last edge has an empty u-side table, so it stages no
    work; in a matching every edge is one, and the chunk never searches."""
    matching = CSRGraph.from_edges(np.array([[2 * i, 2 * i + 1] for i in range(40)]))
    trace = check(matching, SIM_V100, None, chunk=32)
    assert lines_of(FIND, PROBE).isdisjoint(issued_lines(trace))
    trace = check(stars(20, 9), SIM_V100, None, chunk=32)
    assert lines_of(FIND, PROBE) <= issued_lines(trace)


@pytest.mark.parametrize("chunk", [32, 64])
def test_search_offsets_carry_across_queries_of_one_edge(chunk):
    """Edge (0, 1) queries v's 79 neighbours 2..80 in u's table 2..20: a
    lane's second query of the edge (``o + chunk``) resumes the table
    search where its first one stopped."""
    check(stars(20, 80), SIM_V100, None, chunk=chunk)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 40))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150)
    )
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return oriented_csr(clean_edges(edges), ordering=draw(st.sampled_from(["degree", "id"])))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    csr=small_graphs(),
    chunk=st.sampled_from([32, 48, 64, 96, 100, 256]),
    max_blocks=st.sampled_from([None, 1, 2]),
)
def test_random_graphs(csr, chunk, max_blocks):
    check(csr, SIM_V100, max_blocks, chunk=chunk)


def test_site_lines_name_the_kernel_yields():
    """The kernel's sites sit on its yields, and the scan's on the yields
    of ``group_inclusive_scan`` in ``repro/gpu/coop.py``, where the rows
    of a ``yield from`` attribute; a variable yield there is ``yield
    sync``."""
    scan = range(SC, SC + len(SITES.declared[5].keys))
    for site, (key, (path, line)) in enumerate(zip(SITES.keys, SITES.lines)):
        program = coop.group_inclusive_scan if site in scan else _grouptc_thread
        assert path == package_path(program.__code__.co_filename)
        text = "".join(linecache.getline(source_path(path), line).split())
        if key == ("y",):
            expected = "yieldsync" if site in scan else 'yield("y",)'
        else:
            expected = f'yield("{key[0]}","{key[1]}",'
        assert expected in text
    assert {path for path, _ in SITES.lines} == {"repro/algorithms/grouptc.py", "repro/gpu/coop.py"}


def test_a_cold_grouptc_cell_runs_no_generators(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    registry = MetricsRegistry()
    old = set_metrics(registry)
    try:
        with mock.patch.object(engine, "record_generators", side_effect=AssertionError):
            result = GroupTC().profile(fixture_csr("powerlaw-120"), device=SIM_V100)
    finally:
        set_metrics(old)
    assert result.device_triangles == result.triangles
    counters = registry.snapshot()["counters"]
    assert counters.get("record_generator_launches", 0) == 0
    assert counters["record_emitted_launches"] == 1
