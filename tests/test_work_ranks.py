"""Rank-derived work models: the search-depth table, random graphs, chunking,
and the counts' entries in the per-graph facts store.

``tests/test_work_metrics.py`` pins every model to a naive per-edge replay
of its kernel loop on the golden fixtures; here the same references run on
random graphs in both orientations (the id order gives high out-degrees and
TRUST's 1024-bucket tier), and on CSRs whose rows are not in ``u < v``
format, which exercises GroupTC's row-suffix tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import work
from repro.analysis.work import (
    WorkEfficiency,
    comparisons_performed,
    lower_bound_comparisons,
    work_efficiency,
)
from repro.graph import io
from repro.graph.csr import CSRGraph
from repro.graph.facts import facts_key, reset_facts
from repro.graph.generators import chung_lu, star
from repro.graph.orientation import orient_by_degree, oriented_csr
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.statsview import render_stats
from repro.verify.fixtures import fixture_csr

from .test_work_metrics import ALGORITHMS, _REFERENCES, _bisect_probes_ref


def test_depth_rows_match_the_search_loop():
    """Outcome ``2r + 1`` finds element ``r``; outcome ``2r`` misses into
    the gap before it.  Both equal the loop's probe count."""
    for length in range(0, 70):
        table = np.arange(0, 2 * length, 2)
        keys = np.arange(-1, 2 * length)  # gap 0, element 0, gap 1, ...
        expected = [_bisect_probes_ref(table, int(k)) for k in keys]
        assert work._depth_row(length).tolist() == expected
        # A row-suffix table relies on this: a key below the suffix may
        # still match earlier in the row, and is counted as outcome 0 or 1.
        assert expected[0] == expected[min(1, 2 * length)]


def _edges(draw_edges, n):
    edges = np.array(draw_edges, dtype=np.int64).reshape(-1, 2) % n
    return edges[edges[:, 0] != edges[:, 1]]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    raw=st.lists(st.integers(0, 10_000), min_size=2, max_size=400),
    ordering=st.sampled_from(["id", "degree"]),
)
def test_models_match_references_on_random_graphs(n, raw, ordering):
    edges = _edges(raw[: len(raw) // 2 * 2], n)
    csr = oriented_csr(edges, ordering=ordering)
    for algorithm in ALGORITHMS:
        assert comparisons_performed(csr, algorithm) == _REFERENCES[algorithm](csr), algorithm


def test_high_degree_rows_use_the_wide_hash_tier():
    """A hub with more than 100 out-neighbours (id order) is hashed into
    TRUST's 1024-bucket tier; the hub's neighbours also close triangles."""
    edges = np.concatenate([star(160), chung_lu(160, 500, seed=3)])
    csr = oriented_csr(edges, ordering="id")
    assert csr.max_degree > 100
    for algorithm in ALGORITHMS:
        assert comparisons_performed(csr, algorithm) == _REFERENCES[algorithm](csr), algorithm


def test_rows_not_in_u_less_than_v_format():
    """Without relabelling, a row's tail past an edge can hold ids below the
    edge's head, so GroupTC's suffix tables see keys earlier in the row."""
    csr = orient_by_degree(chung_lu(80, 320, seed=5), relabel=False)
    assert not csr.is_oriented()
    for algorithm in ALGORITHMS:
        if algorithm != "Bisson":  # closed form over the symmetric degrees
            assert comparisons_performed(csr, algorithm) == _REFERENCES[algorithm](csr), algorithm


def test_chunking_does_not_change_counts(monkeypatch):
    csr = oriented_csr(chung_lu(300, 2400, seed=9), ordering="degree")
    whole = {a: comparisons_performed(csr, a) for a in ALGORITHMS}
    monkeypatch.setattr(work, "_CHUNK", 37)
    assert {a: comparisons_performed(csr, a) for a in ALGORITHMS} == whole


# --- the per-graph count store ------------------------------------------------


@pytest.fixture
def registry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    reset_facts()
    fresh = MetricsRegistry()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)
    reset_facts()


def _computed(csr, algorithm):
    return WorkEfficiency(algorithm, comparisons_performed(csr, algorithm), lower_bound_comparisons(csr))


def _stored_files(tmp_path):
    return sorted(p.name for p in tmp_path.glob(f"facts-*{io.STORE_SUFFIX}"))


def _replica(fixture):
    """A golden fixture marked as a replica, so the store persists its facts."""
    csr = fixture_csr(fixture)
    return CSRGraph(row_ptr=csr.row_ptr, col=csr.col, meta={"dataset": fixture})


def test_store_computes_once_per_graph_and_model(registry, tmp_path):
    csr = _replica("powerlaw-120")
    first = work_efficiency(csr, "Green")
    assert first == _computed(csr, "Green")
    assert _stored_files(tmp_path) == [f"{facts_key(csr)}{io.STORE_SUFFIX}"]
    assert work_efficiency(csr, "Green") == first
    # The first call filled the count and the bound; the second read both.
    assert registry.get("facts_store_misses") == 2
    assert registry.get("facts_store_hits") == 2
    assert registry.get("work_model_s") > 0
    # Aliases share a model's entry; another graph gets its own bundle.
    assert work_efficiency(csr, "hindex") == _computed(csr, "hindex")
    assert work_efficiency(csr, "H-INDEX") == _computed(csr, "H-INDEX")
    other = _replica("wheel-24")
    assert work_efficiency(other, "Green") == _computed(other, "Green")
    assert len(_stored_files(tmp_path)) == 2
    assert set(io.load_cached_arrays(facts_key(csr))) == {
        "lower_bound", "comparisons_green", "comparisons_hindex",
    }
    assert registry.get("facts_store_misses") == 5
    # A fresh process reads the bundle back: nothing is computed again.
    reset_facts()
    assert work_efficiency(csr, "hindex") == _computed(csr, "hindex")
    assert registry.get("facts_store_misses") == 5
    assert registry.get("facts_store_hits") == 7


@pytest.mark.parametrize("damage", ["garbage", "wrong-shape"])
def test_store_heals_a_bad_entry(registry, tmp_path, damage):
    csr = _replica("star-cliques")
    expected = _computed(csr, "TRUST")
    work_efficiency(csr, "TRUST")
    (path,) = tmp_path.glob(f"facts-*{io.STORE_SUFFIX}")
    if damage == "garbage":
        path.write_bytes(b"not a bundle")
    else:
        io.store_cached_arrays(path.stem, comparisons_trust=np.array([1, 2, 3]), lower_bound=np.array(7))
    # The damage is on disk only: read it back as a fresh process would.
    reset_facts()
    assert work_efficiency(csr, "TRUST") == expected
    assert registry.get("facts_store_misses") == 4
    reset_facts()
    assert work_efficiency(csr, "TRUST") == expected
    assert registry.get("facts_store_hits") == 2


def test_store_respects_disabled_disk_cache(registry, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    csr = _replica("clique-12")
    assert work_efficiency(csr, "Polak") == _computed(csr, "Polak")
    assert work_efficiency(csr, "Polak") == _computed(csr, "Polak")
    assert _stored_files(tmp_path) == []
    # The per-process layer still holds the counts; a new process recounts.
    assert registry.get("facts_store_misses") == 2
    reset_facts()
    assert work_efficiency(csr, "Polak") == _computed(csr, "Polak")
    assert registry.get("facts_store_misses") == 4


def test_store_rejects_unknown_models(registry, tmp_path):
    with pytest.raises(KeyError, match="no work model"):
        work_efficiency(fixture_csr("wheel-24"), "nope")
    assert _stored_files(tmp_path) == []


def test_content_digest_tracks_topology():
    a = oriented_csr(chung_lu(50, 180, seed=7))
    b = oriented_csr(chung_lu(50, 180, seed=7))
    c = oriented_csr(chung_lu(50, 180, seed=8))
    assert a.content_digest() == b.content_digest() != c.content_digest()


def test_run_one_reads_stored_counts(registry):
    from repro.framework.runner import run_one

    first = run_one("TriCore", "As-Caida", max_blocks_simulated=1)
    reset_facts()  # the second run reads the bundle as a fresh process would
    again = run_one("TriCore", "As-Caida", max_blocks_simulated=1)
    assert (first.triangles, first.comparisons, first.work_ratio) == (
        again.triangles, again.comparisons, again.work_ratio,
    )
    # count, bound and comparisons: filled once, then read once each
    assert registry.get("facts_store_misses") == 3
    assert registry.get("facts_store_hits") == 3
    assert registry.get("exact_count_s") > 0
    text = render_stats(registry.snapshot())
    assert "graph facts:" in text and "store 3/6 hits" in text
