"""The per-graph facts store (``repro.graph.facts``) and the code digest
that keys it and the trace store.

Covers what the store must never get wrong: a wrong stored count is caught
by validation (the validator does not read the store), a corrupt bundle is
dropped and refilled with the right values, and an edit to the code that
fills either store (a changed code digest) misses both.  Only replicas
(graphs whose ``meta`` names a dataset) are persisted.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.algorithms.base import all_algorithms
from repro.algorithms.bisson import Bisson
from repro.algorithms.cpu_reference import count_triangles_oriented
from repro.analysis.work import comparisons_performed, lower_bound_comparisons, work_efficiency
from repro.framework.compare import run_matrix
from repro.framework.resilience import corrupt_cached_bundle
from repro.framework.runner import run_one
from repro.gpu.trace import reset_trace_cache
from repro.graph import facts, io
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_edges, load_oriented
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.verify.fixtures import fixture_csr

DS = "As-Caida"


@pytest.fixture(autouse=True)
def registry(tmp_path, monkeypatch):
    """An empty cache directory, registry, trace cache and facts layer."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    fresh = MetricsRegistry()
    previous = set_metrics(fresh)
    _fresh_process()
    yield fresh
    _fresh_process()
    set_metrics(previous)


def _fresh_process():
    """Drop every per-process layer in front of the disk stores."""
    facts.reset_facts()
    reset_trace_cache()


def _bundle(csr):
    return io.load_cached_arrays(facts.facts_key(csr))


def _replica(fixture):
    """A golden fixture marked as a replica, so the store persists its facts."""
    csr = fixture_csr(fixture)
    return CSRGraph(row_ptr=csr.row_ptr, col=csr.col, meta={"dataset": fixture})


def test_bundle_holds_every_fact_of_a_cell(tmp_path):
    csr = load_oriented(DS)
    record = run_one("Polak", DS, max_blocks_simulated=1)
    stored = _bundle(csr)
    assert sorted(stored) == ["comparisons_polak", "lower_bound", "triangles"]
    assert int(stored["triangles"]) == record.triangles == count_triangles_oriented(csr)
    assert int(stored["lower_bound"]) == lower_bound_comparisons(csr)
    assert int(stored["comparisons_polak"]) == comparisons_performed(csr, "Polak")
    assert [p.name for p in tmp_path.glob("facts-*")] == [io.store_path(facts.facts_key(csr)).name]


def test_a_fill_keeps_entries_another_process_stored(registry):
    csr = load_oriented(DS)
    assert facts.fact(csr, "triangles", count_triangles_oriented, "exact_count_s") == (
        count_triangles_oriented(csr)
    )
    # Another process adds the bound to the bundle after this one read it.
    io.store_cached_arrays(
        facts.facts_key(csr),
        triangles=count_triangles_oriented(csr),
        lower_bound=lower_bound_comparisons(csr),
    )
    facts.fact(csr, "comparisons_polak", lambda g: comparisons_performed(g, "Polak"), "work_model_s")
    assert sorted(_bundle(csr)) == ["comparisons_polak", "lower_bound", "triangles"]


def _fill(cache_dir, algorithm):
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    facts.reset_facts()
    return work_efficiency(_replica("powerlaw-120"), algorithm).comparisons


def test_racing_fills_store_only_right_values(tmp_path):
    """More workers than cores fill one graph's bundle at once: an entry
    may be lost to a race, but every stored entry is right."""
    csr = _replica("powerlaw-120")
    algorithms = [cls.name for cls in all_algorithms()] * 2
    with ProcessPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(_fill, str(tmp_path), a) for a in algorithms]
        got = [f.result(timeout=120) for f in futures]
    assert got == [comparisons_performed(csr, a) for a in algorithms]
    stored = _bundle(csr)
    assert stored and int(stored["lower_bound"]) == lower_bound_comparisons(csr)
    for name, value in stored.items():
        if name.startswith("comparisons_"):
            assert int(value) == comparisons_performed(csr, name.removeprefix("comparisons_")), name


def test_wrong_stored_count_is_quarantined_by_validation(registry):
    csr = load_oriented(DS)
    want = count_triangles_oriented(csr)
    # A bundle with a valid digest but a wrong count: the store cannot tell.
    io.store_cached_arrays(facts.facts_key(csr), triangles=want + 1)
    assert run_one("Polak", DS, max_blocks_simulated=1).triangles == want + 1
    m = run_matrix(["Polak"], [DS], max_blocks_simulated=1, validate=True)
    (record,) = m.records
    assert record.status == "invalid"
    assert record.extra["reported_triangles"] == want + 1
    assert record.extra["expected_triangles"] == want
    # The store never wrote what it read into the reference's memo.
    assert csr.__dict__.get("_tri_count") in (None, want)


def test_corrupt_drill_drops_and_refills_the_bundle(registry):
    # Load through this test's empty cache, so the replica's bundles exist
    # there: the drill finds the facts bundle through the CSR bundle.
    load_edges.cache_clear()
    load_oriented.cache_clear()
    csr = load_oriented(DS)
    first = run_one("TRUST", DS, max_blocks_simulated=1)
    path = io.store_path(facts.facts_key(csr))
    before = path.read_bytes()
    corrupt_cached_bundle(DS)
    assert path.read_bytes() != before
    _fresh_process()
    misses = registry.get("facts_store_misses")
    again = run_one("TRUST", DS, max_blocks_simulated=1)
    assert (again.triangles, again.comparisons, again.work_ratio) == (
        first.triangles, first.comparisons, first.work_ratio,
    )
    assert registry.get("facts_store_misses") == misses + 3
    stored = _bundle(csr)
    assert int(stored["triangles"]) == count_triangles_oriented(csr)
    assert int(stored["comparisons_trust"]) == comparisons_performed(csr, "TRUST")


def test_changed_code_digest_misses_both_stores(registry, monkeypatch):
    run_one("Polak", DS, max_blocks_simulated=1)
    _fresh_process()
    warm = MetricsRegistry()
    set_metrics(warm)
    run_one("Polak", DS, max_blocks_simulated=1)
    assert warm.get("trace_cache_disk_hits") > 0 and warm.get("trace_cache_misses") == 0
    assert warm.get("facts_store_misses") == 0

    monkeypatch.setattr(io, "code_digest", lambda: "0" * 16)
    _fresh_process()
    edited = MetricsRegistry()
    set_metrics(edited)
    run_one("Polak", DS, max_blocks_simulated=1)
    assert edited.get("trace_cache_disk_hits") == 0 and edited.get("trace_cache_misses") > 0
    assert edited.get("facts_store_hits") == 0 and edited.get("facts_store_misses") == 3
    assert facts.facts_key(load_oriented(DS)).endswith("-" + "0" * 16)


def test_only_replicas_get_a_bundle(registry, tmp_path):
    csr = fixture_csr("powerlaw-120")
    first = work_efficiency(csr, "Polak")
    assert work_efficiency(csr, "Polak") == first
    assert registry.get("facts_store_misses") == 2 and registry.get("facts_store_hits") == 2
    assert list(tmp_path.glob("facts-*")) == []
    # The same topology loaded as a replica is written to disk.
    facts.reset_facts()
    assert work_efficiency(_replica("powerlaw-120"), "Polak") == first
    assert [p.name for p in tmp_path.glob("facts-*")] == [io.store_path(facts.facts_key(csr)).name]


def test_bisson_full_adjacency_is_memoised_by_content():
    csr = load_oriented(DS)
    full = Bisson._full_adjacency(csr)
    assert Bisson._full_adjacency(csr) is full
    assert full.m == 2 * csr.m
    # A different object with the same topology shares the entry.
    twin = type(csr)(row_ptr=csr.row_ptr.copy(), col=csr.col.copy())
    assert Bisson._full_adjacency(twin) is full
