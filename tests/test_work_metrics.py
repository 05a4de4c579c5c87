"""Work-efficiency metrics: exactness, invariance, and report integration.

Every model in :mod:`repro.analysis.work` is cross-checked against a naive
per-edge reference replay of the kernel's comparison loop on all golden
fixtures, and the metric is asserted to be invariant across engines and
replay batching (it is a pure function of the graph).
"""

import numpy as np
import pytest

from repro.algorithms.base import algorithm_names
from repro.analysis.work import (
    WORK_MODELS,
    comparisons_performed,
    lower_bound_comparisons,
    work_efficiency,
)
from repro.verify.fixtures import fixture_csr, fixture_names

ALGORITHMS = ("Polak", "Green", "TriCore", "Fox", "GroupTC", "Hu", "H-INDEX", "TRUST", "Bisson")


# --- naive references: direct per-edge replays of each kernel's loop -------


def _bisect_probes_ref(table, key):
    lo, hi, probes = 0, len(table), 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        val = int(table[mid])
        if val == key:
            break
        if val < key:
            lo = mid + 1
        else:
            hi = mid
    return probes


def _merge_iters_ref(a, b):
    i = j = iters = 0
    while i < len(a) and j < len(b):
        iters += 1
        if int(a[i]) < int(b[j]):
            i += 1
        elif int(b[j]) < int(a[i]):
            j += 1
        else:
            i += 1
            j += 1
    return iters


def _hash_probes_ref(row, key, buckets):
    same = [int(x) for x in row if int(x) % buckets == key % buckets]
    if key in same:
        return same.index(key) + 1
    return len(same)


def _ref_polak(csr):
    esrc = csr.edge_sources()
    return sum(
        _merge_iters_ref(csr.neighbors(int(esrc[e])), csr.neighbors(int(csr.col[e])))
        for e in range(csr.m)
    )


def _ref_green(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        a = csr.neighbors(int(esrc[e]))
        b = csr.neighbors(int(csr.col[e]))
        la, lb = len(a), len(b)
        if not (la and lb):
            continue
        for lane in range(32):
            dlo = ((la + lb) * lane) // 32
            dhi = ((la + lb) * (lane + 1)) // 32
            lo, hi = max(0, dlo - lb), min(dlo, la)
            while lo < hi:
                mid = (lo + hi) // 2
                total += 1
                if int(a[mid]) <= int(b[dlo - 1 - mid]):
                    lo = mid + 1
                else:
                    hi = mid
            i, j, budget = lo, dlo - lo, dhi - dlo
            while budget > 0 and i < la and j < lb:
                av, bv = int(a[i]), int(b[j])
                total += 1
                if av < bv:
                    i, budget = i + 1, budget - 1
                elif bv < av:
                    j, budget = j + 1, budget - 1
                else:
                    i, j, budget = i + 1, j + 1, budget - 2
    return total


def _ref_edge_bisect(csr, queries_from_u):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        a = csr.neighbors(int(esrc[e]))
        b = csr.neighbors(int(csr.col[e]))
        if not (len(a) and len(b)):
            continue
        if queries_from_u:
            q, t = (a, b) if len(a) <= len(b) else (b, a)
        else:
            q, t = (b, a) if len(a) >= len(b) else (a, b)
        total += sum(_bisect_probes_ref(t, int(k)) for k in q)
    return total


def _ref_grouptc(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        u, v = int(esrc[e]), int(csr.col[e])
        u_tail = csr.col[e + 1 : int(csr.row_ptr[u + 1])]
        v_row = csr.neighbors(v)
        if not (len(u_tail) and len(v_row)):
            continue
        if len(v_row) * 32 < len(u_tail):
            q, t = u_tail, v_row
        else:
            q, t = v_row, u_tail
        total += sum(_bisect_probes_ref(t, int(k)) for k in q)
    return total


def _ref_hu(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        a = csr.neighbors(int(esrc[e]))
        total += sum(
            _bisect_probes_ref(a, int(w)) for w in csr.neighbors(int(csr.col[e]))
        )
    return total


def _ref_hindex(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        u, v = int(esrc[e]), int(csr.col[e])
        du, dv = csr.degree(u), csr.degree(v)
        if not (du and dv):
            continue
        h, q = (u, v) if du <= dv else (v, u)
        row = csr.neighbors(h)
        total += sum(_hash_probes_ref(row, int(k), 32) for k in csr.neighbors(q))
    return total


def _ref_trust(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        u = int(esrc[e])
        d = csr.degree(u)
        if d < 2:
            continue
        buckets = 1024 if d > 100 else 32
        row = csr.neighbors(u)
        total += sum(
            _hash_probes_ref(row, int(k), buckets)
            for k in csr.neighbors(int(csr.col[e]))
        )
    return total


def _ref_bisson(csr):
    from repro.algorithms.bisson import Bisson

    full = Bisson._full_adjacency(csr)
    return sum(
        full.degree(int(w)) for u in range(full.n) for w in full.neighbors(u)
    )


_REFERENCES = {
    "Polak": _ref_polak,
    "Green": _ref_green,
    "TriCore": lambda csr: _ref_edge_bisect(csr, False),
    "Fox": lambda csr: _ref_edge_bisect(csr, True),
    "GroupTC": _ref_grouptc,
    "Hu": _ref_hu,
    "H-INDEX": _ref_hindex,
    "TRUST": _ref_trust,
    "Bisson": _ref_bisson,
}


@pytest.mark.parametrize("fixture", fixture_names())
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_model_matches_naive_reference(algorithm, fixture):
    csr = fixture_csr(fixture)
    assert comparisons_performed(csr, algorithm) == _REFERENCES[algorithm](csr)


def test_every_registered_algorithm_has_a_model():
    for name in algorithm_names():
        assert name.lower() in WORK_MODELS


def test_unknown_algorithm_raises():
    with pytest.raises(KeyError, match="no work model"):
        comparisons_performed(fixture_csr("wheel-24"), "nope")


@pytest.mark.parametrize("fixture", fixture_names())
def test_lower_bound_and_ratios(fixture):
    csr = fixture_csr(fixture)
    lb = lower_bound_comparisons(csr)
    deg = csr.degrees
    eu, ev = csr.edge_sources(), csr.col
    assert lb == int(np.minimum(deg[eu], deg[ev]).sum())
    # The merge stops only after fully consuming one list, so Polak can
    # never beat the comparison lower bound; hash/bitmap algorithms can.
    we = work_efficiency(csr, "Polak")
    assert we.lower_bound == lb
    assert we.work_ratio >= 1.0
    for algorithm in ALGORITHMS:
        we = work_efficiency(csr, algorithm)
        assert we.comparisons >= 0
        assert we.work_ratio == we.comparisons / lb


def test_metric_invariant_under_engine_and_batching(tmp_path, monkeypatch):
    """The metric is a pure graph function: engines and replay (which only
    change *how* counters are reduced) cannot move it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.gpu.device import get_device
    from repro.gpu.engine import event_oracle, replay_launch
    from repro.gpu.trace import get_trace_cache, reset_trace_cache
    from repro.verify.fixtures import GOLDEN_DEVICES

    csr = fixture_csr("star-cliques")
    baseline = {a: work_efficiency(csr, a) for a in ALGORITHMS}
    reset_trace_cache()
    with event_oracle():
        assert {a: work_efficiency(csr, a) for a in ALGORITHMS} == baseline
    assert {a: work_efficiency(csr, a) for a in ALGORITHMS} == baseline
    # Populate the cache and replay every launch: still identical.
    from repro.algorithms.base import get_algorithm

    device = get_device(GOLDEN_DEVICES[0])
    get_algorithm("Polak").profile(csr, device=device, max_blocks_simulated=4)
    traces = list(get_trace_cache()._entries.values())
    assert traces
    for trace in traces:
        replay_launch(trace, device)
    assert {a: work_efficiency(csr, a) for a in ALGORITHMS} == baseline
    reset_trace_cache()


def test_run_one_records_work_metrics(tmp_path, monkeypatch):
    """run_one attaches comparisons/work_ratio, identically per engine."""
    from repro.framework.runner import run_one
    from repro.gpu.engine import event_oracle

    with event_oracle():
        event = run_one("Polak", "As-Caida")
    recs = {"event": event, "vectorized": run_one("Polak", "As-Caida")}
    for rec in recs.values():
        assert rec.status == "ok"
        assert rec.comparisons and rec.comparisons > 0
        assert rec.work_ratio and rec.work_ratio >= 1.0
    assert recs["event"].comparisons == recs["vectorized"].comparisons
    assert recs["event"].work_ratio == recs["vectorized"].work_ratio


def test_work_report_renders_all_columns():
    """The report exposes both new columns for a small matrix."""
    from repro.framework.compare import run_matrix
    from repro.framework.report import (
        matrix_to_csv,
        render_figure_series,
        render_work_efficiency,
    )

    matrix = run_matrix(["Polak", "TRUST"], ["As-Caida"])
    table = render_work_efficiency(matrix)
    assert "work efficiency" in table and "LB" in table
    for alg in ("Polak", "TRUST"):
        assert alg in table
    fig = render_figure_series(matrix, "work_ratio")
    assert "lower bound" in fig
    header = matrix_to_csv(matrix).splitlines()[0]
    assert "comparisons" in header and "work_ratio" in header
