"""Event vs vectorised engine parity: identical counters, counts, and times.

The vectorised record/replay engine must be indistinguishable from the
event executor on every metric the study reports.  Integer counters are
compared exactly (no tolerance — an unsampled launch's counters are whole
numbers even in float fields); derived float metrics at rtol=1e-6.
"""

import dataclasses
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.gpu import GlobalMemory, ProfileMetrics, kernel, launch_kernel
from repro.gpu.device import SIM_RTX_4090, SIM_V100
from repro.gpu.engine import event_oracle, in_event_oracle
from repro.gpu.intrinsics import (
    alu,
    atomic_add_global,
    atomic_add_shared,
    atomic_or_global,
    atomic_or_shared,
    ld_global,
    ld_shared,
    shuffle_scan,
    st_global,
    st_shared,
    syncthreads,
    syncwarp,
    warp_exchange,
)
from repro.verify.engines import engine_mismatches, fixture_parity
from repro.verify.fixtures import GOLDEN_DEVICES, fixture_csr, fixture_names


# --------------------------------------------------------------------------
# full matrix parity (every algorithm x fixture x device, sampled launches)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("device_name", GOLDEN_DEVICES)
def test_fixture_matrix_parity(device_name):
    """The whole golden fixture x algorithm snapshot matches across engines."""
    assert fixture_parity(device_name) == []


# --------------------------------------------------------------------------
# unsampled parity: exact counters + device triangle counts
# --------------------------------------------------------------------------


def _unsampled_snapshots(fixture, device):
    from repro.algorithms.base import all_algorithms

    csr = fixture_csr(fixture)
    out = {}
    for engine, scope in (("event", event_oracle), ("vectorized", nullcontext)):
        with scope():
            per_alg = {}
            for cls in all_algorithms():
                alg = cls()
                result = alg.profile(csr, device=device, max_blocks_simulated=None)
                snap = result.metrics.as_dict()
                snap["triangles"] = result.triangles
                snap["device_triangles"] = result.device_triangles
                snap["sim_time_s"] = result.sim_time_s
                per_alg[alg.name] = snap
            out[engine] = per_alg
    return out


@pytest.mark.parametrize("fixture", ["wheel-24", "star-cliques"])
def test_unsampled_parity_exact(fixture):
    """Full-grid launches: every metric agrees, counters exactly."""
    snaps = _unsampled_snapshots(fixture, SIM_V100)
    for alg, ev in snaps["event"].items():
        vc = snaps["vectorized"][alg]
        assert set(ev) == set(vc)
        for metric, a in ev.items():
            b = vc[metric]
            if isinstance(a, float) and not float(a).is_integer():
                assert b == pytest.approx(a, rel=1e-6), f"{alg}/{metric}"
            else:
                assert a == b, f"{alg}/{metric}: event={a} vectorized={b}"
        assert vc["device_triangles"] == ev["device_triangles"]


def test_engine_mismatches_empty_on_random_graph():
    rng = np.random.default_rng(7)
    edges = rng.integers(0, 24, size=(90, 2))
    assert engine_mismatches(edges) == {}


# --------------------------------------------------------------------------
# opcode zoo: one kernel exercising the whole event vocabulary
# --------------------------------------------------------------------------


def _zoo_kernel(ctx, n, data, out, flags):
    """Touches every event type, with divergence and cross-lane traffic."""
    i = ctx.tid
    if i >= n:
        return
    v = yield ld_global(data, i, "ld")
    yield st_shared(ctx.tid_in_block, v, "spill")
    yield syncthreads()
    w = yield ld_shared((ctx.tid_in_block * 3 + 1) % max(ctx.block_dim, 1), "gather")
    if i % 2:  # divergent site: odd lanes pay extra ALU + a scattered load
        yield alu(3)
        w += yield ld_global(data, (i * 7) % n, "scatter")
    s = yield shuffle_scan(v, "scan")
    exchanged = yield warp_exchange(v % 5, "ex")
    yield syncwarp()
    yield atomic_add_shared(0, v, "cnt")
    yield atomic_or_shared(1, 1 << (i % 31), "bits")
    yield syncthreads()
    yield st_global(out, i, v + w + s + len(exchanged), "res")
    yield atomic_add_global(out, n, v, "acc")
    yield atomic_or_global(flags, i % 3, 1 << (i % 7), "flag")


def _run_zoo(oracle, device, n=173, block_dim=64, max_blocks=None):
    gm = GlobalMemory(device)
    rng = np.random.default_rng(41)
    data = gm.alloc("data", rng.integers(0, 100, size=n, dtype=np.int64))
    out = gm.zeros("out", n + 1)
    flags = gm.zeros("flags", 3)
    metrics = ProfileMetrics(warp_size=device.warp_size)
    grid = -(-n // block_dim)
    with event_oracle() if oracle else nullcontext():
        launch_kernel(
            device,
            _zoo_kernel,
            grid_dim=grid,
            block_dim=block_dim,
            args=(n, data, out, flags),
            shared_words=block_dim,
            metrics=metrics,
            max_blocks_simulated=max_blocks,
        )
    return metrics.as_dict(), out.data.copy(), flags.data.copy()


def test_zoo_kernel_parity_full_grid():
    m_ev, out_ev, fl_ev = _run_zoo(True, SIM_V100)
    m_vc, out_vc, fl_vc = _run_zoo(False, SIM_V100)
    assert m_ev == m_vc
    np.testing.assert_array_equal(out_ev, out_vc)
    np.testing.assert_array_equal(fl_ev, fl_vc)


def test_zoo_kernel_parity_sampled():
    m_ev, _, _ = _run_zoo(True, SIM_RTX_4090, n=1031, max_blocks=4)
    m_vc, _, _ = _run_zoo(False, SIM_RTX_4090, n=1031, max_blocks=4)
    assert m_ev == m_vc


def test_zoo_kernel_parity_tiny_caches():
    """Capacities small enough to evict force the exact LRU-walk fallback."""
    tiny = dataclasses.replace(SIM_V100, l1_bytes=4 * 32, l2_bytes=8 * 32)
    m_ev, out_ev, _ = _run_zoo(True, tiny)
    m_vc, out_vc, _ = _run_zoo(False, tiny)
    assert m_ev == m_vc
    assert m_vc["dram_sectors"] > 0
    np.testing.assert_array_equal(out_ev, out_vc)


def test_zoo_kernel_parity_no_caches():
    bare = dataclasses.replace(SIM_V100, l1_bytes=0, l2_bytes=0)
    m_ev, _, _ = _run_zoo(True, bare)
    m_vc, _, _ = _run_zoo(False, bare)
    assert m_ev == m_vc
    assert m_vc["l1_hit_sectors"] == 0


# --------------------------------------------------------------------------
# the oracle scope
# --------------------------------------------------------------------------


def test_event_oracle_routes_launches_to_event_engine():
    """Launches take record/replay unless an oracle scope is open; scopes
    nest and close on error."""
    assert not in_event_oracle()
    with mock.patch.object(kernel, "_run_event", wraps=kernel._run_event) as spy:
        _run_zoo(False, SIM_V100, n=40)
        assert spy.call_count == 0
        with event_oracle():
            with event_oracle():
                _run_zoo(False, SIM_V100, n=40)
            assert in_event_oracle()
        assert spy.call_count == 1
        with pytest.raises(RuntimeError), event_oracle():
            raise RuntimeError
    assert not in_event_oracle()


def test_fixture_names_stable():
    """The parity matrix above really covers the full fixture set."""
    assert len(fixture_names()) >= 6
