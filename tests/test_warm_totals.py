"""Warm launches served from the replay totals stored in the trace file.

A trace is stored after its first replay, so its file header carries the
launch's counter totals for that device cache geometry.  A later process
replaying on the same geometry reads them instead of decoding the block
sections and re-running the replay reductions.  These tests pin that the
shortcut is taken, that it changes no result, and that every path around
it (a new geometry, line attribution, files without the header field,
forged totals, parallel workers) still decodes on demand and stays exact.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.algorithms.base import all_algorithms, get_algorithm
from repro.gpu.device import SIM_RTX_4090, SIM_V100
from repro.gpu.engine import event_oracle, stage_times
from repro.gpu.metrics import SECTOR_BYTES
from repro.gpu.trace import REPLAY_FIELDS, get_trace_cache, reset_trace_cache
from repro.gpu.tracestore import get_trace_store, reset_trace_store
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.statsview import render_stats
from repro.verify.fixtures import fixture_csr

ALGORITHMS = [cls.name for cls in all_algorithms()]
FIXTURE = "powerlaw-120"
BLOCKS = 4


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    """Private cache root, fresh trace cache and an enabled registry."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in ("REPRO_TRACE_CACHE", "REPRO_DISK_CACHE"):
        monkeypatch.delenv(var, raising=False)
    reset_trace_store()
    reset_trace_cache()
    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)
    reset_trace_cache()
    reset_trace_store()


def _profile(name, device=SIM_V100):
    result = get_algorithm(name).profile(
        fixture_csr(FIXTURE), device=device, max_blocks_simulated=BLOCKS
    )
    return result.triangles, result.metrics.as_dict()


def _cold_matrix(device=SIM_V100):
    """Record every algorithm once into the store; the cold results."""
    return {name: _profile(name, device) for name in ALGORITHMS}


def _rewrite_stored(edit):
    """Apply ``edit`` to every stored bundle and save it back (valid digest)."""
    store = get_trace_store()
    files = sorted(store.root.glob("trace-*.trc"))
    assert files
    for path in files:
        key = path.name[: -len(".trc")]
        arrays = dict(store.load(key))
        edit(arrays)
        store.save(key, arrays)
    return files


_WARM_SCRIPT = """
import json, sys
from repro.algorithms.base import get_algorithm
from repro.gpu import engine
from repro.gpu.device import SIM_V100
from repro.gpu.trace import get_trace_cache
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.statsview import render_stats
from repro.verify.fixtures import fixture_csr

def forbidden(*args, **kwargs):
    raise AssertionError("replay reduction ran on a stored-totals hit")

engine._base_reductions_many = forbidden
engine._l1_walk_many = forbidden
registry = MetricsRegistry(enabled=True)
set_metrics(registry)
names, fixture, blocks = json.loads(sys.argv[1])
out = {}
for name in names:
    r = get_algorithm(name).profile(
        fixture_csr(fixture), device=SIM_V100, max_blocks_simulated=blocks
    )
    out[name] = [r.triangles, r.metrics.as_dict()]
cache = get_trace_cache()
json.dump({
    "results": out,
    "decoded": sum(t._unique is not None for t in cache._entries.values()),
    "stats": vars(cache.stats),
    "totals_hits": registry.get("trace_totals_hits"),
    "replay_s": engine.stage_times()["replay_s"],
}, sys.stdout)
"""


def test_fresh_process_warm_hit_runs_no_reduction():
    cold = _cold_matrix()
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_SCRIPT, json.dumps([ALGORITHMS, FIXTURE, BLOCKS])],
        capture_output=True, text=True, check=True,
    )
    warm = json.loads(proc.stdout)
    assert {k: tuple(v) for k, v in warm["results"].items()} == cold
    stats = warm["stats"]
    assert stats["misses"] == stats["stores"] == 0
    assert stats["disk_hits"] > 0
    assert warm["totals_hits"] == stats["disk_hits"] + stats["hits"]
    assert warm["decoded"] == 0  # no block section was ever split
    assert warm["replay_s"] == 0.0


def test_header_carries_totals_for_the_recorded_geometry():
    _profile("Polak")
    store = get_trace_store()
    for path in store.root.glob("trace-*.trc"):
        (entry,) = store.load(path.name[: -len(".trc")])["totals"]
        assert set(entry) == {"l1_cap", "l2_cap", *REPLAY_FIELDS}
        assert (entry["l1_cap"], entry["l2_cap"]) == (
            SIM_V100.l1_bytes // SECTOR_BYTES, SIM_V100.l2_bytes // SECTOR_BYTES,
        )


def test_stats_trace_store_line_counts_totals_hits(isolated):
    _profile("Polak")
    reset_trace_cache()
    _profile("Polak")
    hits = int(isolated.get("trace_totals_hits"))
    assert hits == len(list(get_trace_store().root.glob("trace-*.trc")))
    (line,) = [
        ln for ln in render_stats(isolated.snapshot()).splitlines() if "trace store:" in ln
    ]
    assert f"totals={hits}" in line


def test_new_geometry_decodes_replays_and_matches_event_engine(isolated):
    _cold_matrix(SIM_V100)
    cache = reset_trace_cache()  # fresh process: only the store remains
    before = stage_times()["replay_s"]
    for name in ALGORITHMS:
        warm = _profile(name, SIM_RTX_4090)
        with event_oracle():
            assert warm == _profile(name, SIM_RTX_4090)
    assert cache.stats.disk_hits > 0
    assert cache.stats.stores == 0  # nothing re-recorded
    assert isolated.get("trace_totals_hits") == 0
    assert stage_times()["replay_s"] > before
    # the launches replayed on the new geometry hold both totals now
    assert all(len(t._totals) == 2 for t in cache._entries.values())


def test_profile_on_totals_hit_conserves_line_sums(isolated):
    from repro.obs.session import profile_run

    cold = profile_run("Polak", "As-Caida", max_blocks_simulated=BLOCKS)
    reset_trace_cache()  # fresh process: launches come from the store
    warm = profile_run("Polak", "As-Caida", max_blocks_simulated=BLOCKS)
    assert isolated.get("trace_totals_hits") > 0
    rec, col = warm.record, warm.collector
    assert rec.ok
    assert col.line_total("global_load_requests") == pytest.approx(
        rec.global_load_requests, rel=1e-6
    )
    assert col.line_total("global_load_requests") == pytest.approx(
        col.kernel_total("global_load_requests"), rel=1e-6
    )
    assert col.lines == cold.collector.lines
    assert warm.launches and len(warm.launches) == len(cold.launches)


def test_file_without_totals_field_is_served(isolated):
    cold = _cold_matrix()
    files = _rewrite_stored(lambda arrays: arrays.pop("totals"))
    assert not any(b'"totals"' in path.read_bytes() for path in files)
    cache = reset_trace_cache()
    assert {name: _profile(name) for name in ALGORITHMS} == cold
    assert cache.stats.disk_hits > 0
    assert cache.stats.stores == 0
    assert isolated.get("trace_totals_hits") == 0


def _each_total(change):
    def forge(arrays):
        for entry in arrays["totals"]:
            change(entry)

    return forge


#: edits a forger could make while recomputing the (unkeyed) digest
FORGERIES = {
    "totals-missing-field": _each_total(lambda e: e.pop("dram_sectors")),
    "totals-non-integer": _each_total(lambda e: e.update(warp_steps="7")),
    "totals-unknown-field": _each_total(lambda e: e.update(extra_field=1)),
    "totals-not-a-list": lambda a: a.update(totals={"l1_cap": 1}),
    "short-payload": lambda a: a.update(payload=a["payload"][:-1]),
    "short-base-counters": lambda a: a.update(base_counters=a["base_counters"][:-1]),
    "instance-out-of-range": lambda a: a.update(
        instances=a["instances"] + len(a["groups_per_trace"])
    ),
}


@pytest.mark.parametrize("forge", FORGERIES.values(), ids=FORGERIES.keys())
def test_forged_entries_drop_and_rerecord(forge, isolated):
    """Malformed totals or inconsistent sections read as a miss when the
    file is opened, not as a failure when the blocks are decoded later."""
    cold = _profile("Polak")
    files = _rewrite_stored(forge)
    cache = reset_trace_cache()
    assert _profile("Polak") == cold
    assert cache.stats.disk_hits == 0
    assert cache.stats.stores == len(files)
    # the re-recorded entries carry well-formed totals again
    reset_trace_cache()
    assert _profile("Polak") == cold
    assert isolated.get("trace_totals_hits") == len(files)


def test_jobs_parallel_matches_serial_on_warm_store():
    from repro.framework.compare import run_matrix

    algorithms, datasets = ["TRUST", "GroupTC"], ["As-Caida"]
    serial = run_matrix(algorithms, datasets, jobs=1).records
    reset_trace_cache()
    assert run_matrix(algorithms, datasets, jobs=2).records == serial
    reset_trace_cache()
    assert run_matrix(algorithms, datasets, jobs=1).records == serial
    assert get_trace_cache().stats.stores == 0
