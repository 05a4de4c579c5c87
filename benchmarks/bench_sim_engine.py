"""Event vs vectorised engine wall-time on the golden fixture matrix.

The PR-gating number for the record/replay engine: the full golden
fixture x algorithm x device matrix (what ``golden --check`` pays) under
the event executor, then under the vectorised engine three ways — cold
(empty trace cache: record + replay), warm from disk (fresh process,
traces mmap-served from ``.cache/traces/``), and warm from memory
(steady-state developer loop).  Parity is asserted with the golden
comparator before any number is written, so a fast-but-wrong engine can
never post a time.

Each vectorised phase also reports the engine's internal stage split
(trace load/store, record, fused replay, counter aggregation — see
``repro.gpu.engine.stage_times``), so a perf regression in CI is
attributable to a stage without rerunning anything locally.

Results land in ``BENCH_sim.json``; CI's perf-smoke job diffs the cold
and warm-disk vectorised times against the checked-in baseline.

Run with ``pytest benchmarks/bench_sim_engine.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.gpu.engine import event_oracle, reset_stage_times, stage_times
from repro.gpu.trace import get_trace_cache, reset_trace_cache
from repro.verify.fixtures import GOLDEN_DEVICES
from repro.verify.goldens import compare_snapshots, record_device

OUT = Path(__file__).resolve().parent.parent / "BENCH_sim.json"


def _matrix() -> dict:
    return {device: record_device(device) for device in GOLDEN_DEVICES}


def test_sim_engine(benchmark, tmp_path, monkeypatch):
    # Private disk root: the cold run must not see traces from earlier
    # sessions, and the run must not pollute the developer's cache.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)

    timings: dict[str, float] = {}
    stages: dict[str, dict[str, float]] = {}
    snapshots: dict[str, dict] = {}

    def vectorized_phase(name: str) -> dict:
        reset_stage_times()
        t0 = time.perf_counter()
        result = _matrix()
        timings[name] = time.perf_counter() - t0
        stages[name] = {k: round(v, 4) for k, v in stage_times().items()}
        return result

    def run():
        t0 = time.perf_counter()
        with event_oracle():
            snapshots["event"] = _matrix()
        timings["event_s"] = time.perf_counter() - t0

        reset_trace_cache()  # empty memory + (tmp) disk: true cold record
        snapshots["vectorized"] = vectorized_phase("vectorized_cold_s")

        reset_trace_cache()  # fresh process analogue: memory gone, disk warm
        vectorized_phase("vectorized_warm_disk_s")

        vectorized_phase("vectorized_warm_s")  # steady state: memory hits

    benchmark.pedantic(run, rounds=1, iterations=1)

    # Parity gate: both engines produced the same golden snapshot.
    for device in GOLDEN_DEVICES:
        diffs = compare_snapshots(snapshots["event"][device], snapshots["vectorized"][device])
        assert not diffs, f"{device}: engines disagree: {diffs[:3]}"

    stats = get_trace_cache().stats
    assert stats.uncacheable == 0, "golden matrix launches must all be cacheable"
    reset_trace_cache()

    payload = {
        "golden_devices": len(GOLDEN_DEVICES),
        "event_s": round(timings["event_s"], 4),
        "vectorized_cold_s": round(timings["vectorized_cold_s"], 4),
        "vectorized_warm_disk_s": round(timings["vectorized_warm_disk_s"], 4),
        "vectorized_warm_s": round(timings["vectorized_warm_s"], 4),
        "speedup_cold": round(timings["event_s"] / timings["vectorized_cold_s"], 2),
        "speedup_warm_disk": round(timings["event_s"] / timings["vectorized_warm_disk_s"], 2),
        "speedup_warm": round(timings["event_s"] / timings["vectorized_warm_s"], 2),
        "stages": {
            "cold": stages["vectorized_cold_s"],
            "warm_disk": stages["vectorized_warm_disk_s"],
            "warm": stages["vectorized_warm_s"],
        },
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nsim engine timings -> {OUT}")
    for key, value in sorted(payload.items()):
        print(f"  {key}: {value}")
