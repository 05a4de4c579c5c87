"""Cluster replay wall-time: cold vs warm at 1/4/16 simulated devices.

The scale-out layer's whole economy rests on the record/replay engine:
partitioning a traced graph and re-simulating every partition should be
replay-cheap, not record-expensive.  This benchmark times a TRUST cluster
run on As-Caida (hash2d) at 1, 4, and 16 devices twice — cold (empty
trace cache: every partition subgraph records) and warm (second run in
the same process: replay hits) — and derives two PR-gating ratios:

    warm_4dev_s <= 2.5 x 4 x warm_1dev_s     (per-device warm cost)
    cold_4dev_s >= 5 x warm_4dev_s           (replay actually engaged)

The first bounds the *per-device* warm cost: each of the 4 partitions may
cost at most 2.5x a single-device warm replay (partition subgraphs carry
overlapping neighbour rows, so ~3x the single-graph work is intrinsic to
the conservation-exact layering; the raw 4dev/1dev wall ratio is reported
alongside but not gated — on one core it measures serialized per-launch
dispatch, not replay quality).  The second is the trace-reuse smoke test:
when partitioning breaks fingerprint stability, every warm partition
re-records and the cold/warm gap collapses from ~50x to ~1x long before
the first gate moves.  Counts are asserted equal across all device counts
before any number is written.

Results land in ``BENCH_cluster.json``; the CI cluster lane enforces the
ratio gate and uploads the efficiency curve alongside.

Run with ``pytest benchmarks/bench_cluster.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.framework.cluster import run_cluster
from repro.gpu.cluster import build_plan
from repro.gpu.trace import reset_trace_cache
from repro.graph.datasets import load_oriented

OUT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

ALGORITHM = "TRUST"
DATASET = "As-Caida"
DEVICE_COUNTS = (1, 4, 16)
BLOCKS = 8


def _run(devices: int, plan):
    return run_cluster(
        ALGORITHM,
        DATASET,
        devices=devices,
        partitioner="hash2d",
        seed=0,
        max_blocks_simulated=BLOCKS,
        plan=plan,
    )


def test_cluster_replay(benchmark, tmp_path, monkeypatch):
    # Private disk root: cold runs must not see earlier sessions' traces,
    # and the run must not pollute the developer's cache.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)

    timings: dict[str, float] = {}
    counts: dict[str, int] = {}

    csr = load_oriented(DATASET, "degree")

    def run():
        for devices in DEVICE_COUNTS:
            # One plan per device count, shared by cold and warm runs —
            # exactly what run_cluster_matrix does across algorithm cells.
            plan = build_plan(csr, devices, partitioner="hash2d", seed=0)
            reset_trace_cache()
            t0 = time.perf_counter()
            cold = _run(devices, plan)
            t1 = time.perf_counter()
            warm = _run(devices, plan)
            t2 = time.perf_counter()
            assert cold.ok and warm.ok
            assert cold.triangles == warm.triangles
            counts[f"{devices}dev"] = int(cold.triangles)
            timings[f"cold_{devices}dev_s"] = t1 - t0
            timings[f"warm_{devices}dev_s"] = t2 - t1

    benchmark.pedantic(run, rounds=1, iterations=1)

    # Conservation gate: every device count agrees before numbers post.
    assert len(set(counts.values())) == 1, f"counts disagree: {counts}"

    per_device = timings["warm_4dev_s"] / (4 * timings["warm_1dev_s"])
    replay_speedup = timings["cold_4dev_s"] / timings["warm_4dev_s"]
    payload = {
        "algorithm": ALGORITHM,
        "dataset": DATASET,
        "blocks": BLOCKS,
        "triangles": counts["1dev"],
        **{key: round(value, 4) for key, value in timings.items()},
        "warm_4dev_over_1dev": round(timings["warm_4dev_s"] / timings["warm_1dev_s"], 2),
        "warm_4dev_per_device": round(per_device, 2),
        "replay_speedup_4dev": round(replay_speedup, 1),
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\ncluster replay timings -> {OUT}")
    for key, value in sorted(payload.items()):
        print(f"  {key}: {value}")
    assert per_device <= 2.5, (
        f"each warm 4-device partition costs {per_device:.2f}x a single-device "
        "warm replay (gate: 2.5x) — partitioning likely broke trace reuse"
    )
    assert replay_speedup >= 5.0, (
        f"warm 4-device run is only {replay_speedup:.1f}x faster than cold "
        "(gate: 5x) — partition traces are not replaying from cache"
    )
