"""Telemetry overhead: the observability tax must stay near-free.

Runs the same small comparison matrix three ways — telemetry off
(baseline), telemetry at info with a JSONL sink (the ``--log-level info
--run-id ...`` configuration), and the full profiler (debug telemetry +
source-line attribution + launch capture) — and writes the ratios to
``BENCH_obs.json``.  CI gates on the info-level ratio: instrumented
execution must cost at most 1.15x the uninstrumented run, because every
disabled instrumentation point collapses to one attribute load and an
integer compare, and an info event is a handful of dict builds plus one
JSON line.  The metrics registry always counts, so its cost is inside
every configuration, the baseline included.

The attribution ratio is recorded for context, not gated: frame
inspection per issue step is an opt-in profiling cost, not a tax on
normal runs.

Run with ``pytest benchmarks/bench_obs_overhead.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.framework.compare import run_matrix
from repro.gpu.trace import reset_trace_cache
from repro.obs.attribution import capturing_launches, collecting
from repro.obs.tracer import Tracer, configure, set_tracer

OUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

ALGS = ("Polak", "Bisson", "GroupTC")
DSETS = ("As-Caida", "P2p-Gnutella31")
BLOCKS = 8
#: repeats per measurement; min-of-ROUNDS suppresses scheduler noise
ROUNDS = 5
#: matrix executions per measured sample — the steady-state matrix is a
#: few milliseconds, far too small to gate on a single run
REPEAT = 8


def _matrix() -> None:
    for _ in range(REPEAT):
        run_matrix(ALGS, DSETS, max_blocks_simulated=BLOCKS, jobs=1)


def _once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_obs_overhead(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_LOG", raising=False)

    timings: dict[str, float] = {}

    def profiled():
        with collecting(), capturing_launches():
            _matrix()

    def run():
        # Warm the replica and trace caches once, off the books: all three
        # configurations are then measured in the same steady state, so the
        # only difference between them is the telemetry layer itself.
        reset_trace_cache()
        _matrix()

        # Interleave the configurations round-robin so slow machine drift
        # (thermal throttling, background load) biases neither side of the
        # gated ratio; min-of-ROUNDS then drops the noisy samples.
        off = info = prof = float("inf")
        for _ in range(ROUNDS):
            set_tracer(Tracer())  # telemetry off
            off = min(off, _once(_matrix))
            configure(level="info", jsonl=str(tmp_path / "telemetry.jsonl"), stderr=False)
            info = min(info, _once(_matrix))
            configure(
                level="debug", jsonl=str(tmp_path / "telemetry-debug.jsonl"), stderr=False
            )
            prof = min(prof, _once(profiled))
        timings["off_s"] = off
        timings["info_jsonl_s"] = info
        timings["profiled_s"] = prof

    try:
        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        set_tracer(Tracer())
        monkeypatch.delenv("REPRO_LOG", raising=False)

    ratio_info = timings["info_jsonl_s"] / timings["off_s"]
    ratio_profiled = timings["profiled_s"] / timings["off_s"]
    payload = {
        "algorithms": len(ALGS),
        "datasets": len(DSETS),
        "blocks": BLOCKS,
        "off_s": round(timings["off_s"], 4),
        "info_jsonl_s": round(timings["info_jsonl_s"], 4),
        "profiled_s": round(timings["profiled_s"], 4),
        "overhead_info": round(ratio_info, 3),
        "overhead_profiled": round(ratio_profiled, 3),
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nobs overhead -> {OUT}")
    for key, value in sorted(payload.items()):
        print(f"  {key}: {value}")

    assert ratio_info <= 1.15, (
        f"info-level telemetry costs {ratio_info:.2f}x the uninstrumented run "
        "(budget: 1.15x)"
    )
