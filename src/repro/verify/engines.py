"""Engine-vs-engine differential: event and vectorised must agree exactly.

The vectorised record/replay engine (:mod:`repro.gpu.engine`) is only
admissible if it is *metric-identical* to the event executor — same
counts, same nvprof counters, same simulated times.  This module enforces
that three ways:

* :func:`engine_mismatches` profiles every registered algorithm over one
  raw edge list under both engines (full grid, no block sampling) and
  diffs the complete metric dictionaries — integer counters exactly,
  derived floats at ``rtol`` (default 1e-6) — and records every launch of
  a kernel with an array emitter both ways, reporting a differing trace
  as ``<algorithm>/trace`` (metric parity cannot see a wrong ``loc``
  stream or location table, which ``repro profile`` attributes by);
* :func:`engine_fuzz_one` / :func:`run_engine_fuzz` drive that check over
  generated graphs (the same strategy pool as the implementation fuzzer),
  delta-debug any mismatch down to a 1-minimal edge list, and persist a
  repro bundle under ``.cache/engine-failures/<seed>/``;
* :func:`fixture_parity` replays the whole golden fixture x algorithm
  matrix under each engine and diffs the snapshots with the golden
  comparator, so the checked-in baselines gate both engines at once.

Run from the shell as ``python -m repro.verify engines``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..algorithms.base import all_algorithms
from ..graph import io
from ..graph.edgelist import as_edge_array, clean_edges
from ..graph.orientation import oriented_csr
from ..gpu.device import SIM_V100, DeviceSpec
from ..gpu.engine import check_emitters, use_engine
from .goldens import DEFAULT_RTOL, GoldenDiff, compare_snapshots, record_device
from .shrink import ddmin
from .strategies import generate_case

__all__ = [
    "ENGINE_FUZZ_EDGE_LIMIT",
    "EngineReport",
    "default_engine_artifact_root",
    "engine_fuzz_one",
    "engine_mismatches",
    "fixture_parity",
    "run_engine_fuzz",
]

#: Full-grid simulation of all nine kernels under both engines per case.
ENGINE_FUZZ_EDGE_LIMIT = 150

#: Result fields compared beyond the metric dict.
_RESULT_FIELDS = ("triangles", "device_triangles", "sim_time_s")


def default_engine_artifact_root() -> Path:
    """``.cache/engine-failures`` (honours ``REPRO_CACHE_DIR``)."""
    return io.cache_dir() / "engine-failures"


def _is_integral(value) -> bool:
    return isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer()
    )


def _values_differ(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is not b
    if _is_integral(a) and _is_integral(b):
        return float(a) != float(b)
    return abs(float(a) - float(b)) > rtol * max(abs(float(a)), abs(float(b)), 1e-300)


def _profile_all(
    edges: np.ndarray, engine: str, device: DeviceSpec
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Per-algorithm metric snapshots, and the emitted-trace differences
    (``{algorithm: {kernel: fields}}``) the vectorised engine found."""
    csr = oriented_csr(clean_edges(as_edge_array(edges)), ordering="degree")
    out: dict[str, dict] = {}
    traces: dict[str, dict] = {}
    with use_engine(engine):
        for cls in all_algorithms():
            alg = cls()
            with check_emitters() as found:
                result = alg.profile(csr, device=device, max_blocks_simulated=None)
            snap = result.metrics.as_dict()
            for fname in _RESULT_FIELDS:
                snap[fname] = getattr(result, fname)
            out[alg.name] = snap
            if found:
                traces[alg.name] = dict(found)
    return out, traces


def engine_mismatches(
    edges,
    *,
    device: DeviceSpec = SIM_V100,
    rtol: float = DEFAULT_RTOL,
) -> dict[str, dict]:
    """Metric-level differences between the two engines on one edge list.

    Returns ``{"<algorithm>/<metric>": {"event": x, "vectorized": y}}`` —
    empty means full parity.  Integer-valued entries (all the raw nvprof
    counters on an unsampled launch) compare exactly; float-valued derived
    metrics and simulated times compare at ``rtol``.  An emitted launch
    trace that differs from generator recording adds
    ``{"<algorithm>/trace": {kernel: [differing fields]}}``.
    """
    event, _ = _profile_all(edges, "event", device)
    vectorized, traces = _profile_all(edges, "vectorized", device)
    bad: dict[str, dict] = {f"{alg}/trace": found for alg, found in traces.items()}
    for alg in sorted(set(event) | set(vectorized)):
        ev = event.get(alg)
        vc = vectorized.get(alg)
        if ev is None or vc is None:  # pragma: no cover - registry is fixed
            bad[f"{alg}/present"] = {"event": ev is not None, "vectorized": vc is not None}
            continue
        for metric in sorted(set(ev) | set(vc)):
            a, b = ev.get(metric), vc.get(metric)
            if _values_differ(a, b, rtol):
                bad[f"{alg}/{metric}"] = {"event": a, "vectorized": b}
    return bad


@dataclass(frozen=True)
class EngineReport:
    """Outcome of one engine-parity fuzz seed."""

    seed: int
    strategy: str
    edges: np.ndarray = field(repr=False)
    mismatches: dict[str, dict]
    shrunk_edges: np.ndarray | None = field(default=None, repr=False)
    shrunk_mismatches: dict[str, dict] | None = None
    artifact_dir: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _regression_source(seed: int, strategy: str, edges: np.ndarray) -> str:
    rows = ", ".join(f"[{int(u)}, {int(v)}]" for u, v in edges)
    return (
        '"""Auto-generated regression: engine-parity mismatch found by\n'
        f"`python -m repro.verify engines` (seed={seed}, strategy={strategy!r}),\n"
        "shrunk to a 1-minimal edge list.  Paste into tests/ to pin the fix.\n"
        '"""\n'
        "\n"
        "import numpy as np\n"
        "\n"
        "from repro.verify.engines import engine_mismatches\n"
        "\n"
        f"EDGES = np.array([{rows}], dtype=np.int64).reshape(-1, 2)\n"
        "\n"
        "\n"
        f"def test_engine_seed_{seed}_regression():\n"
        "    assert not engine_mismatches(EDGES)\n"
    )


def write_engine_artifact(report: EngineReport, root: str | Path | None = None) -> Path:
    """Persist a mismatching seed's repro bundle under ``<root>/<seed>/``."""
    root = Path(root) if root is not None else default_engine_artifact_root()
    out = root / str(report.seed)
    out.mkdir(parents=True, exist_ok=True)
    io.write_text_edges(
        out / "edges.txt", report.edges,
        comment=f"engine fuzz seed={report.seed} strategy={report.strategy}",
    )
    shrunk = report.shrunk_edges if report.shrunk_edges is not None else report.edges
    io.write_text_edges(out / "shrunk.txt", shrunk, comment="1-minimal mismatching edge list")
    (out / "report.json").write_text(
        json.dumps(
            {
                "seed": report.seed,
                "strategy": report.strategy,
                "edges": int(report.edges.shape[0]),
                "shrunk_edges": int(shrunk.shape[0]),
                "mismatches": report.mismatches,
                "shrunk_mismatches": report.shrunk_mismatches,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    (out / "test_regression.py").write_text(
        _regression_source(report.seed, report.strategy, shrunk)
    )
    return out


def engine_fuzz_one(
    seed: int,
    *,
    max_edges: int = ENGINE_FUZZ_EDGE_LIMIT,
    shrink: bool = True,
    artifact_root: str | Path | None = None,
    device: DeviceSpec = SIM_V100,
    rtol: float = DEFAULT_RTOL,
) -> EngineReport:
    """Fuzz one seed: generate, diff the engines, shrink, persist."""
    case = generate_case(seed, max_edges)
    bad = engine_mismatches(case.edges, device=device, rtol=rtol)
    if not bad:
        return EngineReport(seed, case.strategy, case.edges, bad)

    shrunk = None
    if shrink:
        def predicate(candidate: np.ndarray) -> bool:
            try:
                return bool(engine_mismatches(candidate, device=device, rtol=rtol))
            except Exception:
                # A candidate that crashes one engine is also a parity
                # failure worth keeping; the shrinker may converge on it.
                return True

        shrunk = ddmin(case.edges, predicate)
    shrunk_bad = (
        engine_mismatches(shrunk, device=device, rtol=rtol) if shrunk is not None else None
    )
    report = EngineReport(
        seed, case.strategy, case.edges, bad,
        shrunk_edges=shrunk, shrunk_mismatches=shrunk_bad,
    )
    artifact = write_engine_artifact(report, artifact_root)
    return EngineReport(
        seed, case.strategy, case.edges, bad,
        shrunk_edges=shrunk, shrunk_mismatches=shrunk_bad, artifact_dir=artifact,
    )


def run_engine_fuzz(
    seeds: int | Sequence[int],
    *,
    max_edges: int = ENGINE_FUZZ_EDGE_LIMIT,
    shrink: bool = True,
    artifact_root: str | Path | None = None,
    device: DeviceSpec = SIM_V100,
    rtol: float = DEFAULT_RTOL,
    progress=None,
) -> list[EngineReport]:
    """Fuzz a batch of seeds (an int means ``range(seeds)``)."""
    seed_list = range(int(seeds)) if isinstance(seeds, int) else seeds
    reports: list[EngineReport] = []
    for seed in seed_list:
        report = engine_fuzz_one(
            seed,
            max_edges=max_edges,
            shrink=shrink,
            artifact_root=artifact_root,
            device=device,
            rtol=rtol,
        )
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports


def fixture_parity(
    device_name: str, *, rtol: float = DEFAULT_RTOL
) -> list[GoldenDiff]:
    """Diff the full fixture x algorithm snapshot between the two engines.

    Both snapshots are recorded fresh (the trace cache still applies inside
    the vectorised engine — writeback correctness is part of parity).
    """
    with use_engine("event"):
        event = record_device(device_name)
    with use_engine("vectorized"):
        vectorized = record_device(device_name)
    return compare_snapshots(event, vectorized, rtol=rtol)
