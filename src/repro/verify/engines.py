"""Engine-vs-engine differential: event and vectorised must agree exactly.

The vectorised record/replay engine (:mod:`repro.gpu.engine`) is only
admissible if it is *metric-identical* to the event executor — same
counts, same nvprof counters, same simulated times.  This module enforces
that three ways:

* :func:`engine_mismatches` profiles every registered algorithm over one
  raw edge list under both engines (full grid, no block sampling) and
  diffs the complete metric dictionaries with the golden comparator
  (integers exactly, floats at ``rtol`` relative), and records every
  launch of a kernel with an array emitter both ways, reporting a
  differing trace as ``<algorithm>/trace`` (metric parity cannot see a
  wrong ``loc`` stream or location table, which ``repro profile``
  attributes by);
* :data:`ENGINES` is the oracle that lets the fuzz loop of
  :mod:`repro.verify.differential` run that check over generated graphs,
  delta-debug any mismatch down to a 1-minimal edge list, and persist a
  repro bundle under ``.cache/engine-failures/<seed>/``;
* :func:`fixture_parity` replays the whole golden fixture x algorithm
  matrix under each engine and diffs the snapshots with the golden
  comparator, so the checked-in baselines gate both engines at once.

Run from the shell as ``python -m repro.verify engines``.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import nullcontext

import numpy as np

from ..algorithms.base import all_algorithms
from ..graph.edgelist import as_edge_array, clean_edges
from ..graph.orientation import oriented_csr
from ..gpu.device import SIM_V100, DeviceSpec
from ..gpu.engine import check_emitters, event_oracle
from .differential import Oracle
from .goldens import DEFAULT_RTOL, GoldenDiff, compare_snapshots, record_device

__all__ = [
    "ENGINES",
    "engine_mismatches",
    "engine_oracle",
    "fixture_parity",
]

#: Result fields compared beyond the metric dict.
_RESULT_FIELDS = ("triangles", "device_triangles", "sim_time_s")


def _profile_all(
    edges: np.ndarray, oracle: bool, device: DeviceSpec, names: set[str] | None
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Per-algorithm metric snapshots (on the event oracle if ``oracle``),
    and the emitted-trace differences (``{algorithm: {kernel: fields}}``)
    the vectorised engine found.  ``names`` limits the algorithms run."""
    csr = oriented_csr(clean_edges(as_edge_array(edges)), ordering="degree")
    out: dict[str, dict] = {}
    traces: dict[str, dict] = {}
    with event_oracle() if oracle else nullcontext():
        for cls in all_algorithms():
            alg = cls()
            if names is not None and alg.name not in names:
                continue
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
    restrict: Iterable[str] | None = None,
) -> dict[str, dict]:
    """Metric-level differences between the two engines on one edge list.

    Returns ``{"<algorithm>/<metric>": {"event": x, "vectorized": y}}`` —
    empty means full parity.  Integer entries compare exactly, float
    entries within ``rtol * |event|`` (no absolute floor: a tiny simulated
    time must not hide inside one).  An emitted launch trace that differs
    from generator recording adds
    ``{"<algorithm>/trace": {kernel: [differing fields]}}``.  ``restrict``
    (earlier finding keys) limits the run to the algorithms they name.
    """
    names = None if restrict is None else {key.split("/")[0] for key in restrict}
    event, _ = _profile_all(edges, True, device, names)
    vectorized, traces = _profile_all(edges, False, device, names)
    bad: dict[str, dict] = {f"{alg}/trace": found for alg, found in traces.items()}
    for diff in compare_snapshots(event, vectorized, rtol=rtol, atol=0.0):
        key = "/".join(str(part) for part in diff.path)
        bad[key] = {"event": diff.golden, "vectorized": diff.current}
    return bad


def engine_oracle(*, rtol: float = DEFAULT_RTOL) -> Oracle:
    """The engine-parity fuzz oracle, comparing floats at ``rtol``."""
    return Oracle(
        name="engines",
        check=lambda edges, suspects=None: engine_mismatches(
            edges, rtol=rtol, restrict=suspects
        ),
        artifact_dir="engine-failures",
        # Full-grid simulation of all nine kernels under both engines per case.
        max_edges=150,
        regression_import="from repro.verify.engines import engine_mismatches",
        regression_call="engine_mismatches(EDGES)",
    )


#: Event vs vectorised engine, every algorithm, default tolerance.
ENGINES = engine_oracle()


def fixture_parity(
    device_name: str, *, rtol: float = DEFAULT_RTOL
) -> list[GoldenDiff]:
    """Diff the full fixture x algorithm snapshot between the two engines.

    Both snapshots are recorded fresh (the trace cache still applies inside
    the vectorised engine — writeback correctness is part of parity).
    """
    with event_oracle():
        event = record_device(device_name)
    vectorized = record_device(device_name)
    return compare_snapshots(event, vectorized, rtol=rtol)
