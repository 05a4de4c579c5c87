"""Differential fuzzing: one fuzz loop, and the implementation oracle.

The loop (:func:`fuzz_one`, :func:`run_fuzz`) generates a seeded graph
(:mod:`repro.verify.strategies`), asks an :class:`Oracle` for findings,
delta-debugs the raw edge list of a failing seed down to a 1-minimal graph
that still yields some finding among the original suspects
(:mod:`repro.verify.shrink`), and writes a self-contained repro artifact —
edge lists, a JSON report, and a ready-to-paste pytest regression — under
``.cache/<oracle artifact dir>/<seed>/``.  Two oracles drive it:
:data:`IMPLEMENTATIONS` here (``python -m repro.verify fuzz``) and the
engine-parity oracle of :mod:`repro.verify.engines`
(``python -m repro.verify engines``).

For one raw edge list the implementation oracle computes the triangle
count through every independent path in the system:

* ``matrix`` — ``trace(A^3)/6`` via scipy.sparse (the baseline);
* ``node-iterator`` — the textbook O(sum d^2) reference;
* ``oriented-ref/{degree,id}`` — the vectorised oriented-CSR reference
  under both orientation orderings;
* ``<Algorithm>/{degree,id}`` — each registered algorithm's vectorised
  ``count`` under both orderings;
* ``<Algorithm>/structural`` — the pure-Python kernel-control-flow count
  (small graphs only; quadratic);
* ``<Algorithm>/device`` — the SIMT simulator's own accumulator from a
  full-grid (unsampled) launch (small graphs only).

Any key that differs from the baseline is a *disagreement*, one finding.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..algorithms.base import all_algorithms
from ..algorithms.cpu_reference import (
    count_triangles_matrix,
    count_triangles_node_iterator,
    count_triangles_oriented,
)
from ..graph import io
from ..graph.edgelist import as_edge_array, clean_edges
from ..graph.orientation import oriented_csr
from ..gpu.device import SIM_V100
from .shrink import ddmin
from .strategies import generate_case

__all__ = [
    "BASELINE",
    "CRASH",
    "IMPLEMENTATIONS",
    "FuzzReport",
    "Oracle",
    "count_all",
    "disagreements",
    "fuzz_one",
    "run_fuzz",
    "write_artifact",
]

#: The comparison anchor every other implementation is diffed against.
BASELINE = "matrix"

#: Pure-Python structural counts are quadratic; cap the graphs they run on.
STRUCTURAL_EDGE_LIMIT = 64

#: Full-grid SIMT simulation of all nine kernels; cap likewise.
DEVICE_EDGE_LIMIT = 150

_ORDERINGS = ("degree", "id")


def count_all(
    edges,
    *,
    structural_limit: int = STRUCTURAL_EDGE_LIMIT,
    device_limit: int = DEVICE_EDGE_LIMIT,
    restrict: Iterable[str] | None = None,
) -> dict[str, int]:
    """Triangle count through every implementation path, keyed by name.

    ``restrict`` limits the run to the named keys (the baseline is always
    included) and lifts the size gates — the shrinker uses this so a
    disagreement first seen on a gated path stays checkable on shrunken
    candidates without paying for the 20+ unrelated paths.
    """
    edges = as_edge_array(edges)
    wanted = None if restrict is None else set(restrict) | {BASELINE}

    def active(key: str, *, gated: bool = True) -> bool:
        if wanted is not None:
            return key in wanted
        return gated

    cleaned = clean_edges(edges)
    m = cleaned.shape[0]
    results: dict[str, int] = {BASELINE: count_triangles_matrix(edges)}

    if active("node-iterator"):
        results["node-iterator"] = count_triangles_node_iterator(edges)

    csrs = {ordering: oriented_csr(cleaned, ordering=ordering) for ordering in _ORDERINGS}
    for ordering, csr in csrs.items():
        if active(f"oriented-ref/{ordering}"):
            results[f"oriented-ref/{ordering}"] = count_triangles_oriented(csr)

    for cls in all_algorithms():
        alg = cls()
        for ordering, csr in csrs.items():
            if active(f"{alg.name}/{ordering}"):
                results[f"{alg.name}/{ordering}"] = int(alg.count(csr))
        if active(f"{alg.name}/structural", gated=m <= structural_limit):
            results[f"{alg.name}/structural"] = int(alg.count_structural(csrs["degree"]))
        if active(f"{alg.name}/device", gated=m <= device_limit):
            run = alg.profile(csrs["degree"], device=SIM_V100, max_blocks_simulated=None)
            results[f"{alg.name}/device"] = int(run.device_triangles)
    return results


def disagreements(results: dict[str, int]) -> dict[str, int]:
    """Entries that differ from the baseline count (empty = all agree)."""
    baseline = results[BASELINE]
    return {k: v for k, v in results.items() if v != baseline}


@dataclass(frozen=True)
class Oracle:
    """What a fuzz run checks, and how its artifacts name and replay it."""

    #: The ``python -m repro.verify`` command; names the artifact and test.
    name: str
    #: ``check(edges, suspects)``: the findings on one raw edge list, keyed
    #: by what disagrees (empty = all agree).  ``suspects``, when given,
    #: holds earlier finding keys and may limit the work to them.
    check: Callable[[np.ndarray, set[str] | None], dict]
    #: Default bundle directory under the cache root.
    artifact_dir: str
    #: Default raw edge budget per generated case.
    max_edges: int
    #: Import line and falsy-once-fixed expression over ``EDGES`` that the
    #: generated ``test_regression.py`` needs.
    regression_import: str
    regression_call: str


#: Every implementation path against the ``matrix`` baseline.
IMPLEMENTATIONS = Oracle(
    name="fuzz",
    check=lambda edges, suspects=None: disagreements(count_all(edges, restrict=suspects)),
    artifact_dir="failures",
    max_edges=400,
    regression_import="from repro.verify.differential import count_all, disagreements",
    regression_call="disagreements(count_all(EDGES))",
)


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzzed seed under one oracle."""

    seed: int
    strategy: str
    edges: np.ndarray = field(repr=False)
    findings: dict
    oracle: Oracle = field(default=IMPLEMENTATIONS, repr=False)
    shrunk_edges: np.ndarray | None = field(default=None, repr=False)
    shrunk_findings: dict | None = None
    artifact_dir: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.findings


def _regression_source(report: FuzzReport, edges: np.ndarray) -> str:
    oracle = report.oracle
    rows = ", ".join(f"[{int(u)}, {int(v)}]" for u, v in edges)
    return (
        '"""Auto-generated regression: found by\n'
        f"`python -m repro.verify {oracle.name}` "
        f"(seed={report.seed}, strategy={report.strategy!r}),\n"
        "shrunk to a 1-minimal edge list.  Paste into tests/ to pin the fix.\n"
        '"""\n'
        "\n"
        "import numpy as np\n"
        "\n"
        f"{oracle.regression_import}\n"
        "\n"
        f"EDGES = np.array([{rows}], dtype=np.int64).reshape(-1, 2)\n"
        "\n"
        "\n"
        f"def test_{oracle.name}_seed_{report.seed}_regression():\n"
        f"    assert not {oracle.regression_call}\n"
    )


def write_artifact(report: FuzzReport, root: str | Path | None = None) -> Path:
    """Persist a failing seed's repro bundle under ``<root>/<seed>/``.

    ``root`` defaults to the oracle's directory under the cache root
    (``.cache/failures``, ``.cache/engine-failures``; honours
    ``REPRO_CACHE_DIR``).  Contents: ``edges.txt`` (the raw generated
    input), ``shrunk.txt`` (the minimal failing graph), ``report.json``
    (findings for both), and ``test_regression.py`` (ready-to-paste pytest).
    """
    oracle = report.oracle
    root = Path(root) if root is not None else io.cache_dir() / oracle.artifact_dir
    out = root / str(report.seed)
    out.mkdir(parents=True, exist_ok=True)
    io.write_text_edges(
        out / "edges.txt", report.edges,
        comment=f"{oracle.name} seed={report.seed} strategy={report.strategy}",
    )
    shrunk = report.shrunk_edges if report.shrunk_edges is not None else report.edges
    io.write_text_edges(out / "shrunk.txt", shrunk, comment="1-minimal failing edge list")
    (out / "report.json").write_text(
        json.dumps(
            {
                "oracle": oracle.name,
                "seed": report.seed,
                "strategy": report.strategy,
                "edges": int(report.edges.shape[0]),
                "shrunk_edges": int(shrunk.shape[0]),
                "findings": report.findings,
                "shrunk_findings": report.shrunk_findings,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    (out / "test_regression.py").write_text(_regression_source(report, shrunk))
    return out


#: The finding key of a check that raised.
CRASH = "crash"


def _check(oracle: Oracle, edges: np.ndarray, suspects: set[str] | None) -> dict:
    """``oracle.check``, with an exception recorded as a :data:`CRASH`
    finding that names it and the suspects checked."""
    try:
        return oracle.check(edges, suspects)
    except Exception as exc:
        checked = ", ".join(sorted(suspects)) if suspects else "every path"
        return {CRASH: f"{type(exc).__name__}: {exc} (checking {checked})"}


def fuzz_one(
    seed: int,
    *,
    oracle: Oracle = IMPLEMENTATIONS,
    max_edges: int | None = None,
    shrink: bool = True,
    artifact_root: str | Path | None = None,
) -> FuzzReport:
    """Fuzz one seed end to end: generate, check, shrink, persist.

    ``max_edges`` defaults to the oracle's edge budget.  A check that
    raises is a :data:`CRASH` finding: a candidate that crashes counts as
    failing while shrinking, so the shrunk graph may be a crashing one.
    """
    case = generate_case(seed, oracle.max_edges if max_edges is None else max_edges)
    findings = _check(oracle, case.edges, None)
    report = FuzzReport(seed, case.strategy, case.edges, findings, oracle)
    if report.ok:
        return report
    if shrink:
        # After a crash every path is a suspect.
        suspects = set(findings) - {CRASH} or None
        shrunk = ddmin(case.edges, lambda candidate: bool(_check(oracle, candidate, suspects)))
        report = replace(
            report, shrunk_edges=shrunk, shrunk_findings=_check(oracle, shrunk, suspects)
        )
    return replace(report, artifact_dir=write_artifact(report, artifact_root))


def run_fuzz(
    seeds: int | Sequence[int],
    *,
    oracle: Oracle = IMPLEMENTATIONS,
    max_edges: int | None = None,
    shrink: bool = True,
    artifact_root: str | Path | None = None,
    progress=None,
) -> list[FuzzReport]:
    """Fuzz a batch of seeds (an int means ``range(seeds)``).

    ``progress``, when given, is called with each completed
    :class:`FuzzReport` — the CLI uses it for per-seed output.
    """
    seed_list = range(int(seeds)) if isinstance(seeds, int) else seeds
    reports: list[FuzzReport] = []
    for seed in seed_list:
        report = fuzz_one(
            seed, oracle=oracle, max_edges=max_edges, shrink=shrink,
            artifact_root=artifact_root,
        )
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports
