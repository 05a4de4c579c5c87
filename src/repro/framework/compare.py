"""Full comparison matrix: algorithms x datasets (the paper's Figures 11-13).

:func:`run_matrix` executes every cell through :func:`~repro.framework.
parallel.run_cells` (in-process at jobs=1, over worker processes
otherwise), or through the resilience layer for supervised runs, and
returns the records in a :class:`ComparisonMatrix` that the report module
and the benchmark harness pivot into the paper's tables and figure series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from ..algorithms.base import algorithm_names
from ..gpu.costmodel import CostModel
from ..gpu.device import SIM_V100, TESLA_V100, DeviceSpec
from ..graph.datasets import dataset_names
from ..obs.tracer import get_tracer
from .parallel import run_cells
from .runner import DEFAULT_MAX_BLOCKS, RunRecord

__all__ = ["ComparisonMatrix", "MAXIMIZE_METRICS", "metric_maximizes", "run_matrix"]

#: Metrics where *higher* is better; ``winners()`` flips its comparison for
#: these (taking the minimum would crown the worst algorithm per dataset).
MAXIMIZE_METRICS = frozenset({
    "warp_execution_efficiency",
    "l1_hit_rate",
    "l2_hit_rate",
})


def metric_maximizes(metric: str) -> bool:
    """Default optimisation direction of a metric name."""
    return metric in MAXIMIZE_METRICS or metric.endswith(("efficiency", "hit_rate"))


@dataclass(frozen=True)
class ComparisonMatrix:
    """All records of one comparison run, with pivot helpers."""

    records: tuple[RunRecord, ...]
    algorithms: tuple[str, ...]
    datasets: tuple[str, ...]
    #: O(1) cell lookup, built once; without it ``series()``/``winners()``
    #: degrade to O((algs * datasets)^2) linear scans.
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {(r.algorithm, r.dataset): r for r in self.records}
        object.__setattr__(self, "_index", index)

    def cell(self, algorithm: str, dataset: str) -> RunRecord:
        try:
            return self._index[(algorithm, dataset)]
        except KeyError:
            raise KeyError(f"no record for ({algorithm}, {dataset})") from None

    def series(self, metric: str) -> dict[str, list[float | None]]:
        """Pivot one metric into {algorithm: [value per dataset in order]}.

        Failed cells yield ``None`` — the red crosses of the figures.
        """
        out: dict[str, list[float | None]] = {}
        for alg in self.algorithms:
            row: list[float | None] = []
            for ds in self.datasets:
                rec = self.cell(alg, ds)
                row.append(getattr(rec, metric) if rec.ok else None)
            out[alg] = row
        return out

    def winners(self, metric: str = "sim_time_s", *, maximize: bool | None = None) -> dict[str, str]:
        """Per-dataset winner among successful runs.

        ``maximize`` defaults to the metric's natural direction: lowest
        wins for times/transactions, highest wins for efficiency and
        hit-rate metrics (see :data:`MAXIMIZE_METRICS`).
        """
        if maximize is None:
            maximize = metric_maximizes(metric)
        out: dict[str, str] = {}
        for ds in self.datasets:
            best: tuple[str, float] | None = None
            for alg in self.algorithms:
                rec = self.cell(alg, ds)
                if not rec.ok:
                    continue
                val = getattr(rec, metric)
                if val is None:
                    continue
                if best is None or (val > best[1] if maximize else val < best[1]):
                    best = (alg, val)
            if best:
                out[ds] = best[0]
        return out

    def failures(self) -> list[RunRecord]:
        """The red-cross cells: crashes, OOM, and exhausted timeouts."""
        return [r for r in self.records if r.status == "failed"]

    def degraded(self) -> list[RunRecord]:
        """Cells that completed only at a timeout-reduced block budget."""
        return [r for r in self.records if r.status == "degraded"]

    def quarantined(self) -> list[RunRecord]:
        """Cells quarantined by the cpu_reference cross-check."""
        return [r for r in self.records if r.status == "invalid"]


def run_matrix(
    algorithms: Sequence[str] | None = None,
    datasets: Sequence[str] | None = None,
    *,
    device: DeviceSpec = SIM_V100,
    capacity_device: DeviceSpec = TESLA_V100,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    cost_model: CostModel | None = None,
    jobs: int = 1,
    progress: bool = False,
    progress_callback: Callable[[RunRecord, int, int], None] | None = None,
    run_id: str | None = None,
    resume: str | None = None,
    cell_timeout: float | None = None,
    retry_policy=None,
    validate: bool = False,
) -> ComparisonMatrix:
    """Run the (algorithms x datasets) comparison.

    Defaults reproduce the paper's configuration: all nine implementations
    over all nineteen Table II replicas on the scaled V100, with paper-scale
    capacity checks against the real V100.

    ``jobs`` selects the worker count: ``1`` (default) runs the cells
    in-process; ``0`` fans out over one worker process per CPU core; any
    other value uses that many workers.  Record content and order are
    identical either way, under injected faults too — parallel execution
    is an implementation detail of the same matrix.
    ``progress_callback(record, done, total)`` fires as each cell completes.

    Any of ``run_id`` / ``resume`` / ``cell_timeout`` / ``retry_policy`` /
    ``validate`` routes execution through the resilience layer
    (:mod:`repro.framework.resilience`): ``run_id`` journals every
    completed cell under ``.cache/runs/<run_id>/``; ``resume`` replays an
    interrupted run, skipping its completed cells; ``cell_timeout`` (or a
    full ``retry_policy``) kills over-budget cells and retries them at a
    degraded block budget; ``validate`` cross-checks small/medium cells
    against the exact CPU reference and quarantines mismatches as
    ``status="invalid"``.
    """
    algs = tuple(algorithms) if algorithms else tuple(algorithm_names())
    dsets = tuple(datasets) if datasets else tuple(dataset_names())
    cells = [(alg, ds) for ds in dsets for alg in algs]
    get_tracer().info(
        "matrix",
        algorithms=len(algs),
        datasets=len(dsets),
        cells=len(cells),
        jobs=jobs,
    )

    callbacks: list[Callable[[RunRecord, int, int], None]] = []
    if progress_callback is not None:
        callbacks.append(progress_callback)
    if progress:  # pragma: no cover - console side effect
        def _print_progress(rec: RunRecord, done: int, total: int) -> None:
            status = f"{rec.sim_time_s * 1e3:9.3f} ms" if rec.ok else f"   {rec.status.upper()}"
            print(f"  [{done}/{total}] {rec.dataset:18s} {rec.algorithm:8s} {status}", flush=True)

        callbacks.append(_print_progress)

    tracer = get_tracer()

    def _notify(rec: RunRecord, done: int, total: int) -> None:
        tracer.info(
            "cell_complete",
            algorithm=rec.algorithm,
            dataset=rec.dataset,
            status=rec.status,
            done=done,
            total=total,
        )
        for cb in callbacks:
            cb(rec, done, total)

    resilient = (
        run_id is not None
        or resume is not None
        or cell_timeout is not None
        or retry_policy is not None
        or validate
    )
    if resilient:
        from .resilience import RetryPolicy, RunJournal, run_cells_resilient

        if run_id is not None and resume is not None and run_id != resume:
            raise ValueError(
                f"pass either run_id or resume, not two different ids "
                f"({run_id!r} vs {resume!r})"
            )
        rid = resume if resume is not None else run_id
        journal = RunJournal(rid) if rid else None
        completed = {}
        if journal is not None:
            journal.check_or_write_meta({
                "algorithms": list(algs),
                "datasets": list(dsets),
                "ordering": ordering,
                "max_blocks_simulated": max_blocks_simulated,
                "device": device.name,
                "capacity_device": capacity_device.name,
                "validate": validate,
            })
            if resume is not None:
                completed = journal.completed()
        policy = retry_policy
        if policy is None and cell_timeout is not None:
            policy = RetryPolicy(cell_timeout_s=cell_timeout)
        records = run_cells_resilient(
            cells,
            jobs=jobs,
            device=device,
            capacity_device=capacity_device,
            ordering=ordering,
            max_blocks_simulated=max_blocks_simulated,
            cost_model=cost_model,
            policy=policy,
            validate=validate,
            journal=journal,
            completed=completed,
            progress_callback=_notify,
        )
        return ComparisonMatrix(records=tuple(records), algorithms=algs, datasets=dsets)

    records = run_cells(
        cells,
        jobs=jobs,
        device=device,
        capacity_device=capacity_device,
        ordering=ordering,
        max_blocks_simulated=max_blocks_simulated,
        cost_model=cost_model,
        progress_callback=_notify,
    )
    return ComparisonMatrix(records=tuple(records), algorithms=algs, datasets=dsets)
