"""Parallel comparison-matrix execution.

The paper's headline artefact is the full 9-algorithm x 19-dataset matrix
(Figures 11-13, 15); its 171 cells are embarrassingly parallel, and TRUST's
multi-GPU scaling argument applies just as well to fanning simulator cells
over CPU cores.  This module runs :func:`~repro.framework.runner.run_one`
cells on a :class:`concurrent.futures.ProcessPoolExecutor` while keeping the
serial path's contract exactly:

* **deterministic ordering** — results come back in submission order, so a
  parallel :func:`~repro.framework.compare.run_matrix` produces a record
  tuple identical to the serial one;
* **per-cell error capture** — a worker that raises (or a worker process
  that dies outright) yields a ``status="failed"`` :class:`RunRecord` for
  its cell, never a whole-matrix abort; cells stranded on a broken pool
  are retried in isolated single-worker pools so only the true culprit
  fails;
* **no redundant generation** — the parent warms the on-disk replica cache
  (see :mod:`repro.graph.io`) before fanning out, so workers load ``.npz``
  bundles instead of re-running the graph generators.

Incremental progress is reported through ``progress_callback(record, done,
total)`` as futures complete (completion order), while the returned list is
always in cell order.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed

import os

from ..gpu.costmodel import CostModel
from ..gpu.device import SIM_V100, TESLA_V100, DeviceSpec
from ..graph.datasets import warm_cache
from ..obs import metrics as _metrics
from ..obs.tracer import absorb_forwarded, forwarding_buffer, get_tracer
from .resilience import (
    LEGACY_CRASH_ENV,
    _failed_record,
    _resolve_jobs,
    default_jobs,
    execute_cell,
)
from .runner import DEFAULT_MAX_BLOCKS, RunRecord

__all__ = ["default_jobs", "run_cells", "parallel_starmap"]

#: Legacy environment hook used by the test suite to simulate worker
#: failures: ``"ALG/DATASET"`` makes that cell's worker raise, ``"exit:ALG/
#: DATASET"`` kills the worker process outright (the BrokenProcessPool
#: path).  Generalised by the chaos API in
#: :mod:`repro.framework.resilience` (``REPRO_CHAOS``); both are honoured.
CRASH_ENV = LEGACY_CRASH_ENV


def _run_cell(
    algorithm,
    dataset: str,
    device: DeviceSpec,
    capacity_device: DeviceSpec,
    ordering: str,
    max_blocks_simulated: int | None,
    cost_model: CostModel | None,
) -> RunRecord:
    """Worker entry point: one matrix cell, never raises."""
    return execute_cell(
        algorithm,
        dataset,
        device=device,
        capacity_device=capacity_device,
        ordering=ordering,
        max_blocks_simulated=max_blocks_simulated,
        cost_model=cost_model,
    )


def run_cells(
    cells: Sequence[tuple[str, str]],
    *,
    jobs: int | None = None,
    device: DeviceSpec = SIM_V100,
    capacity_device: DeviceSpec = TESLA_V100,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    cost_model: CostModel | None = None,
    progress_callback: Callable[[RunRecord, int, int], None] | None = None,
) -> list[RunRecord]:
    """Execute ``(algorithm, dataset)`` cells, fanned over worker processes.

    ``jobs=None`` (or 0) uses :func:`default_jobs`.  The returned list is in
    ``cells`` order regardless of completion order.  Worker-side exceptions
    and hard worker deaths both surface as ``status="failed"`` records for
    the affected cells; the call itself never raises for a cell failure.
    """
    cells = list(cells)
    total = len(cells)
    if total == 0:
        return []
    jobs = _resolve_jobs(jobs, total)

    common = (device, capacity_device, ordering, max_blocks_simulated, cost_model)

    if jobs == 1:
        records = []
        for alg, ds in cells:
            rec = absorb_forwarded(_run_cell(alg, ds, *common))
            records.append(rec)
            if progress_callback is not None:
                progress_callback(rec, len(records), total)
        return records

    # Generate every replica once in the parent: forked workers inherit the
    # warm memory cache, spawned workers hit the disk cache.  Without this,
    # workers would race to (re)build the same graphs.
    warm_cache(sorted({ds for _, ds in cells}), orderings=(ordering,), strict=False)
    get_tracer().info("fanout", jobs=jobs, cells=total)

    results: list[RunRecord | None] = [None] * total
    done = 0

    def _finish(i: int, rec: RunRecord) -> None:
        nonlocal done
        # Re-emit worker telemetry here (completion order, before the
        # progress callback) so the parent's sinks see spans as they land.
        absorb_forwarded(rec)
        results[i] = rec
        done += 1
        if progress_callback is not None:
            progress_callback(rec, done, total)

    # A worker that dies outright breaks the whole pool: its own future
    # *and* every cell still queued get BrokenProcessPool, with no way to
    # tell the culprit from innocent bystanders.  Those cells are deferred
    # and retried one at a time in isolated single-worker pools — the
    # deterministic crasher fails alone, collateral cells succeed, and the
    # matrix always completes.
    deferred: list[int] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(_run_cell, alg, ds, *common): i
            for i, (alg, ds) in enumerate(cells)
        }
        for fut in as_completed(futures):
            i = futures[fut]
            alg, ds = cells[i]
            exc = fut.exception()
            if isinstance(exc, BrokenExecutor):
                deferred.append(i)
            elif exc is not None:
                _finish(i, _failed_record(alg, ds, device, exc))
            else:
                _finish(i, fut.result())
    for i in sorted(deferred):
        alg, ds = cells[i]
        try:
            with ProcessPoolExecutor(max_workers=1) as solo:
                rec = solo.submit(_run_cell, alg, ds, *common).result()
        except Exception as exc:
            rec = _failed_record(alg, ds, device, exc)
        _finish(i, rec)
    return [r for r in results if r is not None]


def _starmap_call(fn, args: tuple) -> tuple:
    """Worker body for :func:`parallel_starmap`: run one call with the
    telemetry forwarding buffer open, shipping buffered events and the
    metrics delta home alongside the result."""
    with forwarding_buffer() as buf:
        result = fn(*args)
    return result, buf.events, buf.metrics_delta


def _absorb_starmap(events, metrics_delta) -> None:
    """Parent-side fold of one starmap worker's forwarded telemetry."""
    if events:
        tracer = get_tracer()
        pid = os.getpid()
        for event in events:
            if event.get("pid") == pid:
                continue
            event.setdefault("forwarded", True)
            tracer.emit_raw(event)
    if metrics_delta:
        _metrics.absorb_delta({_metrics.METRICS_FORWARD_KEY: metrics_delta})


def parallel_starmap(fn, argtuples: Sequence[tuple], *, jobs: int | None = None) -> list:
    """Ordered ``[fn(*args) for args in argtuples]`` over worker processes.

    Generic helper for the sweep/cluster modules and other fan-outs: ``fn``
    must be a picklable module-level callable.  Unlike :func:`run_cells`,
    worker exceptions propagate — callers that want per-item capture should
    wrap ``fn`` themselves.  Worker telemetry and metrics deltas ride home
    on the result tuples and are folded into the parent's tracer/registry
    as each future completes.
    """
    argtuples = list(argtuples)
    jobs = _resolve_jobs(jobs, len(argtuples))
    if jobs == 1 or len(argtuples) <= 1:
        return [fn(*args) for args in argtuples]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_starmap_call, fn, args) for args in argtuples]
        out = []
        for f in futures:
            result, events, metrics_delta = f.result()
            _absorb_starmap(events, metrics_delta)
            out.append(result)
        return out
