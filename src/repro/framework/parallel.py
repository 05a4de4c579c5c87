"""The process-pool fan-out behind every plain (unsupervised) run.

The paper's headline artefact is the full 9-algorithm x 19-dataset matrix
(Figures 11-13, 15); its 171 cells are embarrassingly parallel, and so are
a cluster run's partitions and a sweep's grid points.  All of them go
through :func:`parallel_starmap`, which keeps the serial contract exactly:

* **deterministic ordering** — results come back in submission order, so
  jobs=N returns exactly what jobs=1 returns;
* **one worker means no pool** — at jobs=1 every call runs in-process;
* **dead workers strand no one** — a worker that dies outright breaks the
  whole pool, and every call it stranded reruns alone in a single-worker
  pool, so only the true culprit fails;
* **one telemetry path** — each pool call returns ``(result, events,
  metrics_delta)`` (:func:`repro.obs.tracer.run_forwarded`) and the parent
  folds it with :func:`repro.obs.tracer.absorb_forwarded` before the
  result is handed on.

:func:`run_cells` maps matrix cells onto
:func:`~repro.framework.resilience.execute_cell` and turns a culprit's
exception or death into a ``status="failed"`` record; the parent warms the
on-disk replica cache (see :mod:`repro.graph.io`) first, so workers load
``.npz`` bundles instead of re-running the graph generators.  Supervised
runs (journal, resume, timeouts, validation) go through
:func:`~repro.framework.resilience.run_cells_resilient` instead.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed

from ..gpu.costmodel import CostModel
from ..gpu.device import SIM_V100, TESLA_V100, DeviceSpec
from ..graph.datasets import warm_cache
from ..obs.tracer import absorb_forwarded, get_tracer, run_forwarded
from .resilience import _failed_record, _resolve_jobs, default_jobs, execute_cell
from .runner import DEFAULT_MAX_BLOCKS, RunRecord

__all__ = ["default_jobs", "run_cells", "parallel_starmap"]


def _collect(future):
    """Unpack one pool call's ``(result, events, metrics_delta)``."""
    result, events, metrics_delta = future.result()
    absorb_forwarded(events, metrics_delta)
    return result


def parallel_starmap(
    fn,
    argtuples: Sequence[tuple],
    *,
    jobs: int | None = None,
    progress_callback: Callable[[object, int, int], None] | None = None,
    on_error: Callable[[tuple, Exception], object] | None = None,
) -> list:
    """Ordered ``[fn(*args) for args in argtuples]``, fanned over processes.

    ``fn`` must be picklable (a module-level callable or a
    :func:`functools.partial` of one).  ``jobs=None`` (or 0) uses
    :func:`default_jobs`.  ``progress_callback(result, done, total)`` fires
    in completion order.  An exception raised by a call, or a worker's
    death, propagates unless ``on_error(args, exc)`` maps it to a result.
    """
    argtuples = list(argtuples)
    total = len(argtuples)
    results: list = [None] * total
    done = 0

    def settle(i: int, call, *call_args) -> None:
        nonlocal done
        try:
            result = call(*call_args)
        except Exception as exc:
            if on_error is None:
                raise
            result = on_error(argtuples[i], exc)
        results[i] = result
        done += 1
        if progress_callback is not None:
            progress_callback(result, done, total)

    jobs = _resolve_jobs(jobs, total)
    if jobs == 1:
        for i, args in enumerate(argtuples):
            settle(i, fn, *args)
        return results

    get_tracer().info("fanout", jobs=jobs, items=total)
    stranded: list[int] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(run_forwarded, fn, *args): i for i, args in enumerate(argtuples)}
        for future in as_completed(futures):
            i = futures[future]
            if isinstance(future.exception(), BrokenExecutor):
                stranded.append(i)
            else:
                settle(i, _collect, future)
    for i in sorted(stranded):
        with ProcessPoolExecutor(max_workers=1) as solo:
            settle(i, _collect, solo.submit(run_forwarded, fn, *argtuples[i]))
    return results


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
    """Execute ``(algorithm, dataset)`` cells; records come back in ``cells`` order.

    A cell that raises, or whose worker process dies, yields a
    ``status="failed"`` record; the call itself never raises for a cell.
    """
    cells = list(cells)
    jobs = _resolve_jobs(jobs, len(cells))
    if jobs > 1:
        # Generate every replica once in the parent: forked workers inherit
        # the warm memory cache, spawned workers hit the disk cache.
        warm_cache(sorted({ds for _, ds in cells}), orderings=(ordering,), strict=False)
    cell = functools.partial(
        execute_cell,
        device=device,
        capacity_device=capacity_device,
        ordering=ordering,
        max_blocks_simulated=max_blocks_simulated,
        cost_model=cost_model,
    )
    return parallel_starmap(
        cell,
        cells,
        jobs=jobs,
        progress_callback=progress_callback,
        on_error=lambda args, exc: _failed_record(args[0], args[1], device, exc),
    )
