"""Parameter sweeps: the ablation half of the harness.

The paper reports each implementation "under different sets of parameters
... the ones that yield the best performance" (Section IV).
:func:`sweep_config` reruns one algorithm over a grid of configuration
values, and :func:`best_config` picks the fastest — the procedure behind
the paper's per-algorithm configuration choices, and the engine of the
ablation benchmarks.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..algorithms.base import get_algorithm
from ..gpu.device import SIM_V100, DeviceSpec
from ..graph.datasets import load_oriented
from .parallel import parallel_starmap
from .runner import DEFAULT_MAX_BLOCKS

__all__ = ["SweepPoint", "sweep_config", "best_config"]


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's outcome."""

    config: dict
    sim_time_s: float
    warp_execution_efficiency: float
    global_load_requests: float
    triangles: int


def _sweep_point(
    algorithm: str,
    dataset: str,
    config: dict,
    device: DeviceSpec,
    ordering: str,
    max_blocks_simulated: int | None,
) -> SweepPoint:
    """One grid point (module-level so worker processes can pickle it)."""
    csr = load_oriented(dataset, ordering)
    alg = get_algorithm(algorithm, **config)
    result = alg.profile(
        csr, device=device, max_blocks_simulated=max_blocks_simulated, dataset=dataset
    )
    return SweepPoint(
        config=config,
        sim_time_s=result.sim_time_s,
        warp_execution_efficiency=result.metrics.warp_execution_efficiency,
        global_load_requests=result.metrics.global_load_requests,
        triangles=result.triangles,
    )


def sweep_config(
    algorithm: str,
    dataset: str,
    grid: Mapping[str, Sequence],
    *,
    device: DeviceSpec = SIM_V100,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Run ``algorithm`` on ``dataset`` for every combination in ``grid``.

    ``grid`` maps config keys (e.g. ``chunk`` for GroupTC, ``edges_per_warp``
    for TriCore) to candidate values.  Returns one :class:`SweepPoint` per
    combination, in itertools.product order.  ``jobs != 1`` fans the grid
    points over worker processes (``0`` = one per core) through
    :func:`~repro.framework.parallel.parallel_starmap`; order is preserved.
    """
    keys = list(grid)
    configs = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]
    argtuples = [
        (algorithm, dataset, config, device, ordering, max_blocks_simulated)
        for config in configs
    ]
    load_oriented(dataset, ordering)  # warm the shared replica cache once
    return parallel_starmap(_sweep_point, argtuples, jobs=jobs)


def best_config(points: Sequence[SweepPoint]) -> SweepPoint:
    """Fastest sweep point (the paper's 'best performance' selection)."""
    if not points:
        raise ValueError("empty sweep")
    return min(points, key=lambda p: p.sim_time_s)
