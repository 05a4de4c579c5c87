"""Kernel launch: grid/block configuration, barriers, and block sampling.

:func:`launch_kernel` is the simulator's ``<<<grid, block>>>`` operator.  It
instantiates one thread generator per thread, groups them into warps, runs
each block's warps cooperatively (so ``__syncthreads`` works), and
accumulates :class:`~repro.gpu.metrics.ProfileMetrics`.

Block sampling
--------------
Simulating every block of a large launch in pure Python is wasteful when
the counters are the goal: the studied kernels are homogeneous across
blocks (each block processes its own slice of edges or vertices), so the
launcher can simulate an evenly spaced subset of blocks and scale the
counters by ``grid_dim / simulated``.  Triangle *counts* produced by a
sampled launch are partial by construction; callers that need exact counts
either disable sampling or (as :mod:`repro.algorithms` does) take counts
from the vectorised path and use the simulator for metrics only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.attribution import active_collector
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from .device import DeviceSpec
from .engine import in_event_oracle, simulate_vectorized
from .intrinsics import ThreadCtx
from .memory import SectorCache
from .metrics import ProfileMetrics, SECTOR_BYTES
from .sharedmem import SharedMemory, validate_shared_words
from .warp import Warp

__all__ = ["launch_kernel", "LaunchResult", "KernelConfigError"]


class KernelConfigError(ValueError):
    """Invalid launch configuration (block too big, bad grid, ...)."""


@dataclass(frozen=True)
class LaunchResult:
    """Outcome of one simulated kernel launch."""

    metrics: ProfileMetrics
    blocks_total: int
    blocks_simulated: int

    @property
    def sample_factor(self) -> float:
        return self.blocks_total / self.blocks_simulated if self.blocks_simulated else 1.0


def _select_blocks(grid_dim: int, max_blocks: int | None) -> np.ndarray:
    if max_blocks is None or grid_dim <= max_blocks:
        return np.arange(grid_dim, dtype=np.int64)
    # Evenly spaced, deterministic, always includes the first block.
    idx = np.linspace(0, grid_dim - 1, max_blocks)
    return np.unique(np.floor(idx).astype(np.int64))


def launch_kernel(
    device: DeviceSpec,
    program,
    *,
    grid_dim: int,
    block_dim: int,
    args: tuple = (),
    shared_words: int = 0,
    metrics: ProfileMetrics | None = None,
    max_blocks_simulated: int | None = None,
) -> LaunchResult:
    """Simulate ``program<<<grid_dim, block_dim, shared_words*4>>>(*args)``.

    Parameters
    ----------
    program:
        Generator factory ``program(ctx, *args)`` — one CUDA thread.
    grid_dim, block_dim:
        1-D launch configuration, validated against ``device``.
    shared_words:
        Per-block shared memory in 4-byte words; checked against the
        device's per-block limit.
    metrics:
        Optional accumulator; scaled counters from this launch are merged
        into it (multi-kernel algorithms pass one accumulator through).
    max_blocks_simulated:
        Enable block sampling (see module docstring).

    Returns
    -------
    LaunchResult
        With the (scaled) metrics of this launch.
    """
    if grid_dim < 0:
        raise KernelConfigError("grid_dim must be non-negative")
    if block_dim < 1 or block_dim > device.max_threads_per_block:
        raise KernelConfigError(
            f"block_dim {block_dim} outside [1, {device.max_threads_per_block}]"
        )
    # Configuration errors must fire regardless of engine: replay never
    # allocates real shared memory, so check the request up front.
    validate_shared_words(shared_words, device.shared_mem_per_block)
    blocks = _select_blocks(grid_dim, max_blocks_simulated)
    kernel_name = getattr(program, "__qualname__", repr(program))
    with get_tracer().span(
        "launch",
        level="info",
        kernel=kernel_name,
        grid_dim=grid_dim,
        block_dim=block_dim,
        blocks_simulated=len(blocks),
        device=device.name,
    ) as span:
        simulate = _run_event if in_event_oracle() else simulate_vectorized
        local = simulate(
            device,
            program,
            grid_dim=grid_dim,
            block_dim=block_dim,
            args=args,
            shared_words=shared_words,
            blocks=blocks,
        )
        local.blocks_simulated = len(blocks)
        local.kernel_launches = 1
        factor = grid_dim / len(blocks) if len(blocks) else 1.0
        # Per-line attribution rides in ``meta``; pop it before scaling so
        # golden snapshots (and per-launch copies) never carry profiles.
        line_raw = local.meta.pop("line_profile", None)
        scaled = local.scaled(factor)
        scaled.warps_launched = grid_dim * (
            (block_dim + device.warp_size - 1) // device.warp_size
        )
        scaled.blocks_launched = grid_dim
        # The launch span's counter delta is exactly this launch's scaled
        # contribution — per-span deltas sum to cell totals by construction.
        span.set_counters(scaled.snapshot())
        registry = get_metrics()
        if registry.enabled:
            # Conservation basis for verify invariant #9: launch counters in
            # registry snapshots must sum to the RunRecord totals.
            registry.inc("sim_launches")
            registry.inc("sim_global_load_requests", scaled.global_load_requests)
            registry.inc("sim_warps_launched", scaled.warps_launched)
        collector = active_collector()
        if collector is not None:
            collector.add_launch(kernel_name, line_raw or {}, factor, scaled.snapshot())
        if metrics is not None:
            metrics.merge(scaled)
    return LaunchResult(metrics=scaled, blocks_total=grid_dim, blocks_simulated=len(blocks))


def _run_event(
    device: DeviceSpec,
    program,
    *,
    grid_dim: int,
    block_dim: int,
    args: tuple,
    shared_words: int,
    blocks: np.ndarray,
) -> ProfileMetrics:
    """The event engine: interleave scheduling, effects, and accounting.

    The oracle the record/replay path is checked against; launches reach
    it only inside :func:`repro.gpu.engine.event_oracle`.
    """
    local = ProfileMetrics(warp_size=device.warp_size)
    # Frame inspection per issue step is only paid when a profiler asked
    # for attribution; the dict is shared by every warp of the launch.
    line_raw: dict | None = {} if active_collector() is not None else None
    l2 = SectorCache(device.l2_bytes // SECTOR_BYTES)
    for block in blocks.tolist():
        # Fresh per-block L1: blocks land on arbitrary SMs.
        l1 = SectorCache(device.l1_bytes // SECTOR_BYTES)
        smem = SharedMemory(shared_words, device.shared_mem_per_block)
        ctxs = [
            ThreadCtx(block, t, block_dim, grid_dim, device.warp_size, smem)
            for t in range(block_dim)
        ]
        warps = [
            Warp(
                (program(ctx, *args) for ctx in ctxs[w : w + device.warp_size]),
                smem,
                local,
                l2,
                l1,
                line_raw,
            )
            for w in range(0, block_dim, device.warp_size)
        ]
        live = list(warps)
        while live:
            states = [w.run_until_barrier() for w in live]
            at_barrier = [w for w, s in zip(live, states) if s == "barrier"]
            if not at_barrier:
                break  # every warp ran to completion
            # All live warps are now parked (or finished): the barrier opens.
            for w in at_barrier:
                w.release_barrier()
            live = at_barrier
    if line_raw is not None:
        local.meta["line_profile"] = line_raw
    return local
