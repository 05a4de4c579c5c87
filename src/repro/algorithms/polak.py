"""Polak (IPDPSW'16): edge-centric, merge intersection, one thread per edge.

Section III-A: thread ``tid`` maps to edge ``(u, v)``; the two neighbour
lists are merged sequentially with two pointers, counting pointer
collisions.  Per-thread work is ``d(u) + d(v)`` — unbalanced across a warp
(low warp execution efficiency) and each lane walks its own lists (poor
coalescing), but the total number of memory accesses is the lowest of all
studied designs, which is why Polak wins on small graphs.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..intersect.merge import merge_intersect_count
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["Polak"]


def _polak_thread(ctx, m, esrc, col, row_ptr, out):
    """One thread = one edge; classic two-pointer merge with register reuse."""
    tid = ctx.tid
    if tid >= m:
        return
    u = yield ("g", "eu", esrc, tid)
    v = yield ("g", "ev", col, tid)
    i = yield ("g", "rpu", row_ptr, u)
    ue = yield ("g", "rpu1", row_ptr, u + 1)
    j = yield ("g", "rpv", row_ptr, v)
    ve = yield ("g", "rpv1", row_ptr, v + 1)
    tc = 0
    if i < ue and j < ve:
        a = yield ("g", "nu", col, i)
        b = yield ("g", "nv", col, j)
        while True:
            if a < b:
                i += 1
                if i >= ue:
                    break
                a = yield ("g", "nu", col, i)
            elif b < a:
                j += 1
                if j >= ve:
                    break
                b = yield ("g", "nv", col, j)
            else:
                tc += 1
                i += 1
                j += 1
                if i >= ue or j >= ve:
                    break
                a = yield ("g", "nu", col, i)
                b = yield ("g", "nv", col, j)
    yield ("ga", "acc", out, 0, tc)


@register
class Polak(TCAlgorithm):
    """Merge-based edge-iterator with coarse (thread-per-edge) granularity."""

    name = "Polak"
    year = 2016
    iterator = "edge"
    intersection = "merge"
    granularity = "coarse"
    reference = "Polak, IPDPSW 2016"

    block_dim = 256

    def count_structural(self, csr: CSRGraph) -> int:
        total = 0
        esrc = csr.edge_sources()
        for e in range(csr.m):
            u = int(esrc[e])
            v = int(csr.col[e])
            total += merge_intersect_count(csr.neighbors(u), csr.neighbors(v))
        return total

    def launch(
        self,
        csr: CSRGraph,
        gm: GlobalMemory,
        device: DeviceSpec,
        metrics: ProfileMetrics,
        *,
        max_blocks_simulated: int | None = None,
    ) -> DeviceArray:
        bufs = CSRBuffers.upload(csr, gm)
        block_dim = self.config.get("block_dim", self.block_dim)
        grid = max(1, -(-csr.m // block_dim))
        launch_kernel(
            device,
            _polak_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(csr.m, bufs.esrc, bufs.col, bufs.row_ptr, bufs.out),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out
