"""Green (IA3'14): edge-centric, GPU Merge Path, fine granularity.

Section III-B: a group of threads processes each edge.  The merge of the
two neighbour lists is split by Merge Path diagonal partitioning (Green,
McColl & Bader ICS'12): every thread binary-searches its diagonal's
crossing point, then merges an equal-sized slice.  The partitioning makes
big merges parallel, but on real graphs most edges have *small* lists, so
the per-edge partitioning overhead dominates — the paper's explanation for
Green's poor overall showing.

Configuration follows Section IV (*Program configuration*): ``gridSize`` is
one tenth of the edge count, ``blockSize`` 512, and 32 threads (one warp)
per intersection; warps pick up edges in a grid stride.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..intersect.merge import merge_intersect_count, merge_path_partition
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["Green"]


def _green_thread(ctx, m, warp_slots, esrc, col, row_ptr, out):
    """One lane of a warp cooperating on one edge at a time (grid stride)."""
    warp_slot = ctx.tid // 32
    lane = ctx.lane
    tc = 0
    edge = warp_slot
    while edge < m:
        u = yield ("g", "eu", esrc, edge)
        v = yield ("g", "ev", col, edge)
        us = yield ("g", "rpu", row_ptr, u)
        ue = yield ("g", "rpu1", row_ptr, u + 1)
        vs = yield ("g", "rpv", row_ptr, v)
        ve = yield ("g", "rpv1", row_ptr, v + 1)
        la = ue - us
        lb = ve - vs
        total = la + lb
        if la and lb:
            # --- merge-path partition: find this lane's diagonal crossing.
            diag_lo = (total * lane) // 32
            diag_hi = (total * (lane + 1)) // 32
            lo = max(0, diag_lo - lb)
            hi = min(diag_lo, la)
            while lo < hi:
                mid = (lo + hi) // 2
                av = yield ("g", "mpA", col, us + mid)
                bv = yield ("g", "mpB", col, vs + diag_lo - 1 - mid)
                if av <= bv:
                    lo = mid + 1
                else:
                    hi = mid
            i = lo
            j = diag_lo - lo
            # --- merge this lane's slice, counting matches.  The slice ends
            # after (diag_hi - diag_lo) merge outputs; peek one element past
            # the boundary so an equal pair straddling it is still counted
            # by the left slice (the tie rule of merge_path_partition).
            budget = diag_hi - diag_lo
            while budget > 0 and i < la and j < lb:
                av = yield ("g", "nu", col, us + i)
                bv = yield ("g", "nv", col, vs + j)
                if av < bv:
                    i += 1
                    budget -= 1
                elif bv < av:
                    j += 1
                    budget -= 1
                else:
                    tc += 1
                    i += 1
                    j += 1
                    budget -= 2
        edge += warp_slots
    yield ("ga", "acc", out, 0, tc)


@register
class Green(TCAlgorithm):
    """Merge-Path edge-iterator with one warp per intersection."""

    name = "Green"
    year = 2014
    iterator = "edge"
    intersection = "merge"
    granularity = "fine"
    reference = "Green, Yalamanchili & Munguia, IA3 2014"

    block_dim = 512

    def count_structural(self, csr: CSRGraph) -> int:
        """Partition every edge's merge into 32 slices, count per slice."""
        total = 0
        esrc = csr.edge_sources()
        for e in range(csr.m):
            a = csr.neighbors(int(esrc[e]))
            b = csr.neighbors(int(csr.col[e]))
            for a_lo, a_hi, b_lo, b_hi in merge_path_partition(a, b, 32):
                total += merge_intersect_count(a[a_lo:a_hi], b[b_lo:b_hi])
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
        # Section IV: gridSize = |E| / 10 (at least 1).
        grid = max(1, csr.m // self.config.get("grid_divisor", 10) // (block_dim // 32))
        warp_slots = grid * (block_dim // 32)
        launch_kernel(
            device,
            _green_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(csr.m, warp_slots, bufs.esrc, bufs.col, bufs.row_ptr, bufs.out),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out
