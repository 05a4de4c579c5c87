"""Hu (ICDEW'19): vertex-centric, fine-grained strided binary search.

Section III-F: one block per vertex ``u``, two phases:

1. *Caching neighbours* — as much of ``N(u)`` as fits is staged in shared
   memory (coalesced strided loads).
2. *Fine-grained search* — the 2-hop neighbours of ``u`` are flattened into
   one work list and dealt to threads with a fixed stride (Algorithm 1 in
   the paper): each thread walks the 1-hop list's metadata, skipping
   sub-lists until its offset lands, then binary-searches its 2-hop vertex
   in the cached ``N(u)``.

The flat strided deal gives near-perfect load balance and coalesced 2-hop
reads, but *every thread* redundantly traverses the 1-hop metadata
(``row_ptr``/``col`` loads per sub-list per thread), which is why Hu shows
the highest ``global_load_requests`` of the fine-grained group (Fig. 12)
despite its high warp execution efficiency.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..intersect.binsearch import binsearch_intersect_count
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["Hu"]


def _hu_thread(ctx, n, cache_cap, col, row_ptr, out):
    """Algorithm 1 of the paper, one thread of the per-vertex block."""
    u = ctx.block
    t = ctx.tid_in_block
    block = ctx.block_dim
    tc = 0
    if u < n:
        us = yield ("g", "rpu", row_ptr, u)
        ue = yield ("g", "rpu1", row_ptr, u + 1)
        du = ue - us
        if du > 0:
            # Phase 1: stage N(u) into shared memory (strided, coalesced).
            cached = min(du, cache_cap)
            i = t
            while i < cached:
                x = yield ("g", "stage", col, us + i)
                yield ("ss", "stageS", i, x)
                i += block
            yield ("y",)
            # Phase 2: strided walk over the flattened 2-hop list.
            v_offset = t
            u_point = us
            v = yield ("g", "hop1", col, u_point)
            v_point = yield ("g", "rpv", row_ptr, v)
            v_degree = (yield ("g", "rpv1", row_ptr, v + 1)) - v_point
            while u_point < ue:
                # Skip sub-lists until this thread's offset lands in one.
                while u_point < ue and v_offset >= v_degree:
                    v_offset -= v_degree
                    u_point += 1
                    if u_point < ue:
                        v = yield ("g", "hop1", col, u_point)
                        v_point = yield ("g", "rpv", row_ptr, v)
                        v_degree = (yield ("g", "rpv1", row_ptr, v + 1)) - v_point
                if u_point < ue:
                    w = yield ("g", "hop2", col, v_point + v_offset)
                    # Binary search w in N(u): shared for the cached prefix,
                    # global beyond it.
                    lo, hi = 0, du
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if mid < cached:
                            val = yield ("s", "probeS", mid)
                        else:
                            val = yield ("g", "probeG", col, us + mid)
                        if val == w:
                            tc += 1
                            break
                        if val < w:
                            lo = mid + 1
                        else:
                            hi = mid
                v_offset += block
    # The paper reduces tc within each warp (loop-expanded shuffles, the
    # alu charge below) before accumulating globally.
    yield ("a", 5)
    yield ("ga", "acc", out, 0, tc)


@register
class Hu(TCAlgorithm):
    """Fine-grained vertex-iterator with flat strided 2-hop distribution."""

    name = "Hu"
    year = 2019
    iterator = "vertex"
    intersection = "binary-search"
    granularity = "fine"
    reference = "Hu, Guan & Zou, ICDEW 2019"

    block_dim = 64  # the paper tunes block size; small vertices dominate

    def count_structural(self, csr: CSRGraph) -> int:
        total = 0
        for u in range(csr.n):
            table = csr.neighbors(u)
            for v in table:
                total += binsearch_intersect_count(table, csr.neighbors(int(v)))
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
        cache_cap = min(
            self.config.get("cache_cap", 4096), device.shared_mem_per_block // 4
        )
        grid = max(1, csr.n)
        launch_kernel(
            device,
            _hu_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(csr.n, cache_cap, bufs.col, bufs.row_ptr, bufs.out),
            shared_words=cache_cap,
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out

    def device_footprint_bytes(
        self, n: int, m: int, max_degree: int, device: DeviceSpec
    ) -> int:
        # Vertex iterator: CSR plus the output counter (shared cache is
        # on-chip, not DRAM).
        return (n + 1 + m) * 4 + 8
