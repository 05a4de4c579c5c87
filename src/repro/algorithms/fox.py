"""Fox (HPEC'18): edge-centric, workload-binned list intersection.

Section III-E: every edge's intersection workload is estimated
(``min(d) * log2(max(d))`` for the binary-search variant evaluated in the
paper) and the edge is dropped into one of six exponentially-sized work
bins; edges in bin ``n`` are processed by ``2^n`` threads (capped at a full
warp).  Warps only ever execute edges of one bin, so intra-warp workload
variation stays below 2x — high warp execution efficiency.

The price, per Section IV-A, is memory locality: binning scatters edges, so
the lanes of a warp touch neighbour lists from unrelated parts of the CSR
and "Fox's memory access efficiency is very low".  The simulator sees this
directly because the main kernel walks the bin-sorted edge order.

Pipeline (three launches, as in the reference implementation):

1. *estimate* kernel — per-edge workload, bin id written to global memory;
2. *scatter* kernel — edges reordered by bin (positions precomputed on the
   host; the device pays the gather/scatter traffic);
3. *count* kernel — one launch over the reordered edges, sub-warp groups of
   ``2^bin`` lanes per edge, binary search of the shorter list's members in
   the longer list.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..intersect.binsearch import binsearch_intersect_count
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["Fox", "fox_bin"]

NUM_BINS = 6
#: work one thread is expected to absorb before the edge earns more threads
BIN_BASE_WORK = 8


def fox_bin(du: int, dv: int) -> int:
    """Work bin of an edge with endpoint out-degrees ``du`` and ``dv``."""
    short, long_ = (du, dv) if du <= dv else (dv, du)
    if short == 0:
        return 0
    work = short * max(int(np.log2(long_)) if long_ > 1 else 1, 1)
    b = 0
    while b < NUM_BINS - 1 and work > BIN_BASE_WORK << b:
        b += 1
    return b


def _estimate_thread(ctx, m, esrc, col, row_ptr, bins):
    """Per-edge workload estimation kernel (bin id to global memory)."""
    tid = ctx.tid
    if tid >= m:
        return
    u = yield ("g", "eu", esrc, tid)
    v = yield ("g", "ev", col, tid)
    us = yield ("g", "rpu", row_ptr, u)
    ue = yield ("g", "rpu1", row_ptr, u + 1)
    vs = yield ("g", "rpv", row_ptr, v)
    ve = yield ("g", "rpv1", row_ptr, v + 1)
    yield ("a", 4)  # log2 + shifts of the bin computation
    yield ("gs", "bin", bins, tid, fox_bin(ue - us, ve - vs))


def _radix_pass_thread(ctx, m, keys_in, keys_out):
    """One pass of the device radix sort over the bin keys.

    The reference implementation sorts edges by bin with a thrust-style
    radix sort; each pass streams every key through global memory (plus a
    histogram update).  The data movement, not the arithmetic, is what
    matters to the profile, so one load, one histogram atomic charge and
    one store per key per pass are traced.
    """
    tid = ctx.tid
    if tid >= m:
        return
    k = yield ("g", "rk", keys_in, tid)
    yield ("a", 2)  # digit extraction
    yield ("gs", "wk", keys_out, tid, k)


def _scatter_thread(ctx, m, order, src_a, src_b, dst_a, dst_b):
    """Reorder kernel: gather edge ``order[tid]`` into slot ``tid``."""
    tid = ctx.tid
    if tid >= m:
        return
    j = yield ("g", "ord", order, tid)
    a = yield ("g", "sa", src_a, j)
    b = yield ("g", "sb", src_b, j)
    yield ("gs", "da", dst_a, tid, a)
    yield ("gs", "db", dst_b, tid, b)


def _count_thread(ctx, m, group_sizes, seg_starts, warp_bases, eu, ev, col, row_ptr, out):
    """Counting kernel over bin-sorted edges.

    ``seg_starts[b]`` is the first slot of bin ``b`` in the reordered edge
    arrays and ``warp_bases[b]`` the first warp slot assigned to bin ``b``
    (bins are padded to whole warps so no warp straddles two bins); a warp
    owns a run of ``32 / 2^b`` consecutive edges of one bin, with ``2^b``
    lanes per edge.
    """
    lane = ctx.lane
    warp_slot = ctx.tid // 32
    # Locate this warp's bin (host precomputed warp_bases as plain ints;
    # the walk is register arithmetic).
    b = 0
    while b < NUM_BINS and warp_slot >= warp_bases[b + 1]:
        b += 1
    if b >= NUM_BINS:
        return
    group = group_sizes[b]
    edges_per_warp = 32 // group
    edge = seg_starts[b] + (warp_slot - warp_bases[b]) * edges_per_warp + lane // group
    sub_lane = lane % group
    tc = 0
    if edge < seg_starts[b + 1]:
        u = yield ("g", "eu", eu, edge)
        v = yield ("g", "ev", ev, edge)
        us = yield ("g", "rpu", row_ptr, u)
        ue = yield ("g", "rpu1", row_ptr, u + 1)
        vs = yield ("g", "rpv", row_ptr, v)
        ve = yield ("g", "rpv1", row_ptr, v + 1)
        du = ue - us
        dv = ve - vs
        if du <= dv:
            qs, qlen, ts, tlen = us, du, vs, dv
        else:
            qs, qlen, ts, tlen = vs, dv, us, du
        q = qs + sub_lane
        while q < qs + qlen:
            key = yield ("g", "query", col, q)
            lo, hi = 0, tlen
            while lo < hi:
                mid = (lo + hi) // 2
                val = yield ("g", "probe", col, ts + mid)
                if val == key:
                    tc += 1
                    break
                if val < key:
                    lo = mid + 1
                else:
                    hi = mid
            q += group
    yield ("ga", "acc", out, 0, tc)


@register
class Fox(TCAlgorithm):
    """Bin-adaptive edge-iterator (binary-search variant, per Section IV)."""

    name = "Fox"
    year = 2018
    iterator = "edge"
    intersection = "binary-search"
    granularity = "fine"
    reference = "Fox et al., HPEC 2018"

    block_dim = 256

    def count_structural(self, csr: CSRGraph) -> int:
        total = 0
        esrc = csr.edge_sources()
        for e in range(csr.m):
            a = csr.neighbors(int(esrc[e]))
            b = csr.neighbors(int(csr.col[e]))
            queries, table = (a, b) if a.shape[0] <= b.shape[0] else (b, a)
            total += binsearch_intersect_count(table, queries)
        return total

    def bin_edges(self, csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised host mirror of the estimate kernel.

        Returns ``(order, seg_starts)``: the bin-sorted edge permutation and
        the NUM_BINS+1 segment boundaries.
        """
        deg = csr.degrees
        du = deg[csr.edge_sources()]
        dv = deg[csr.col]
        short = np.minimum(du, dv)
        long_ = np.maximum(du, dv)
        work = short * np.maximum(np.floor(np.log2(np.maximum(long_, 2))), 1).astype(np.int64)
        work = np.where(short == 0, 0, work)
        bins = np.zeros(csr.m, dtype=np.int64)
        for b in range(1, NUM_BINS):
            bins[work > (BIN_BASE_WORK << (b - 1))] = b
        order = np.argsort(bins, kind="stable")
        counts = np.bincount(bins, minlength=NUM_BINS)
        seg_starts = np.concatenate([[0], np.cumsum(counts)])
        return order, seg_starts

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
        m = csr.m
        block_dim = self.config.get("block_dim", self.block_dim)
        bins_buf = gm.zeros("bins", max(m, 1))
        grid = max(1, -(-m // block_dim))
        launch_kernel(
            device,
            _estimate_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(m, bufs.esrc, bufs.col, bufs.row_ptr, bins_buf),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        # Device radix sort of the bin keys (4 passes, double-buffered).
        keys_tmp = gm.zeros("keys_tmp", max(m, 1))
        for _pass in range(4):
            a, b = (bins_buf, keys_tmp) if _pass % 2 == 0 else (keys_tmp, bins_buf)
            launch_kernel(
                device,
                _radix_pass_thread,
                grid_dim=grid,
                block_dim=block_dim,
                args=(m, a, b),
                metrics=metrics,
                max_blocks_simulated=max_blocks_simulated,
            )
        order, seg_starts = self.bin_edges(csr)
        order_buf = gm.alloc("order", order)
        eu_sorted = gm.zeros("eu_sorted", max(m, 1))
        ev_sorted = gm.zeros("ev_sorted", max(m, 1))
        launch_kernel(
            device,
            _scatter_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(m, order_buf, bufs.esrc, bufs.col, eu_sorted, ev_sorted),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        # The scatter kernel may have been sampled; guarantee the reordered
        # arrays are complete for the counting kernel's correctness.
        eu_sorted.data[:] = csr.edge_sources()[order] if m else eu_sorted.data
        ev_sorted.data[:] = csr.col[order] if m else ev_sorted.data
        group_sizes = tuple(min(1 << b, 32) for b in range(NUM_BINS))
        warp_bases = [0]
        for b in range(NUM_BINS):
            edges_b = int(seg_starts[b + 1] - seg_starts[b])
            warps_b = -(-edges_b * group_sizes[b] // 32)
            warp_bases.append(warp_bases[-1] + warps_b)
        warp_count = max(1, warp_bases[-1])
        grid_count = max(1, -(-warp_count // (block_dim // 32)))
        launch_kernel(
            device,
            _count_thread,
            grid_dim=grid_count,
            block_dim=block_dim,
            args=(
                m,
                group_sizes,
                tuple(int(x) for x in seg_starts),
                tuple(warp_bases),
                eu_sorted,
                ev_sorted,
                bufs.col,
                bufs.row_ptr,
                bufs.out,
            ),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out

    def device_footprint_bytes(
        self, n: int, m: int, max_degree: int, device: DeviceSpec
    ) -> int:
        base = super().device_footprint_bytes(n, m, max_degree, device)
        # bin ids, permutation, and the double-buffered reordered edge list
        return base + 4 * m * 4
