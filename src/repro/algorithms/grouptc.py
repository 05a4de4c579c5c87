"""GroupTC (Section V): the paper's proposed edge-chunk algorithm.

GroupTC is edge-centric with binary-search intersection, but unlike every
prior design its scheduling unit is an *edge chunk*: a block of ``n``
threads processes ``n`` consecutive edges.  The chunk's query work (all
2-hop accesses of all its edges) is flattened into one work list and dealt
to threads by a fixed stride, so each thread has a comparable workload even
when individual edges are tiny — the failure mode of TRUST's block-per-
vertex approach on small graphs.  Neighbouring threads handle neighbouring
work items, so both the 1-hop and (likely) the 2-hop reads coalesce.

The three optimisations of Section V are implemented:

1. **Partial 2-hop search** — with the ``u < v`` storage format the search
   table for edge ``(u, v)`` at CSR slot ``e`` is just ``col[e+1 :
   row_end(u)]`` (neighbours of ``u`` beyond ``v``): matches must exceed
   ``v`` anyway, and for the last edge of a row no search is needed at all.
2. **Search-offset memoisation** — a thread handling several (ascending)
   queries of the same edge restarts its binary search from the previous
   hit position's lower bound instead of the table start.
3. **Search-table flipping** — the table defaults to the ``u`` side (shared
   by consecutive edges, so staged bounds are reused across the chunk);
   when ``v``'s list is dramatically shorter (32x, the empirical rule) the
   roles flip.

Phase 1 stages per-edge query/table bounds in shared memory; a
Hillis–Steele scan builds the work-list prefix; phase 2 is the strided
flat search.
"""

from __future__ import annotations

import numpy as np

from ..gpu.coop import group_inclusive_scan, scan_tmp_words
from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["GroupTC"]

#: empirical flip threshold of Section V, third optimisation
FLIP_RATIO = 32
#: packing factor for the (table start, table length) shared word
PACK = 1 << 21


def _grouptc_thread(ctx, m, chunk, esrc, col, row_ptr, out):
    """One thread of an edge-chunk block.

    Shared layout (word indices): ``prefix[chunk] | qoff[chunk] |
    tpack[chunk] | scan_tmp``.  ``prefix`` is the inclusive scan of the
    per-edge query counts; ``qoff[i]`` holds ``q_start - exclusive_prefix``
    so a work item's query address is one shared load (``qoff[i] + o``);
    ``tpack`` packs the table start and length into one word (the 8-byte
    vectorised load the CUDA kernel uses).
    """
    t = ctx.tid_in_block
    pf_base = 0
    qo_base = chunk
    tp_base = 2 * chunk
    tmp_base = 3 * chunk
    e = ctx.block * chunk + t
    # --- phase 1: stage this edge's query/table bounds.
    qlen = 0
    q_start = t_start = t_len = 0
    if e < m:
        u = yield ("g", "eu", esrc, e)
        v = yield ("g", "ev", col, e)
        ue = yield ("g", "rpu1", row_ptr, u + 1)
        vs = yield ("g", "rpv", row_ptr, v)
        ve = yield ("g", "rpv1", row_ptr, v + 1)
        # Optimisation 1: the u-side table is the tail of u's row.
        u_start, u_len = e + 1, ue - (e + 1)
        v_start, v_len = vs, ve - vs
        if u_len and v_len:
            # Optimisation 3: flip when v's list is dramatically shorter.
            if v_len * FLIP_RATIO < u_len:
                q_start, qlen, t_start, t_len = u_start, u_len, v_start, v_len
            else:
                q_start, qlen, t_start, t_len = v_start, v_len, u_start, u_len
    incl, total = yield from group_inclusive_scan(t, chunk, qlen, tmp_base, ("y",))
    yield ("ss", "st_p", pf_base + t, incl)
    yield ("ss", "st_q", qo_base + t, q_start - (incl - qlen))
    yield ("ss", "st_t", tp_base + t, t_start * PACK + t_len)
    yield ("y",)
    # --- phase 2: strided flat binary search over the chunk's work list.
    tc = 0
    o = t
    memo_edge = -1
    memo_lo = 0
    while o < total:
        # Find the owning edge: first i with prefix[i] > o, by binary
        # search over the shared prefix array.  Every lane searches at the
        # same depth simultaneously, so the loop stays warp-aligned (the
        # prefix walk a naive kernel would do serialises lanes instead).
        lo_e, hi_e = 0, chunk
        while lo_e < hi_e:
            mid = (lo_e + hi_e) // 2
            pf = yield ("s", "find", pf_base + mid)
            if pf <= o:
                lo_e = mid + 1
            else:
                hi_e = mid
        edge_i = lo_e
        qoff = yield ("s", "ld_q", qo_base + edge_i)
        tpack = yield ("s", "ld_t", tp_base + edge_i)
        t_start = tpack // PACK
        t_len = tpack % PACK
        key = yield ("g", "query", col, qoff + o)
        # Optimisation 2: resume the search range from the last position
        # found for this edge (queries arrive in ascending order).
        lo = memo_lo if edge_i == memo_edge else 0
        hi = t_len
        while lo < hi:
            mid = (lo + hi) // 2
            val = yield ("g", "probe", col, t_start + mid)
            if val == key:
                tc += 1
                lo = mid + 1
                break
            if val < key:
                lo = mid + 1
            else:
                hi = mid
        memo_edge = edge_i
        memo_lo = lo if lo < t_len else 0
        if memo_lo == 0:
            memo_edge = -1
        o += chunk
    yield ("ga", "acc", out, 0, tc)


@register
class GroupTC(TCAlgorithm):
    """Edge-chunk binary-search algorithm proposed by the paper."""

    name = "GroupTC"
    year = 2024
    iterator = "edge"
    intersection = "binary-search"
    granularity = "fine"
    reference = "this paper, Section V"

    block_dim = 256  # chunk size n: one block computes n consecutive edges

    def count_structural(self, csr: CSRGraph) -> int:
        """Follow the kernel: tail-of-row tables, flip rule, binary search."""
        total = 0
        esrc = csr.edge_sources()
        for e in range(csr.m):
            u = int(esrc[e])
            ue = int(csr.row_ptr[u + 1])
            table = csr.col[e + 1 : ue]
            queries = csr.neighbors(int(csr.col[e]))
            if table.shape[0] == 0 or queries.shape[0] == 0:
                continue
            if queries.shape[0] * FLIP_RATIO < table.shape[0]:
                table, queries = queries, table
            pos = np.searchsorted(table, queries)
            pos = np.clip(pos, 0, table.shape[0] - 1)
            total += int(np.count_nonzero(table[pos] == queries))
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
        chunk = self.config.get("chunk", self.block_dim)
        grid = max(1, -(-csr.m // chunk))
        launch_kernel(
            device,
            _grouptc_thread,
            grid_dim=grid,
            block_dim=chunk,
            args=(csr.m, chunk, bufs.esrc, bufs.col, bufs.row_ptr, bufs.out),
            shared_words=3 * chunk + scan_tmp_words(chunk),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out
