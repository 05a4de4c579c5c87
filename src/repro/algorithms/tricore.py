"""TriCore (SC'18): edge-centric, binary search, one warp per edge.

Section III-D: for each edge the longer neighbour list becomes a binary
search tree and every member of the shorter list is a query, processed by
the lanes of one warp in a stride (coalesced query loads).  The top levels
of the tree are staged in shared memory; probes below the cached levels go
to global memory.

The tree is the implicit heap over the sorted adjacency slice: heap node
``h`` (1-based, level order) is the midpoint of the search interval reached
by the probe path encoded in ``h``'s bits, so probe depth ``k`` hits heap
nodes ``2^k .. 2^{k+1}-1``.  Caching the first ``cache_nodes`` heap nodes
therefore serves the first ``log2(cache_nodes)`` probes of *every* search
from shared memory — the paper's "as many top levels ... as allowed by
shared memory size".

The per-edge tree staging is pure overhead when lists are short, which is
exactly why TriCore trails on small low-degree datasets but leads on large
high-degree ones (Section IV-A).
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..intersect.binsearch import binsearch_intersect_count
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["TriCore", "heap_to_array_index"]


def heap_to_array_index(h: int, length: int) -> int:
    """Array position of heap node ``h`` over a sorted array of ``length``.

    Walks ``h``'s binary representation below its leading bit: 0 = left
    half, 1 = right half, returning the midpoint of the final interval.
    Returns -1 when the node's interval is empty (heap larger than array).
    """
    lo, hi = 0, length
    if h < 1:
        raise ValueError("heap nodes are 1-based")
    bits = h.bit_length() - 1
    for shift in range(bits - 1, -1, -1):
        if lo >= hi:
            return -1
        mid = (lo + hi) // 2
        if (h >> shift) & 1:
            lo = mid + 1
        else:
            hi = mid
    if lo >= hi:
        return -1
    return (lo + hi) // 2


def _stream_thread(ctx, m, raw_u, raw_v, buf_u, buf_v):
    """Binary-edge-list streaming stage of TriCore's pipeline.

    TriCore consumes a binary edge list through a chunked host-to-device
    streaming pipeline; on the device side every edge is read from the
    staging buffer and written into the working buffers before counting.
    """
    tid = ctx.tid
    if tid >= m:
        return
    a = yield ("g", "su", raw_u, tid)
    b = yield ("g", "sv", raw_v, tid)
    yield ("gs", "du", buf_u, tid, a)
    yield ("gs", "dv", buf_v, tid, b)


def _tricore_thread(ctx, m, warp_slots, cache_nodes, esrc, col, row_ptr, out):
    """One lane of a warp; edges picked up in a grid stride."""
    lane = ctx.lane
    warp_slot = ctx.tid // 32
    warps_per_block = ctx.block_dim // 32
    heap_base = (ctx.tid_in_block // 32) * cache_nodes
    tc = 0
    edge = warp_slot
    while edge < m:
        u = yield ("g", "eu", esrc, edge)
        v = yield ("g", "ev", col, edge)
        us = yield ("g", "rpu", row_ptr, u)
        ue = yield ("g", "rpu1", row_ptr, u + 1)
        vs = yield ("g", "rpv", row_ptr, v)
        ve = yield ("g", "rpv1", row_ptr, v + 1)
        du = ue - us
        dv = ve - vs
        # Longer list becomes the search tree.
        if du >= dv:
            ts, tlen, qs, qlen = us, du, vs, dv
        else:
            ts, tlen, qs, qlen = vs, dv, us, du
        if tlen and qlen:
            # --- stage the top heap nodes of the tree in shared memory.
            # Warp barriers bracket the staging: no lane may still be probing
            # the previous edge's tree, and no lane may probe before the
            # stage completes.
            yield ("w",)
            cached = min(cache_nodes, tlen)
            h = lane + 1
            while h <= cached:
                pos = heap_to_array_index(h, tlen)
                if pos >= 0:
                    val = yield ("g", "tree", col, ts + pos)
                    yield ("ss", "treeS", heap_base + h - 1, val)
                h += 32
            yield ("w",)
            # --- strided queries, heap-path binary search.
            q = qs + lane
            while q < qs + qlen:
                key = yield ("g", "query", col, q)
                lo, hi = 0, tlen
                h = 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if h <= cached:
                        val = yield ("s", "probeS", heap_base + h - 1)
                    else:
                        val = yield ("g", "probeG", col, ts + mid)
                    if val == key:
                        tc += 1
                        break
                    if val < key:
                        lo = mid + 1
                        h = 2 * h + 1
                    else:
                        hi = mid
                        h = 2 * h
                q += 32
        edge += warp_slots
    yield ("ga", "acc", out, 0, tc)


@register
class TriCore(TCAlgorithm):
    """Binary-search edge-iterator, one warp per edge, tree top in shared."""

    name = "TriCore"
    year = 2018
    iterator = "edge"
    intersection = "binary-search"
    granularity = "fine"
    reference = "Hu, Liu & Huang, SC 2018"

    block_dim = 256

    def count_structural(self, csr: CSRGraph) -> int:
        total = 0
        esrc = csr.edge_sources()
        for e in range(csr.m):
            a = csr.neighbors(int(esrc[e]))
            b = csr.neighbors(int(csr.col[e]))
            table, queries = (a, b) if a.shape[0] >= b.shape[0] else (b, a)
            total += binsearch_intersect_count(table, queries)
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
        warps_per_block = block_dim // 32
        # Shared budget per warp decides how many heap nodes are cached.
        words_per_warp = device.shared_mem_per_block // 4 // warps_per_block
        cache_nodes = self.config.get("cache_nodes")
        if cache_nodes is None:
            cache_nodes = min(1023, (1 << max(words_per_warp.bit_length() - 1, 0)) - 1)
        edges_per_warp = self.config.get("edges_per_warp", 8)
        grid = max(1, -(-csr.m // (warps_per_block * edges_per_warp)))
        warp_slots = grid * warps_per_block
        # Streaming stage: the binary edge list lands in working buffers.
        buf_u = gm.zeros("stream_u", max(csr.m, 1))
        buf_v = gm.zeros("stream_v", max(csr.m, 1))
        launch_kernel(
            device,
            _stream_thread,
            grid_dim=max(1, -(-csr.m // block_dim)),
            block_dim=block_dim,
            args=(csr.m, bufs.esrc, bufs.col, buf_u, buf_v),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        launch_kernel(
            device,
            _tricore_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(csr.m, warp_slots, cache_nodes, bufs.esrc, bufs.col, bufs.row_ptr, bufs.out),
            shared_words=cache_nodes * warps_per_block,
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out
