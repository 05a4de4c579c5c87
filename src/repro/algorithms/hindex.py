"""H-INDEX (HPEC'19): edge-centric, hash intersection, one warp per edge.

Section III-G: per edge, the *shorter* neighbour list is hashed into a
fixed 32-bucket table (``len`` array plus row-order element storage, so the
j-th slot of all buckets is contiguous — Figure 9); the longer list's
members are the queries.  The first few slots of every bucket live in
shared memory, deeper slots spill to a per-warp global workspace.

Per Section IV (*Program configuration*), only the warp-per-edge
configuration is used (the block configuration of the released code
produces incorrect results).  With just 32 buckets, bucket chains grow
linearly with degree, so large high-degree datasets both slow down
(collision scans) and blow up the spill workspace — reproducing the
paper's observation that H-INDEX degrades or outright fails there.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..intersect.hashtable import FixedBucketHashTable
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["HIndex"]

NUM_BUCKETS = 32
#: slots per bucket kept in shared memory (the paper's "first few elements")
SHARED_DEPTH = 4


def _hindex_thread(ctx, m, warp_slots, spill_depth, col, row_ptr, esrc, spill, out):
    """One lane of a warp-per-edge hash build + probe."""
    lane = ctx.lane
    warp_slot = ctx.tid // 32
    warp_in_block = ctx.tid_in_block // 32
    # Shared layout per warp: len[32] then slots[SHARED_DEPTH][32] row-major.
    len_base = warp_in_block * (NUM_BUCKETS * (1 + SHARED_DEPTH))
    slot_base = len_base + NUM_BUCKETS
    spill_base = warp_slot * spill_depth * NUM_BUCKETS
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
        # Shorter list is hashed; longer list queries (Section III-G).
        if du <= dv:
            hs, hlen, qs, qlen = us, du, vs, dv
        else:
            hs, hlen, qs, qlen = vs, dv, us, du
        if hlen and qlen:
            yield ("w",)
            # --- reset bucket fills.
            if lane < NUM_BUCKETS:
                yield ("ss", "hclr", len_base + lane, 0)
            yield ("w",)
            # --- build: lanes stride the hashed list.
            i = hs + lane
            while i < hs + hlen:
                x = yield ("g", "hsrc", col, i)
                b = x % NUM_BUCKETS
                slot = yield ("sa", "hlen", len_base + b, 1)
                if slot < SHARED_DEPTH:
                    yield ("ss", "hstore", slot_base + slot * NUM_BUCKETS + b, x)
                else:
                    yield (
                        "gs",
                        "hspill",
                        spill,
                        spill_base + (slot - SHARED_DEPTH) * NUM_BUCKETS + b,
                        x,
                    )
                i += 32
            yield ("w",)
            # --- probe: lanes stride the query list (coalesced loads).
            q = qs + lane
            while q < qs + qlen:
                key = yield ("g", "query", col, q)
                b = key % NUM_BUCKETS
                fill = yield ("s", "plen", len_base + b)
                slot = 0
                while slot < fill:
                    if slot < SHARED_DEPTH:
                        val = yield ("s", "probeS", slot_base + slot * NUM_BUCKETS + b)
                    else:
                        val = yield (
                            "g",
                            "probeG",
                            spill,
                            spill_base + (slot - SHARED_DEPTH) * NUM_BUCKETS + b,
                        )
                    if val == key:
                        tc += 1
                        break
                    slot += 1
                q += 32
        edge += warp_slots
    yield ("ga", "acc", out, 0, tc)


@register
class HIndex(TCAlgorithm):
    """32-bucket hash edge-iterator with row-order storage."""

    name = "H-INDEX"
    year = 2019
    iterator = "edge"
    intersection = "hash"
    granularity = "fine"
    reference = "Pandey et al., HPEC 2019"

    block_dim = 256

    def count_structural(self, csr: CSRGraph) -> int:
        total = 0
        esrc = csr.edge_sources()
        for e in range(csr.m):
            a = csr.neighbors(int(esrc[e]))
            b = csr.neighbors(int(csr.col[e]))
            hashed, queries = (a, b) if a.shape[0] <= b.shape[0] else (b, a)
            table = FixedBucketHashTable(hashed, NUM_BUCKETS)
            total += table.intersect_count(queries)
        return total

    def _spill_depth(self, csr: CSRGraph) -> int:
        """Worst-case bucket fill beyond the shared slots, over all edges.

        The hashed list of an edge is the shorter side, so its length is at
        most the second-largest degree among adjacent vertices; the bucket
        chain can degenerate to the full list length.
        """
        if csr.m == 0:
            return 0
        import numpy as np

        deg = csr.degrees
        du = deg[csr.edge_sources()]
        dv = deg[csr.col]
        worst = int(np.minimum(du, dv).max())
        return max(0, worst - SHARED_DEPTH)

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
        edges_per_warp = self.config.get("edges_per_warp", 8)
        grid = max(1, -(-csr.m // (warps_per_block * edges_per_warp)))
        warp_slots = grid * warps_per_block
        spill_depth = self._spill_depth(csr)
        spill = gm.zeros("hindex_spill", max(1, warp_slots * spill_depth * NUM_BUCKETS))
        launch_kernel(
            device,
            _hindex_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(csr.m, warp_slots, spill_depth, bufs.col, bufs.row_ptr, bufs.esrc, spill, bufs.out),
            shared_words=warps_per_block * NUM_BUCKETS * (1 + SHARED_DEPTH),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out

    def device_footprint_bytes(
        self, n: int, m: int, max_degree: int, device: DeviceSpec
    ) -> int:
        base = super().device_footprint_bytes(n, m, max_degree, device)
        # Spill workspace for every warp slot of the full launch (the
        # released kernel indexes the workspace by global warp id, so the
        # allocation is grid-wide): the shorter side of a hub-hub edge can
        # approach the max degree, and each warp needs its own table.  This
        # is what blows up on large high-degree graphs — the paper's
        # "failure on large high-degree datasets".
        warp_slots = max(1, m // 8)
        spill_words = warp_slots * max(0, max_degree - SHARED_DEPTH)
        return base + spill_words * 4