"""TRUST (TPDS'21): vertex-centric, hash intersection, degree-tiered.

Section III-H: TRUST combines Hu's fine-grained 2-hop distribution with
H-INDEX's hash tables.  Per vertex ``u`` a hash table over ``N(u)`` is
built in shared memory, then every 2-hop neighbour probes it.  A heuristic
resolves workload imbalance:

* out-degree > 100 — a 1024-thread block per vertex, 1024 hash buckets;
* out-degree 2..100 — a 32-thread warp per vertex, 32 hash buckets;
* out-degree < 2 — skipped (cannot root a triangle).

A cheap classification kernel partitions the vertices first (one pass over
``row_ptr``), then one launch per tier.  Strided builds and probes keep
loads coalesced and lanes busy, giving TRUST the top warp execution
efficiency and memory efficiency of the study — and the hash build
overhead that costs it the lead on small datasets (Section V).
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.kernel import launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..intersect.hashtable import FixedBucketHashTable
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["TRUST"]

#: Section III-H degree thresholds
BLOCK_DEGREE = 100
MIN_DEGREE = 2



def _classify_thread(ctx, n, row_ptr, klass):
    """Tier-classification kernel: 0 = skip, 1 = warp, 2 = block."""
    u = ctx.tid
    if u >= n:
        return
    s = yield ("g", "rp", row_ptr, u)
    e = yield ("g", "rp1", row_ptr, u + 1)
    d = e - s
    tier = 0 if d < MIN_DEGREE else (2 if d > BLOCK_DEGREE else 1)
    yield ("gs", "klass", klass, u, tier)


def _trust_thread(ctx, verts, group, num_buckets, depth_cap, col, row_ptr, spill, spill_depth, out):
    """One lane processing its tier's vertices; ``group`` lanes per vertex.

    Shared layout per sub-group: ``len[num_buckets]`` | row-major slots
    ``[depth_cap][num_buckets]``.  Overflow beyond ``depth_cap`` spills to
    a per-sub-group global workspace.

    The probe phase is fine-grained: for every wedge source ``w`` the
    lanes stride ``N(w)`` together (coalesced 2-hop reads) and each query
    is an O(1) hash probe in shared memory — combined with the degree tier
    that matches the group width to the typical list length, this is what
    gives TRUST the study's best efficiency profile.
    """
    sub = ctx.tid_in_block // group
    lane = ctx.tid_in_block % group
    subs_per_block = ctx.block_dim // group
    vid = ctx.block * subs_per_block + sub
    table_words = num_buckets * (1 + depth_cap)
    len_base = sub * table_words
    slot_base = len_base + num_buckets
    gslot = (ctx.block * subs_per_block + sub) % max(len(spill.data) // max(spill_depth * num_buckets, 1), 1)
    spill_base = gslot * spill_depth * num_buckets
    sync = ("w",) if group == 32 else ("y",)
    tc = 0
    if vid < len(verts.data):
        u = yield ("g", "vid", verts, vid)
        us = yield ("g", "rpu", row_ptr, u)
        ue = yield ("g", "rpu1", row_ptr, u + 1)
        if ue - us >= MIN_DEGREE:
            # --- reset bucket fills.
            b = lane
            while b < num_buckets:
                yield ("ss", "hclr", len_base + b, 0)
                b += group
            yield sync
            # --- build the hash table over N(u) (strided, coalesced).
            i = us + lane
            while i < ue:
                x = yield ("g", "build", col, i)
                b = x % num_buckets
                slot = yield ("sa", "hlen", len_base + b, 1)
                if slot < depth_cap:
                    yield ("ss", "hstore", slot_base + slot * num_buckets + b, x)
                else:
                    yield ("gs", "hspill", spill, spill_base + (slot - depth_cap) * num_buckets + b, x)
                i += group
            yield sync
            # --- probe: every 2-hop neighbour queries the hash table.  The
            # sub-group walks the wedge sources together; for each source
            # ``w`` the lanes stride ``N(w)`` (coalesced, and with the
            # degree-tier heuristic matching ``group`` to the typical
            # ``d(w)``, most lanes stay busy — the balanced fine-grained
            # distribution of Figure 10).
            if group == 32:
                # Warp tier: metadata for 32 wedge sources is gathered
                # cooperatively (three coalesced requests) and exchanged
                # through register shuffles — the __ldg/__shfl idiom of the
                # released kernel — so the per-source loop issues no scalar
                # metadata loads at all.
                base = us
                while base < ue:
                    cn = min(group, ue - base)
                    ws_l = we_l = 0
                    if lane < cn:
                        w = yield ("g", "hop1", col, base + lane)
                        ws_l = yield ("g", "rpw", row_ptr, w)
                        we_l = yield ("g", "rpw1", row_ptr, w + 1)
                    meta = yield ("bc", "wmeta", (ws_l, we_l))
                    for k in range(cn):
                        ws_k, we_k = meta[k]
                        j = ws_k + lane
                        while j < we_k:
                            key = yield ("g", "hop2", col, j)
                            b = key % num_buckets
                            fill = yield ("s", "plen", len_base + b)
                            slot = 0
                            while slot < fill:
                                if slot < depth_cap:
                                    val = yield ("s", "probeS", slot_base + slot * num_buckets + b)
                                else:
                                    val = yield ("g", "probeG", spill, spill_base + (slot - depth_cap) * num_buckets + b)
                                if val == key:
                                    tc += 1
                                    break
                                slot += 1
                            j += group
                    base += group
            else:
                # Block tier (hub vertices): warps cannot shuffle across the
                # block, so each wedge source's bounds are read directly.
                for wi in range(us, ue):
                    w = yield ("g", "hop1", col, wi)
                    ws = yield ("g", "rpw", row_ptr, w)
                    we = yield ("g", "rpw1", row_ptr, w + 1)
                    j = ws + lane
                    while j < we:
                        key = yield ("g", "hop2", col, j)
                        b = key % num_buckets
                        fill = yield ("s", "plen", len_base + b)
                        slot = 0
                        while slot < fill:
                            if slot < depth_cap:
                                val = yield ("s", "probeS", slot_base + slot * num_buckets + b)
                            else:
                                val = yield ("g", "probeG", spill, spill_base + (slot - depth_cap) * num_buckets + b)
                            if val == key:
                                tc += 1
                                break
                            slot += 1
                        j += group
    yield ("ga", "acc", out, 0, tc)


@register
class TRUST(TCAlgorithm):
    """Degree-tiered hash vertex-iterator (the study's large-graph champion)."""

    name = "TRUST"
    year = 2021
    iterator = "vertex"
    intersection = "hash"
    granularity = "fine"
    reference = "Pandey et al., TPDS 2021"

    block_dim = 256

    def count_structural(self, csr: CSRGraph) -> int:
        total = 0
        for u in range(csr.n):
            nbrs = csr.neighbors(u)
            if nbrs.shape[0] < MIN_DEGREE:
                continue
            buckets = 1024 if nbrs.shape[0] > BLOCK_DEGREE else 32
            table = FixedBucketHashTable(nbrs, buckets)
            for w in nbrs:
                total += table.intersect_count(csr.neighbors(int(w)))
        # Degree-0/1 vertices contribute no wedges rooted at them, but their
        # absence from the loop above is already count-neutral.
        return total

    def tiers(self, csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        """Vertex ids of the (warp, block) tiers, host mirror of classify."""
        deg = csr.degrees
        warp_v = np.where((deg >= MIN_DEGREE) & (deg <= BLOCK_DEGREE))[0]
        block_v = np.where(deg > BLOCK_DEGREE)[0]
        return warp_v.astype(np.int64), block_v.astype(np.int64)

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
        n = csr.n
        klass = gm.zeros("klass", max(n, 1))
        launch_kernel(
            device,
            _classify_thread,
            grid_dim=max(1, -(-n // 256)),
            block_dim=256,
            args=(n, bufs.row_ptr, klass),
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        warp_v, block_v = self.tiers(csr)
        deg = csr.degrees
        smem_words = device.shared_mem_per_block // 4

        # --- warp tier: 32 buckets, 8 sub-groups per 256-thread block.
        if warp_v.shape[0]:
            verts = gm.alloc("warp_verts", warp_v)
            subs = self.config.get("block_dim", self.block_dim) // 32
            depth_cap = min(8, (smem_words // subs - 32) // 32)
            worst = int(deg[warp_v].max())
            spill_depth = max(0, worst - depth_cap)
            slots = max(1, min(len(warp_v), device.sm_count * device.max_resident_warps_per_sm))
            spill = gm.zeros("trust_warp_spill", max(1, slots * spill_depth * 32))
            grid = max(1, -(-warp_v.shape[0] // subs))
            launch_kernel(
                device,
                _trust_thread,
                grid_dim=grid,
                block_dim=subs * 32,
                args=(verts, 32, 32, depth_cap, bufs.col, bufs.row_ptr, spill, spill_depth, bufs.out),
                shared_words=subs * 32 * (1 + depth_cap),
                metrics=metrics,
                max_blocks_simulated=max_blocks_simulated,
            )
        # --- block tier: 1024 threads and 1024 buckets per vertex.
        if block_v.shape[0]:
            verts = gm.alloc("block_verts", block_v)
            block_threads = min(1024, device.max_threads_per_block)
            depth_cap = max(1, min(8, smem_words // 1024 - 1))
            worst = int(deg[block_v].max())
            spill_depth = max(0, -(-worst // 1024) + 2)
            slots = max(1, min(len(block_v), device.sm_count * 2))
            spill = gm.zeros("trust_block_spill", max(1, slots * spill_depth * 1024))
            launch_kernel(
                device,
                _trust_thread,
                grid_dim=block_v.shape[0],
                block_dim=block_threads,
                args=(verts, block_threads, 1024, depth_cap, bufs.col, bufs.row_ptr, spill, spill_depth, bufs.out),
                shared_words=1024 * (1 + depth_cap),
                metrics=metrics,
                max_blocks_simulated=max_blocks_simulated,
            )
        return bufs.out

    def device_footprint_bytes(
        self, n: int, m: int, max_degree: int, device: DeviceSpec
    ) -> int:
        # Vertex iterator: CSR, tier lists, classification array; hash
        # tables live in shared memory with modest global spill pools.
        base = (n + 1 + m) * 4 + 8 + 2 * n * 4
        spill = device.sm_count * 2 * max(0, max_degree) * 4
        return base + spill
