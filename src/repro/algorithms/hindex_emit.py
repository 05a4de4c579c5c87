"""Array emitter for H-INDEX's kernel (see :mod:`repro.gpu.emit`).

Each warp hashes into its own slice of shared memory and spills to its own
slice of the global workspace, and it syncs only with ``__syncwarp``, so
the lockstep kit records it exactly.  ``i`` holds the hashed list's start
and ``q`` the query list's start until the warp syncs that open the build
and the probe add the lane.
"""

from __future__ import annotations

import numpy as np

from ..gpu.emit import WSYNC, EdgeLanes, Sites, emitter, sectors
from ..gpu.engine import register_emitter
from .hindex import NUM_BUCKETS, SHARED_DEPTH, _hindex_thread

__all__ = ["emit_hindex_launch"]

SITES = Sites(
    _hindex_thread,
    *EdgeLanes.PROLOGUE,
    WSYNC, ("ss", "hclr"), WSYNC,
    ("g", "hsrc"), ("sa", "hlen"), ("ss", "hstore"), ("gs", "hspill"), WSYNC,
    ("g", "query"), ("s", "plen"), ("s", "probeS"), ("g", "probeG"), ("ga", "acc"),
)
W1, HCLR, W2, HSRC, HLEN, HSTORE, HSPILL, W3, QUERY, PLEN, PROBE_S, PROBE_G = range(6, 18)


class HIndexLanes(EdgeLanes):
    SITES = SITES
    REGS = EdgeLanes.REGS + (
        "lb", "spb", "i", "hend", "q", "qend", "x", "slot", "fill", "key", "lw", "sw", "pw",
    )
    STRAIGHT = EdgeLanes.STRAIGHT + ((W1, 2), (W2, 3), (HSRC, 2), (QUERY, 2))

    def unpack(self, args):
        m, warp_slots, self.spill_depth, col, row_ptr, esrc, self.spill, out = args
        return m, warp_slots, esrc, col, row_ptr, out

    def start(self):
        # Shared layout per warp: len[32] then slots[SHARED_DEPTH][32] row-major.
        self.lb[:] = (self.tib // self.GROUP) * (NUM_BUCKETS * (1 + SHARED_DEPTH))
        self.spb[:] = (self.tid // self.GROUP) * self.spill_depth * NUM_BUCKETS
        return super().start()

    def edge_ready(self, sub) -> None:
        us, vs = self.us[sub], self.vs[sub]
        du, dv = self.ue[sub] - us, self.ve[sub] - vs
        hash_u = du <= dv  # the shorter list is hashed
        go = np.minimum(du, dv) != 0
        self.next_edge(sub[~go])
        s = sub[go]
        if s.size:
            hash_u, du, dv, us, vs = hash_u[go], du[go], dv[go], us[go], vs[go]
            hs = np.where(hash_u, us, vs)
            qs = np.where(hash_u, vs, us)
            self.i[s] = hs
            self.hend[s] = hs + np.where(hash_u, du, dv)
            self.q[s] = qs
            self.qend[s] = qs + np.where(hash_u, dv, du)
            self.site[s] = W1

    def next_key(self, sub) -> None:
        """``while i < hs + hlen`` of the build."""
        go = self.i[sub] < self.hend[sub]
        self.site[sub] = np.where(go, HSRC, W3)

    def next_query(self, sub) -> None:
        if not sub.size:
            return
        go = self.q[sub] < self.qend[sub]
        self.site[sub[go]] = QUERY
        self.next_edge(sub[~go])

    def next_slot(self, sub) -> None:
        """``while slot < fill`` of one query's bucket scan."""
        if not sub.size:
            return
        slot = self.slot[sub]
        go = slot < self.fill[sub]
        if not go.all():
            s = sub[~go]
            self.q[s] += 32
            self.next_query(s)
            sub, slot = sub[go], slot[go]
        self.site[sub] = np.where(slot < SHARED_DEPTH, PROBE_S, PROBE_G)

    def bucket(self, sub, value) -> None:
        """Bucket ``b`` of ``value``: its fill word ``lw``, and ``sw``/``pw``
        with ``slot * 32`` added give its shared slot and spill index."""
        b = value % NUM_BUCKETS
        lw = self.lb[sub] + b
        self.lw[sub] = lw
        self.sw[sub] = lw + NUM_BUCKETS
        self.pw[sub] = self.spb[sub] + b - SHARED_DEPTH * NUM_BUCKETS

    def compare(self, sub, val) -> None:
        eq = val == self.key[sub]
        if eq.any():
            self.tc[sub] += eq
            s = sub[eq]
            self.q[s] += 32
            self.next_query(s)
            sub = sub[~eq]
        self.slot[sub] += 1
        self.next_slot(sub)

    def issue(self, site, sub):
        col = self.col
        if site < W1:
            return self.prologue(site, sub)
        if site == W1:
            self.site[sub] = np.where(self.lane[sub] < NUM_BUCKETS, HCLR, W2)
            return None
        if site == HCLR:
            idx = self.lb[sub] + self.lane[sub]
            self.shared_store(sub, idx, 0)
            self.site[sub] = W2
            return idx
        if site == W2:
            self.i[sub] += self.lane[sub]
            self.next_key(sub)
            return None
        if site == HSRC:
            idx = self.i[sub]
            x = col.data[idx]
            self.x[sub] = x
            self.bucket(sub, x)
            self.site[sub] = HLEN
            return sectors(col, idx)
        if site == HLEN:
            idx = self.lw[sub]
            slot = self.shared_add(sub, idx, 1)
            self.slot[sub] = slot
            self.site[sub] = np.where(slot < SHARED_DEPTH, HSTORE, HSPILL)
            return idx
        if site == HSTORE or site == HSPILL:
            offset = self.slot[sub] * NUM_BUCKETS
            if site == HSTORE:
                pay = self.sw[sub] + offset
                self.shared_store(sub, pay, self.x[sub])
            else:
                pay = self.global_store(sub, self.spill, self.pw[sub] + offset, self.x[sub])
            self.i[sub] += 32
            self.next_key(sub)
            return pay
        if site == W3:
            self.q[sub] += self.lane[sub]
            self.next_query(sub)
            return None
        if site == QUERY:
            idx = self.q[sub]
            key = col.data[idx]
            self.key[sub] = key
            self.bucket(sub, key)
            self.site[sub] = PLEN
            return sectors(col, idx)
        if site == PLEN:
            idx = self.lw[sub]
            self.fill[sub] = self.shared_load(sub, idx)
            self.slot[sub] = 0
            self.next_slot(sub)
            return idx
        if site == PROBE_S:
            idx = self.sw[sub] + self.slot[sub] * NUM_BUCKETS
            self.compare(sub, self.shared_load(sub, idx))
            return idx
        if site == PROBE_G:
            idx = self.pw[sub] + self.slot[sub] * NUM_BUCKETS
            self.compare(sub, self.spill.data[idx])
            return sectors(self.spill, idx)
        return self.finish(sub)


emit_hindex_launch = emitter(HIndexLanes)
register_emitter(_hindex_thread, emit_hindex_launch)
