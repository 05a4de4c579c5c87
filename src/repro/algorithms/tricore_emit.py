"""Array emitters for TriCore's two kernels (see :mod:`repro.gpu.emit`).

The counting kernel keeps each warp's heap top in its own slice of shared
memory and syncs only with ``__syncwarp``, so the lockstep kit records it
exactly; so does the streaming stage, whose lanes each copy one edge.  In
the counting kernel ``mid`` holds the staged node's array position while
a lane stages, and ``q`` holds the query list's start until the second
warp sync adds the lane.
"""

from __future__ import annotations

import numpy as np

from ..gpu.emit import WSYNC, EdgeLanes, Lanes, Sites, emitter, sectors
from ..gpu.engine import register_emitter
from .tricore import _stream_thread, _tricore_thread

__all__ = ["emit_stream_launch", "emit_tricore_launch", "heap_positions"]

SITES = Sites(
    _tricore_thread,
    *EdgeLanes.PROLOGUE,
    WSYNC, ("g", "tree"), ("ss", "treeS"), WSYNC,
    ("g", "query"), ("s", "probeS"), ("g", "probeG"), ("ga", "acc"),
)
W1, TREE, TREE_S, W2, QUERY, PROBE_S, PROBE_G = range(6, 13)


def heap_positions(h: np.ndarray, length: np.ndarray) -> np.ndarray:
    """:func:`~repro.algorithms.tricore.heap_to_array_index` of every
    ``(h, length)`` pair at once (``h >= 1``), by walking each path from
    the root.  An empty interval stays empty down the path, so it is only
    checked at the end."""
    depth = np.frexp(h.astype(np.float64))[1] - 1  # h.bit_length() - 1
    lo = np.zeros_like(h)
    hi = np.asarray(length, dtype=np.int64).copy()
    for shift in range(int(depth.max(initial=0)) - 1, -1, -1):
        mid = (lo + hi) >> 1
        turn = (h >> shift) & 1
        walk = shift < depth
        lo = np.where(walk & (turn == 1), mid + 1, lo)
        hi = np.where(walk & (turn == 0), mid, hi)
    return np.where(lo >= hi, -1, (lo + hi) >> 1)


class TriCoreLanes(EdgeLanes):
    SITES = SITES
    REGS = EdgeLanes.REGS + (
        "hb", "ts", "tlen", "q", "qend", "cached", "h", "lo", "hi", "mid", "key", "val",
    )
    STRAIGHT = EdgeLanes.STRAIGHT + ((W1, 3),)

    def unpack(self, args):
        m, warp_slots, self.cache_nodes, esrc, col, row_ptr, out = args
        return m, warp_slots, esrc, col, row_ptr, out

    def start(self):
        self.hb[:] = (self.tib // self.GROUP) * self.cache_nodes - 1  # word of node h: hb + h
        return super().start()

    def edge_ready(self, sub) -> None:
        us, vs = self.us[sub], self.vs[sub]
        du, dv = self.ue[sub] - us, self.ve[sub] - vs
        tree_u = du >= dv  # the longer list becomes the search tree
        go = np.minimum(du, dv) != 0
        self.next_edge(sub[~go])
        s = sub[go]
        if s.size:
            tree_u, du, dv, us, vs = tree_u[go], du[go], dv[go], us[go], vs[go]
            self.ts[s] = np.where(tree_u, us, vs)
            self.tlen[s] = np.where(tree_u, du, dv)
            qs = np.where(tree_u, vs, us)
            self.q[s] = qs
            self.qend[s] = qs + np.where(tree_u, dv, du)
            self.site[s] = W1

    def stage(self, sub, h, cached) -> None:
        """``while h <= cached`` of the staging loop, skipping empty nodes."""
        while sub.size:
            more = h <= cached
            self.site[sub[~more]] = W2
            sub, h, cached = sub[more], h[more], cached[more]
            pos = heap_positions(h, self.tlen[sub])
            ok = pos >= 0
            s = sub[ok]
            self.h[s] = h[ok]
            self.mid[s] = pos[ok]
            self.site[s] = TREE
            ok = ~ok
            sub, h, cached = sub[ok], h[ok] + 32, cached[ok]

    def next_query(self, sub) -> None:
        if not sub.size:
            return
        go = self.q[sub] < self.qend[sub]
        self.site[sub[go]] = QUERY
        self.next_edge(sub[~go])

    def probe(self, sub, lo, hi, h) -> None:
        """``while lo < hi`` of one query's search."""
        go = lo < hi
        if not go.all():
            s = sub[~go]
            self.q[s] += 32
            self.next_query(s)
            sub, lo, hi, h = sub[go], lo[go], hi[go], h[go]
        self.lo[sub] = lo
        self.hi[sub] = hi
        self.h[sub] = h
        self.mid[sub] = (lo + hi) >> 1
        self.site[sub] = np.where(h <= self.cached[sub], PROBE_S, PROBE_G)

    def compare(self, sub, val) -> None:
        key = self.key[sub]
        eq = val == key
        if eq.any():
            self.tc[sub] += eq
            s = sub[eq]
            self.q[s] += 32
            self.next_query(s)
            ne = ~eq
            sub, val, key = sub[ne], val[ne], key[ne]
            if not sub.size:
                return
        less = val < key
        mid = self.mid[sub]
        self.probe(
            sub,
            np.where(less, mid + 1, self.lo[sub]),
            np.where(less, self.hi[sub], mid),
            2 * self.h[sub] + less,
        )

    def issue(self, site, sub):
        col = self.col
        if site < W1:
            return self.prologue(site, sub)
        if site == W1:
            cached = np.minimum(self.cache_nodes, self.tlen[sub])
            self.cached[sub] = cached
            self.stage(sub, self.lane[sub] + 1, cached)
            return None
        if site == W2:
            self.q[sub] += self.lane[sub]
            self.next_query(sub)
            return None
        if site == TREE:
            idx = self.ts[sub] + self.mid[sub]
            self.val[sub] = col.data[idx]
            self.site[sub] = TREE_S
            return sectors(col, idx)
        if site == TREE_S:
            h = self.h[sub]
            idx = self.hb[sub] + h
            self.shared_store(sub, idx, self.val[sub])
            self.stage(sub, h + 32, self.cached[sub])
            return idx
        if site == QUERY:
            idx = self.q[sub]
            self.key[sub] = col.data[idx]
            ones = np.ones(sub.size, dtype=np.int64)
            self.probe(sub, ones - 1, self.tlen[sub], ones)
            return sectors(col, idx)
        if site == PROBE_S:
            idx = self.hb[sub] + self.h[sub]
            self.compare(sub, self.shared_load(sub, idx))
            return idx
        if site == PROBE_G:
            idx = self.ts[sub] + self.mid[sub]
            self.compare(sub, col.data[idx])
            return sectors(col, idx)
        return self.finish(sub)


STREAM_SITES = Sites(_stream_thread, ("g", "su"), ("g", "sv"), ("gs", "du"), ("gs", "dv"))
SU, SV, DU, DV = range(4)


class StreamLanes(Lanes):
    SITES = STREAM_SITES
    REGS = ("a", "b")

    def __init__(self, device, *, args, **launch):
        self.m, self.raw_u, self.raw_v, self.buf_u, self.buf_v = args
        super().__init__(device, args=args, **launch)

    def start(self):
        return np.where(self.tid < self.m, SU, STREAM_SITES.done)

    def issue(self, site, sub):
        idx = self.tid[sub]
        self.site[sub] = site + 1
        if site == SU:
            self.a[sub] = self.raw_u.data[idx]
            return sectors(self.raw_u, idx)
        if site == SV:
            self.b[sub] = self.raw_v.data[idx]
            return sectors(self.raw_v, idx)
        if site == DU:
            return self.global_store(sub, self.buf_u, idx, self.a[sub])
        return self.global_store(sub, self.buf_v, idx, self.b[sub])


emit_tricore_launch = emitter(TriCoreLanes)
emit_stream_launch = emitter(StreamLanes)
register_emitter(_tricore_thread, emit_tricore_launch)
register_emitter(_stream_thread, emit_stream_launch)
