"""Array emitter for Green's kernel (see :mod:`repro.gpu.emit`).

Green's Merge-Path kernel only loads from read-only arrays and ends with
one atomic per lane, so the lockstep kit records it exactly.  The
Merge-Path search keeps absolute positions into ``col``: ``lo``/``hi``/
``mid`` are the kernel's plus ``us``, and ``k`` is ``us + vs + diag_lo - 1``
(the B-side probe is ``k - mid``); the merge keeps ``pa = us + i`` and
``pb = vs + j``.
"""

from __future__ import annotations

import numpy as np

from ..gpu.emit import EdgeLanes, Sites, emitter, sectors
from ..gpu.engine import register_emitter
from .green import _green_thread

__all__ = ["emit_green_launch"]

SITES = Sites(
    _green_thread,
    *EdgeLanes.PROLOGUE,
    ("g", "mpA"), ("g", "mpB"), ("g", "nu"), ("g", "nv"), ("ga", "acc"),
)
MPA, MPB, NU, NV = range(6, 10)


class GreenLanes(EdgeLanes):
    SITES = SITES
    REGS = EdgeLanes.REGS + ("lo", "hi", "mid", "k", "budget", "pa", "pb", "av")
    STRAIGHT = EdgeLanes.STRAIGHT + ((MPA, 2), (NU, 2))

    def unpack(self, args):
        return args

    def edge_ready(self, sub) -> None:
        us = self.us[sub]
        vs = self.vs[sub]
        la = self.ue[sub] - us
        lb = self.ve[sub] - vs
        both = (la != 0) & (lb != 0)
        self.next_edge(sub[~both])
        s, la, lb, us, vs = sub[both], la[both], lb[both], us[both], vs[both]
        total = la + lb
        lane = self.lane[s]
        diag_lo = total * lane // self.GROUP
        self.budget[s] = total * (lane + 1) // self.GROUP - diag_lo
        self.k[s] = us + vs + diag_lo - 1
        self.search(s, us + np.maximum(0, diag_lo - lb), us + np.minimum(diag_lo, la))

    def search(self, sub, lo, hi) -> None:
        """``while lo < hi`` of the diagonal search, then the merge set-up."""
        go = lo < hi
        s = sub[go]
        self.lo[s] = lo[go]
        self.hi[s] = hi[go]
        self.mid[s] = (lo[go] + hi[go]) >> 1
        self.site[s] = MPA
        stop = ~go
        s = sub[stop]
        lo = lo[stop]
        self.merge(s, lo, self.k[s] + 1 - lo, self.budget[s])

    def merge(self, sub, pa, pb, budget) -> None:
        """``while budget > 0 and i < la and j < lb`` of the slice merge."""
        self.pa[sub] = pa
        self.pb[sub] = pb
        self.budget[sub] = budget
        go = (budget > 0) & (pa < self.ue[sub]) & (pb < self.ve[sub])
        self.site[sub[go]] = NU
        self.next_edge(sub[~go])

    def issue(self, site, sub):
        col = self.col
        if site < MPA:
            return self.prologue(site, sub)
        if site == MPA:
            idx = self.mid[sub]
            self.av[sub] = col.data[idx]
            self.site[sub] = MPB
        elif site == MPB:
            mid = self.mid[sub]
            idx = self.k[sub] - mid
            le = self.av[sub] <= col.data[idx]
            self.search(sub, np.where(le, mid + 1, self.lo[sub]), np.where(le, self.hi[sub], mid))
        elif site == NU:
            idx = self.pa[sub]
            self.av[sub] = col.data[idx]
            self.site[sub] = NV
        elif site == NV:
            idx = self.pb[sub]
            a = self.av[sub]
            b = col.data[idx]
            lt = a < b
            gt = b < a
            eq = ~(lt | gt)
            self.tc[sub] += eq
            self.merge(sub, self.pa[sub] + ~gt, self.pb[sub] + ~lt, self.budget[sub] - 1 - eq)
        else:
            return self.finish(sub)
        return sectors(col, idx)


emit_green_launch = emitter(GreenLanes)
register_emitter(_green_thread, emit_green_launch)
