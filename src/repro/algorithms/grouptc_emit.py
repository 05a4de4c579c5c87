"""Array emitter for GroupTC's kernel (see :mod:`repro.gpu.emit`).

A block of ``chunk`` lanes stages one edge per lane, scans the query
counts with :func:`repro.gpu.coop.group_inclusive_scan` (its yields are
the sites of a :class:`~repro.gpu.emit.Delegate`, on ``coop.py``'s
lines), stages each edge's bounds in shared memory, and after the last
barrier searches its work list.  Each phase writes only shared words
that later phases read, so the block's warps may run side by side.  Both
binary searches -- over the staged prefix (``find``) and over the edge's
table (``probe``) -- are loops whose trips are known ahead: the prefix
and ``col`` no longer change.

Register ``x`` is an edge's ``u``, then its ``ue``, then the search key;
``ts`` is ``vs`` until the edge's bounds are staged.
"""

from __future__ import annotations

import functools

import numpy as np

from ..gpu.coop import group_inclusive_scan
from ..gpu.emit import BARRIER, VARIABLE, Delegate, Lanes, Sites, emitter, sectors
from ..gpu.engine import register_emitter
from .grouptc import FLIP_RATIO, PACK, _grouptc_thread

__all__ = ["emit_grouptc_launch"]

SCAN = Delegate(
    group_inclusive_scan,
    ("sc", "scan"), ("ss", "scan_tot"), VARIABLE, ("s", "scan_tot_r"),
    ("ss", "scan_ws"), VARIABLE, ("s", "scan_wr"), ("sc", "scan2"), ("ss", "scan_wb"),
    ("ss", "scan_tt"), VARIABLE, ("s", "scan_br"), ("s", "scan_tr"),
)
SITES = Sites(
    _grouptc_thread,
    ("g", "eu"), ("g", "ev"), ("g", "rpu1"), ("g", "rpv"), ("g", "rpv1"), SCAN,
    ("ss", "st_p"), ("ss", "st_q"), ("ss", "st_t"), BARRIER,
    ("s", "find"), ("s", "ld_q"), ("s", "ld_t"), ("g", "query"), ("g", "probe"), ("ga", "acc"),
    var=[BARRIER] * 3,
)
(EU, EV, RPU1, RPV, RPV1,
 SC, SC_TOT, SYNC_A, SC_TOT_R, SC_WS, SYNC_B, SC_WR, SC2, SC_WB, SC_TT, SYNC_C, SC_BR, SC_TR,
 ST_P, ST_Q, ST_T, SYNC, FIND, LD_Q, LD_T, QUERY, PROBE, ACC) = range(SITES.done)


@functools.lru_cache(maxsize=None)
def _find_paths(chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """The prefix search's reads for each owning edge ``p`` in ``[0,
    chunk]``: ``mids[p, t]`` is the word read on trip ``t`` and
    ``depth[p]`` the trips.  On an ascending prefix the search's test
    ``prefix[mid] <= o`` holds exactly when ``mid < p``."""
    p = np.arange(chunk + 1)
    lo, hi = np.zeros_like(p), np.full_like(p, chunk)
    depth = np.zeros_like(p)
    mids = []
    go = lo < hi
    while go.any():
        depth += go
        mid = (lo + hi) // 2
        mids.append(mid)
        right = mid < p
        lo = np.where(go & right, mid + 1, lo)
        hi = np.where(go & ~right, mid, hi)
        go = lo < hi
    return np.stack(mids, axis=1), depth


class GroupTCLanes(Lanes):
    SITES = SITES
    REGS = (
        "e", "x", "v", "qlen", "qs", "ts", "tl", "incl", "tot", "part", "psum", "o", "lo", "hi",
        "edge", "ft", "qoff", "memo_e", "memo_lo", "tc",
    )
    STRAIGHT = ((EU, 5), (SC_BR, 5), (ST_P, 3), (FIND, 1), (LD_Q, 3), (PROBE, 1))
    LOOPS = (FIND, PROBE)

    def __init__(self, device, *, args, **launch):
        self.m, self.chunk, self.esrc, self.col, self.row_ptr, self.out = args
        chunk = self.chunk
        # The scan's shared words (repro.gpu.coop.group_inclusive_scan).
        self.tmp = 3 * chunk
        self.nw = chunk // 32
        self.mids, self.depth = _find_paths(chunk)
        super().__init__(device, args=args, **launch)
        #: each work item's owning edge, block after block (see :meth:`owners`)
        self.owner = np.empty(0, dtype=np.int64)
        self.owner_at = np.zeros(self.nblk, dtype=np.int64)

    def start(self):
        self.e[:] = np.asarray(self.blocks, dtype=np.int64)[self.bs] * self.chunk + self.tib
        self.memo_e[:] = -1
        return np.where(self.e < self.m, EU, SC)

    # -- the search phase ----------------------------------------------------

    def owners(self, sub) -> None:
        """At the last barrier: the edge that owns each work item of the
        released blocks.  Their staged prefix is final and ascending, and
        ``find`` ends at the first ``i`` with ``prefix[i] > o``."""
        for bs in np.unique(self.bs[sub]).tolist():
            total = int(self.tot[sub[self.bs[sub] == bs][0]])
            owner = np.searchsorted(self.smem[bs, : self.chunk], np.arange(total), "right")
            self.owner_at[bs] = self.owner.size
            self.owner = np.append(self.owner, owner)

    def next_item(self, sub) -> None:
        """``while o < total``: a work item's prefix search, or the end."""
        go = self.o[sub] < self.tot[sub]
        s = sub[go]
        self.edge[s] = self.owner[self.owner_at[self.bs[s]] + self.o[s]]
        self.ft[s] = 0
        self.site[s] = FIND
        self.site[sub[~go]] = ACC

    def found(self, sub) -> None:
        """``while lo_e < hi_e`` of the prefix search: ``ft`` trips taken."""
        self.site[sub] = np.where(self.ft[sub] < self.depth[self.edge[sub]], FIND, LD_Q)

    def probe_step(self, sub) -> np.ndarray:
        """One ``probe`` trip: the ``col`` indices read."""
        idx, _, lo, hi, hit = self.probe_path(sub, 1)
        self.lo[sub], self.hi[sub] = lo[0], hi[0]
        self.tc[sub] += hit
        return idx[0]

    def probe_path(self, sub, most=None) -> tuple:
        """Up to ``most`` more trips of each lane's table search: per trip
        the ``col`` index read and ``lo``/``hi`` after it, each lane's
        trips, and whether it found its key."""
        lo, hi = self.lo[sub], self.hi[sub]
        ts, key = self.ts[sub], self.x[sub]
        k = np.zeros(sub.size, dtype=np.int64)
        hit = np.zeros(sub.size, dtype=bool)
        idx, los, his = [], [], []
        go = lo < hi
        while go.any() and len(idx) != most:
            k += go
            mid = (lo + hi) // 2
            at = np.where(go, ts + mid, 0)
            val = self.col.data[at]
            eq = go & (val == key)
            lt = val < key
            hit |= eq
            lo = np.where(go & (eq | lt), mid + 1, lo)
            # a hit ends the search with ``lo = mid + 1``, as its break does
            hi = np.where(eq, lo, np.where(go & ~lt, mid, hi))
            idx.append(at)
            los.append(lo)
            his.append(hi)
            go = lo < hi
        return np.array(idx), k, np.array(los), np.array(his), hit

    def searched(self, sub) -> None:
        """``while lo < hi`` of the table search, then the memo and the
        next work item."""
        go = self.lo[sub] < self.hi[sub]
        self.site[sub[go]] = PROBE
        sub = sub[~go]
        lo, tl = self.lo[sub], self.tl[sub]
        keep = lo < tl
        self.memo_lo[sub] = np.where(keep, lo, 0)
        self.memo_e[sub] = np.where(keep & (lo != 0), self.edge[sub], -1)
        self.o[sub] += self.chunk
        self.next_item(sub)

    def trips(self, first, sub):
        if first == FIND:
            return self.depth[self.edge[sub]] - self.ft[sub]
        # unroll() follows for the same lanes: keep their paths
        self._path = self.probe_path(sub)
        return self._path[1]

    def unroll(self, first, sub, k):
        if first == FIND:
            trip = np.arange(int(k.max()))[:, None]
            pay = self.mids[self.edge[sub], self.ft[sub] + np.minimum(trip, k - 1)]
            self.ft[sub] += k
            self.found(sub)
            return pay[:, None, :]
        idx, trips, los, his, hit = self._path
        last = (k - 1, np.arange(sub.size))
        self.lo[sub], self.hi[sub] = los[last], his[last]
        self.tc[sub] += hit & (k == trips)
        self.searched(sub)
        return sectors(self.col, idx[: int(k.max())])[:, None, :]

    # -- sites ---------------------------------------------------------------

    def issue(self, site, sub):
        chunk, col, row_ptr = self.chunk, self.col, self.row_ptr
        if site <= RPV1:
            if site == EU:
                arr, idx = self.esrc, self.e[sub]
            elif site == EV:
                arr, idx = col, self.e[sub]
            elif site == RPU1:
                arr, idx = row_ptr, self.x[sub] + 1
            else:
                arr, idx = row_ptr, self.v[sub] + (site == RPV1)
            val = arr.data[idx]
            if site == EU or site == RPU1:
                self.x[sub] = val  # u, then ue
            elif site == EV:
                self.v[sub] = val
            elif site == RPV:
                self.ts[sub] = val  # vs for now
            else:
                self.stage(sub, val)
            self.site[sub] = site + 1
            return sectors(arr, idx)
        if site == SC:
            self.incl[sub] = self.warp_scan(sub, self.qlen[sub])
            t = self.tib[sub]
            if chunk <= 32:
                self.site[sub] = np.where(t == chunk - 1, SC_TOT, SYNC_A)
            else:
                self.site[sub] = np.where(t % 32 == 31, SC_WS, SYNC_B)
            return None
        if site == SC_TOT or site == SC_WS:
            idx = self.tmp + (0 if site == SC_TOT else self.tib[sub] // 32)
            idx = np.broadcast_to(idx, sub.shape)
            self.shared_store(sub, idx, self.incl[sub])
            self.site[sub] = SYNC_A if site == SC_TOT else SYNC_B
            return idx
        if site == SYNC_A or site == SYNC_C:
            self.site[sub] = site + 1
            return None
        if site == SC_TOT_R or site == SC_TR:
            idx = np.full(sub.size, self.tmp + (0 if site == SC_TOT_R else 2 * self.nw))
            self.tot[sub] = self.shared_load(sub, idx)
            self.site[sub] = ST_P
            return idx
        if site == SYNC_B:
            self.site[sub] = np.where(self.tib[sub] < self.nw, SC_WR, SYNC_C)
            return None
        if site == SC_WR:
            idx = self.tmp + self.tib[sub]
            self.part[sub] = self.shared_load(sub, idx)
            self.site[sub] = SC2
            return idx
        if site == SC2:
            self.psum[sub] = self.warp_scan(sub, self.part[sub])
            self.site[sub] = SC_WB
            return None
        if site == SC_WB:
            idx = self.tmp + self.nw + self.tib[sub]
            self.shared_store(sub, idx, self.psum[sub] - self.part[sub])
            self.site[sub] = np.where(self.tib[sub] == self.nw - 1, SC_TT, SYNC_C)
            return idx
        if site == SC_TT:
            idx = np.full(sub.size, self.tmp + 2 * self.nw)
            self.shared_store(sub, idx, self.psum[sub])
            self.site[sub] = SYNC_C
            return idx
        if site == SC_BR:
            idx = self.tmp + self.nw + self.tib[sub] // 32
            self.incl[sub] += self.shared_load(sub, idx)
            self.site[sub] = SC_TR
            return idx
        if site == ST_P or site == ST_Q or site == ST_T:
            t = self.tib[sub]
            if site == ST_P:
                value = self.incl[sub]
            elif site == ST_Q:
                value = self.qs[sub] - (self.incl[sub] - self.qlen[sub])
            else:
                value = self.ts[sub] * PACK + self.tl[sub]
            idx = (site - ST_P) * chunk + t
            self.shared_store(sub, idx, value)
            self.site[sub] = site + 1
            return idx
        if site == SYNC:
            self.owners(sub)
            self.o[sub] = self.tib[sub]
            self.next_item(sub)
            return None
        if site == FIND:
            pay = self.mids[self.edge[sub], self.ft[sub]]
            self.ft[sub] += 1
            self.found(sub)
            return pay
        if site == LD_Q or site == LD_T:
            idx = chunk * (1 + (site == LD_T)) + self.edge[sub]
            val = self.shared_load(sub, idx)
            if site == LD_Q:
                self.qoff[sub] = val
            else:
                self.ts[sub] = val // PACK
                self.tl[sub] = val % PACK
            self.site[sub] = site + 1
            return idx
        if site == QUERY:
            idx = self.qoff[sub] + self.o[sub]
            self.x[sub] = col.data[idx]
            self.lo[sub] = np.where(self.edge[sub] == self.memo_e[sub], self.memo_lo[sub], 0)
            self.hi[sub] = self.tl[sub]
            self.searched(sub)
            return sectors(col, idx)
        if site == PROBE:
            idx = self.probe_step(sub)
            self.searched(sub)
            return sectors(col, idx)
        return self.add_count(sub, self.out, self.tc[sub])  # ACC

    def stage(self, sub, ve) -> None:
        """After ``rpv1``: the edge's query and table bounds (the u-side
        table is the tail of u's row; flip when v's list is much shorter)."""
        e, ue, vs = self.e[sub], self.x[sub], self.ts[sub]
        u_start, u_len = e + 1, ue - (e + 1)
        v_len = ve - vs
        both = (u_len != 0) & (v_len != 0)
        flip = v_len * FLIP_RATIO < u_len
        self.qs[sub] = np.where(both, np.where(flip, u_start, vs), 0)
        self.qlen[sub] = np.where(both, np.where(flip, u_len, v_len), 0)
        self.ts[sub] = np.where(both, np.where(flip, vs, u_start), 0)
        self.tl[sub] = np.where(both, np.where(flip, v_len, u_len), 0)


emit_grouptc_launch = emitter(GroupTCLanes)
register_emitter(_grouptc_thread, emit_grouptc_launch)
