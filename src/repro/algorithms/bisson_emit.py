"""Array emitter for Bisson's kernel (see :mod:`repro.gpu.emit`).

One vertex per sub-group of ``group`` lanes: a warp (thread and warp
mode) or the whole block (block mode).  Between the block's two
``__syncthreads`` the bitmap is only ORed into (the build), then only
read (the probe), then only cleared, so the order in which a block's
warps run within a phase does not matter.  The bitmap lives in shared
memory, or in a slot of the global ``bitmap_pool`` that sampled
sub-groups reuse modulo ``pool_slots``: a :class:`~repro.gpu.emit.Workspace`
with one owner per block, whose clear leaves every word as the launch
found it.  The three bitmap yields (``set_bit``, ``load_word``,
``clear_word``) are variable yields, resolved per launch.

The build and the clear are loops of straight runs; the probe is laid
out warp by warp at the first barrier (:meth:`BissonLanes.probe`).
Register ``i`` is the build index, then the clear index; ``x`` is the
vertex, then each neighbour read.
"""

from __future__ import annotations

import numpy as np

from ..gpu.emit import BARRIER, VARIABLE, Lanes, Sites, emitter, issues_first, runs, sectors
from ..gpu.engine import register_emitter
from .bisson import _WORD_BITS, _bisson_thread

__all__ = ["emit_bisson_launch"]

KEYS = (
    ("g", "rpu"), ("g", "rpu1"), ("g", "nbrU"), VARIABLE, BARRIER,
    ("g", "hop1"), ("g", "rpw"), ("g", "rpw1"), ("g", "hop2"), VARIABLE, BARRIER,
    ("g", "nbrUc"), VARIABLE, ("ga", "acc"),
)
(RPU, RPU1, NBRU, BSET, SYNC1, HOP1, RPW, RPW1, HOP2, BGET, SYNC2, NBRUC, BCLR, ACC) = range(
    len(KEYS)
)
SHARED_SITES = Sites(_bisson_thread, *KEYS, var=[("so", "bset"), ("s", "bget"), ("ss", "bclr")])
GLOBAL_SITES = Sites(_bisson_thread, *KEYS, var=[("go", "bset"), ("g", "bget"), ("gs", "bclr")])

#: ``hop1`` entries (lanes times 1-hop positions) laid out at a time
_PROBE_CHUNK = 1 << 18
def _race(q: list, low: list, full: int, kinds: list, wins: list) -> None:
    """One warp's probe, step by step, on lane masks (see
    :meth:`BissonLanes.probe`).  Appends each step's kind to ``kinds``
    (0 for ``hop1``, 1 for ``hop2``) and the mask of its lanes to
    ``wins``.  ``low[h]`` masks the lanes that take ``q[h] + 1`` entries
    of the list at 1-hop position ``h``; the rest take ``q[h]``."""
    last = len(q) - 1
    at_h = {0: full}  # h -> lanes about to run hop1 for h
    at_x = {}  # (h, trips left) -> lanes about to run hop2 in h's list
    mh, mx = full, 0
    while mh or mx:
        if issues_first(mh.bit_count(), mh & -mh, mx.bit_count(), mx & -mx):
            kinds.append(0)
            wins.append(mh)
            nxt = {}
            mh = 0
            for h, m in at_h.items():
                lo = m & low[h]
                if lo:
                    key = (h, q[h] + 1)
                    at_x[key] = at_x.get(key, 0) | lo
                    mx |= lo
                    m ^= lo
                if m:
                    if q[h]:
                        key = (h, q[h])
                        at_x[key] = at_x.get(key, 0) | m
                        mx |= m
                    elif h < last:
                        nxt[h + 1] = nxt.get(h + 1, 0) | m
                        mh |= m
            at_h = nxt
        else:
            kinds.append(1)
            wins.append(mx)
            nxt = {}
            mx = 0
            for (h, left), m in at_x.items():
                if left > 1:
                    nxt[(h, left - 1)] = m
                    mx |= m
                elif h < last:
                    at_h[h + 1] = at_h.get(h + 1, 0) | m
                    mh |= m
            at_x = nxt


class BissonLanes(Lanes):
    REGS = ("gl", "base", "us", "ue", "i", "x", "tc")
    STRAIGHT = ((RPU, 2), (NBRU, 2), (NBRUC, 2))
    LOOPS = (NBRU, NBRUC)

    def __init__(self, device, *, args, block_dim, **launch):
        (self.n, self.vwords, self.shared, self.pool_slots, self.group, self.col,
         self.row_ptr, bitmap_pool, self.out) = args
        self.subs = block_dim // self.group
        self.SITES = SHARED_SITES if self.shared else GLOBAL_SITES
        super().__init__(device, args=args, block_dim=block_dim, **launch)
        if not self.shared:
            self.pool = self.workspace(bitmap_pool)

    def start(self):
        sub = self.tib // self.group
        self.gl[:] = self.tib % self.group
        u = np.asarray(self.blocks, dtype=np.int64)[self.bs] * self.subs + sub
        self.x[:] = u
        self.base[:] = (sub if self.shared else u % self.pool_slots) * self.vwords
        return np.where(u < self.n, RPU, ACC)

    def next_build(self, sub, loop: int) -> None:
        """``while i < ue`` of the build (``loop`` is ``nbrU``) or the clear."""
        done = SYNC1 if loop == NBRU else ACC
        self.site[sub] = np.where(self.i[sub] < self.ue[sub], loop, done)

    # -- the bitmap: lanes ``sub``, each with its neighbour ``x`` -------------

    def set_bits(self, sub, x) -> np.ndarray:
        word = self.base[sub] + x // _WORD_BITS
        mask = np.left_shift(1, x % _WORD_BITS)
        if self.shared:
            return self.shared_or(sub, word, mask)
        return self.pool_or(sub, self.pool, self.bs[sub], word, mask)

    def clear_words(self, sub, x) -> np.ndarray:
        word = self.base[sub] + x // _WORD_BITS
        if self.shared:
            self.shared_store(sub, word, 0)
            return word
        return self.pool_store(sub, self.pool, self.bs[sub], word, 0)

    # -- the build and the clear ----------------------------------------------

    def trips(self, first, sub):
        return -(-(self.ue[sub] - self.i[sub]) // self.group)

    def unroll(self, first, sub, k):
        """``k`` trips of the build (``nbrU``, ``set_bit``) or of the clear
        (``nbrUc``, ``clear_word``)."""
        trip = np.arange(int(k.max()))[:, None]
        on = trip < k
        idx = self.i[sub] + trip * self.group
        idx = np.where(on, idx, idx[0])  # past its last trip a lane reads its first
        x = self.col.data[idx]
        pay = np.zeros((trip.size, 2, sub.size), dtype=np.int64)
        pay[:, 0] = sectors(self.col, idx)
        bitmap = self.set_bits if first == NBRU else self.clear_words
        pay[:, 1][on] = bitmap(np.broadcast_to(sub, on.shape)[on], x[on])
        self.i[sub] += k * self.group
        self.next_build(sub, first)
        return pay

    # -- the probe -------------------------------------------------------------

    def probe(self, sub) -> None:
        """At the first barrier: lay out each warp's whole probe, and park
        its lanes at the second.

        Between the barriers the bitmap is only read, so each warp's
        probe is a pure function of the state here.  Its lanes are only
        ever at the start of one of two straight runs: ``hop1 rpw rpw1``
        for their next 1-hop position ``h``, or ``hop2 load_word`` for
        their next entry of the list of their current ``w``.  At each
        step one run issues by the scheduler's rule
        (:func:`~repro.gpu.emit.issues_first`), as :func:`_race` plays out
        on lane masks.  Lane ``l`` of a warp whose first lane is lane ``gl0`` of
        its sub-group takes ``q + (l < r)`` entries of a list of ``d``,
        where ``q, r = divmod(d - gl0, group)``.
        """
        seg = self.wl[sub]
        heads = np.flatnonzero(np.append(True, seg[1:] != seg[:-1]))
        lead = sub[heads]
        ends = np.append(heads[1:], sub.size)
        # A few warps at a time, to bound the memory a hub's probe takes.
        size = np.cumsum((ends - heads) * (self.ue[lead] - self.us[lead]))
        first = 0
        while first < heads.size:
            last = max(first + 1, int(np.searchsorted(size, size[first] + _PROBE_CHUNK)))
            self.lay_out(sub[heads[first] : ends[last - 1]])
            first = last
        self.site[sub] = SYNC2

    def lay_out(self, sub) -> None:
        """The probe rows of the warps of lanes ``sub`` (see :meth:`probe`)."""
        col, row_ptr, group = self.col, self.row_ptr, self.group
        seg = self.wl[sub]
        heads = np.flatnonzero(np.append(True, seg[1:] != seg[:-1]))
        lead = sub[heads]
        nlanes = np.diff(np.append(heads, sub.size))
        # Every warp's 1-hop positions, warp after warp.
        degree = self.ue[lead] - self.us[lead]
        pos_warp, h = runs(degree)
        at = self.us[lead][pos_warp] + h
        w = col.data[at]
        ws = row_ptr.data[w]
        gl0 = self.gl[lead][pos_warp]
        left = row_ptr.data[w + 1] - ws - gl0
        q = np.where(left > 0, left // group, 0)
        r = np.where(left > 0, np.minimum(left % group, 32), 0)
        ql, low = q.tolist(), ((1 << r) - 1).tolist()
        kinds, wins, warp_steps = [], [], []
        first = 0
        for d, nl in zip(degree.tolist(), nlanes.tolist()):
            done = len(kinds)
            _race(ql[first : first + d], low[first : first + d], (1 << nl) - 1, kinds, wins)
            warp_steps.append(len(kinds) - done)
            first += d
        kinds = np.array(kinds, dtype=np.int64)
        step_warp = np.repeat(np.arange(heads.size), warp_steps)

        # The issuing lanes of each step, ascending, and for each the rank
        # of the step among its lane's steps in the warp: a lane's k-th
        # step runs its k-th token.
        issued = np.unpackbits(
            np.array(wins, dtype="<u4").view(np.uint8).reshape(-1, 4), axis=1, bitorder="little"
        )
        done = np.zeros((kinds.size + 1, 32), dtype=np.int64)  # steps each lane ran before
        np.cumsum(issued, axis=0, out=done[1:])
        step, lane = np.nonzero(issued)
        warp = step_warp[step]
        rank = done[step, lane] - done[(np.cumsum(warp_steps) - warp_steps)[warp], lane]

        # Every lane's tokens, lane after lane: per position ``h`` one
        # hop1, then the lane's hop2 trips in ``h``'s list.
        lane_warp, lane_in = runs(nlanes)
        of_lane, h = runs(degree[lane_warp])
        tok_pos = (np.cumsum(degree) - degree)[lane_warp[of_lane]] + h
        tokens = 1 + q[tok_pos] + (lane_in[of_lane] < r[tok_pos])
        tok_at = np.cumsum(tokens) - tokens
        lane_at = tok_at[np.cumsum(degree[lane_warp]) - degree[lane_warp]]
        token = lane_at[(np.cumsum(nlanes) - nlanes)[warp] + lane] + rank
        tok_of, trip = runs(tokens)
        epos, trip = tok_pos[tok_of[token]], trip[token] - 1  # trip -1: hop1

        count = np.bincount(step, minlength=kinds.size)
        # A hop1 step issues three rows, a hop2 step two; each row lists
        # the step's lanes.
        rows = 3 - kinds
        off = np.cumsum(rows * count) - rows * count
        at_row = off[step] + np.arange(step.size) - (np.cumsum(count) - count)[step]
        pay = np.empty(int((rows * count).sum()), dtype=np.int64)

        hop = trip >= 0
        p, c, hp = at_row[~hop], count[step[~hop]], epos[~hop]
        pay[p] = sectors(col, at[hp])
        pay[p + c] = sectors(row_ptr, w[hp])
        pay[p + 2 * c] = sectors(row_ptr, w[hp] + 1)
        p, c, hp, ln = at_row[hop], count[step[hop]], epos[hop], lane[hop]
        j = ws[hp] + gl0[hp] + ln + trip[hop] * group
        x = col.data[j]
        pay[p] = sectors(col, j)
        local = heads[warp[hop]] + ln  # each hop2 entry's lane, in ``sub``
        lanes = sub[local]
        word = self.base[lanes] + x // _WORD_BITS
        if self.shared:
            bits, pay[p + c] = self.shared_load(lanes, word), word
        else:
            bits, pay[p + c] = self.pool.load(self.bs[lanes], word), sectors(self.pool.darr, word)
        hit = (bits >> (x % _WORD_BITS)) & 1
        self.tc[sub] += np.bincount(local, weights=hit, minlength=sub.size).astype(np.int64)

        row_step, row_in = runs(rows)
        sites = np.where(kinds == 0, HOP1, HOP2)[row_step] + row_in
        self.add_rows(sites.astype(np.int8), count[row_step], seg[heads][step_warp[row_step]], pay)

    # -- sites ---------------------------------------------------------------

    def issue(self, site, sub):
        col, row_ptr = self.col, self.row_ptr
        if site == RPU or site == RPU1:
            idx = self.x[sub] + (site == RPU1)
            val = row_ptr.data[idx]
            if site == RPU:
                self.us[sub] = val
                self.site[sub] = RPU1
            else:
                self.ue[sub] = val
                go = val > self.us[sub]
                self.site[sub[~go]] = ACC
                s = sub[go]
                self.i[s] = self.us[s] + self.gl[s]
                self.next_build(s, NBRU)
            return sectors(row_ptr, idx)
        if site == NBRU or site == NBRUC:
            idx = self.i[sub]
            self.x[sub] = col.data[idx]
            self.site[sub] = site + 1
            return sectors(col, idx)
        if site == BSET or site == BCLR:
            pay = (self.set_bits if site == BSET else self.clear_words)(sub, self.x[sub])
            self.i[sub] += self.group
            self.next_build(sub, site - 1)
            return pay
        if site == SYNC1:
            self.probe(sub)
            return None
        if site == SYNC2:
            self.i[sub] = self.us[sub] + self.gl[sub]
            self.next_build(sub, NBRUC)
            return None
        return self.add_count(sub, self.out, self.tc[sub])  # ACC


emit_bisson_launch = emitter(BissonLanes)
register_emitter(_bisson_thread, emit_bisson_launch)
