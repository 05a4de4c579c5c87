"""Array emitters for TRUST's two kernels (see :mod:`repro.gpu.emit`).

The classification kernel is one straight run of three sites.  The hash
kernel runs one vertex per sub-group of ``group`` lanes, with the same
build in both tiers:

* warp tier (``group == 32``): each sub-group is a warp and hashes into
  its own slice of shared memory; ``yield sync`` is a ``__syncwarp``.
  Once the warp passes its second sync, its table is final and the rest
  of each lane's work is fixed, so the whole probe is laid out as a
  program (:meth:`TrustLanes.program`) that the lanes step through;
* block tier (``group`` = the block): the block's warps share one table
  and ``yield sync`` is a ``__syncthreads``.  The build between the two
  barriers ranks every warp's ``("sa", "hlen")`` after the lower warps'
  ones, so that phase runs warp by warp (:attr:`Lanes.ORDERED`).

Spilled bucket slots go to a :class:`~repro.gpu.emit.Workspace`: sampled
sub-groups can share a ``trust_*_spill`` slot.  Register ``i`` is the
build index, then the block tier's wedge; ``x`` is ``u``, then each
hashed neighbour, then the block tier's ``w`` and each key.
"""

from __future__ import annotations

import numpy as np

from ..gpu.emit import BARRIER, VARIABLE, WSYNC, Lanes, Sites, emitter, runs, sectors
from ..gpu.engine import register_emitter
from .trust import BLOCK_DEGREE, MIN_DEGREE, _classify_thread, _trust_thread

__all__ = ["emit_classify_launch", "emit_trust_launch"]

KEYS = (
    ("g", "vid"), ("g", "rpu"), ("g", "rpu1"), ("ss", "hclr"), VARIABLE,
    ("g", "build"), ("sa", "hlen"), ("ss", "hstore"), ("gs", "hspill"), VARIABLE,
    # warp tier probe
    ("g", "hop1"), ("g", "rpw"), ("g", "rpw1"), ("bc", "wmeta"),
    ("g", "hop2"), ("s", "plen"), ("s", "probeS"), ("g", "probeG"),
    # block tier probe
    ("g", "hop1"), ("g", "rpw"), ("g", "rpw1"),
    ("g", "hop2"), ("s", "plen"), ("s", "probeS"), ("g", "probeG"),
    ("ga", "acc"),
)
(VID, RPU, RPU1, HCLR, SYNC1, BUILD, HLEN, HSTORE, HSPILL, SYNC2,
 HOP1, RPW, RPW1, WMETA, HOP2, PLEN, PROBE_S, PROBE_G,
 B_HOP1, B_RPW, B_RPW1, B_HOP2, B_PLEN, B_PROBE_S, B_PROBE_G, ACC) = range(len(KEYS))
WARP_SITES = Sites(_trust_thread, *KEYS, var=[WSYNC, WSYNC], skip=range(B_HOP1, ACC))
BLOCK_SITES = Sites(_trust_thread, *KEYS, var=[BARRIER, BARRIER], skip=range(HOP1, B_HOP1))


def _either(cond, yes: int, no: int) -> np.ndarray:
    """``np.where(cond, yes, no)`` for two site ids, with less overhead."""
    out = cond * (yes - no)
    out += no
    return out


class TrustLanes(Lanes):
    REGS = (
        "gl", "lb", "spb", "own", "us", "ue", "b", "i", "x", "slot", "fill",
        "j", "jend", "pc", "tc", "lw",
    )

    def __init__(self, device, *, args, block_dim, blocks, **launch):
        (self.verts, self.group, self.nb, self.depth_cap, self.col, self.row_ptr,
         self.spill, self.spill_depth, self.out) = args
        self.subs = block_dim // self.group
        if self.group == 32:
            self.SITES = WARP_SITES
            self.STRAIGHT = ((VID, 3), (SYNC1, 3), (HOP1, 3), (HOP2, 2))
            #: every lane's probe program (see :meth:`program`)
            self.prog_site = np.zeros(0, dtype=np.int8)
            self.prog_pay = np.zeros(0, dtype=np.int64)
        else:
            self.SITES = BLOCK_SITES
            self.STRAIGHT = ((VID, 3), (BUILD, 2), (B_HOP1, 3), (B_HOP2, 2))
            self.ORDERED = (1,)
        self.slots = max(len(self.spill.data) // max(self.spill_depth * self.nb, 1), 1)
        super().__init__(device, args=args, block_dim=block_dim, blocks=blocks, **launch)
        self.pool = self.workspace(self.spill)

    def start(self):
        g, nb = self.group, self.nb
        sub = self.tib // g
        self.gl[:] = self.tib % g
        vid = np.asarray(self.blocks, dtype=np.int64)[self.bs] * self.subs + sub
        self.x[:] = vid
        self.lb[:] = sub * (nb * (1 + self.depth_cap))
        # a bucket's spill index: spb + bucket + slot * nb
        self.spb[:] = (vid % self.slots) * self.spill_depth * nb - self.depth_cap * nb
        self.own[:] = self.bs * self.subs + sub  # sub-groups in record order
        return _either(vid < len(self.verts.data), VID, ACC)

    # -- the build -----------------------------------------------------------

    def next_clear(self, sub) -> None:
        self.site[sub] = _either(self.b[sub] < self.nb, HCLR, SYNC1)

    def next_key(self, sub) -> None:
        """``while i < ue`` of the build."""
        self.site[sub] = _either(self.i[sub] < self.ue[sub], BUILD, SYNC2)

    def scan(self, bs, lw, spb, own, key, fill) -> tuple[np.ndarray, np.ndarray]:
        """Each key's bucket scan (fill word ``lw`` of block slot ``bs``,
        ``fill`` slots): how many slots it probes, and whether it finds
        the key.  The table is final once the build is over."""
        nb = self.nb
        probes = fill.copy()
        hit = np.zeros(key.size, dtype=bool)
        at = np.flatnonzero(fill > 0)
        slot = 0
        while at.size:
            if slot < self.depth_cap:
                val = self.smem[bs[at], lw[at] + (slot + 1) * nb]
            else:
                val = self.pool.load(own[at], spb[at] + key[at] % nb + slot * nb)
            found = val == key[at]
            probes[at[found]] = slot + 1
            hit[at[found]] = True
            slot += 1
            at = at[~found]
            at = at[fill[at] > slot]
        return probes, hit

    def probe_payload(self, lw, spb, key, slot) -> np.ndarray:
        """Payload of probing ``slot`` of a key's bucket: the shared word,
        or the spilled word's sector."""
        nb = self.nb
        pay = lw + (slot + 1) * nb
        spilled = slot >= self.depth_cap
        if spilled.any():
            idx = spb[spilled] + key[spilled] % nb + slot[spilled] * nb
            pay[spilled] = sectors(self.spill, idx)
        return pay

    # -- the warp tier's probe -------------------------------------------------

    def program(self, sub) -> None:
        """Warp tier, at the second warp sync: lay out each lane's whole
        probe as sites and payloads, from ``pc`` on, and its count.

        The warp's table is final here and every other value the probe
        reads is an input, so the lane's steps are too; only when each
        one issues is left to the scheduler.  Per 32 wedge sources from
        ``base``: lane ``k`` fetches source ``k``'s bounds (``hop1``,
        ``rpw``, ``rpw1``), every lane swaps (``wmeta``), then each lane
        takes the positions ``j`` of every source's list with ``(j - ws) %
        32`` its lane id, source after source: ``hop2``, ``plen``, and a
        probe per slot scanned.  The last step is ``acc``.

        Probing site by site as the block tier does (with one bit per
        swapped source for the lane) gives the same rows, but records
        about 1.4x slower.
        """
        col, row_ptr, nb = self.col, self.row_ptr, self.nb
        g = self.gw[sub]
        new = np.append(True, g[1:] != g[:-1])
        lead = sub[new]  # a lane of each warp
        us = self.us[lead]
        src_warp, s = runs(self.ue[lead] - us)
        groups = np.bincount(src_warp, minlength=lead.size) + 31 >> 5
        width = int(groups.max()) + 1  # a lane's groups, then its final acc
        at = us[src_warp] + s
        w = col.data[at]
        ws, we = row_ptr.data[w], row_ptr.data[w + 1]
        src_block = (src_warp * 32 + (s & 31)) * width + (s >> 5)

        # Each position of each source's list, sorted by the (lane, group)
        # block that takes it: blocks are laid out lane by lane.
        item_src, t = runs(np.maximum(we - ws, 0))
        block = (src_warp[item_src] * 32 + (t & 31)) * width + (s[item_src] >> 5)
        order = np.argsort(block, kind="stable")
        item_src, block = item_src[order], block[order]
        j = ws[item_src] + t[order]
        iw = src_warp[item_src]
        key = col.data[j]
        lw = self.lb[lead][iw] + key % nb
        spb = self.spb[lead][iw]
        fill = self.smem[self.bs[lead][iw], lw]
        probes, hit = self.scan(self.bs[lead][iw], lw, spb, self.own[lead][iw], key, fill)
        steps = probes + 2

        # Block sizes: the fetch, the swap, the positions' steps; the acc.
        nblocks = lead.size * 32 * width
        head = np.zeros(nblocks, dtype=np.int64)
        head[src_block] = 3
        size = head + np.bincount(block, weights=steps, minlength=nblocks).astype(np.int64)
        grp_warp, grp = runs(groups)
        swap = ((grp_warp * 32)[:, None] + np.arange(32)) * width + grp[:, None]
        size[swap] += 1
        last = np.arange(width - 1, nblocks, width)
        size[last] = 1
        start = np.cumsum(size) - size
        n = int(size.sum())
        sites = np.empty(n, dtype=np.int8)
        pay = np.zeros(n, dtype=np.int64)

        at0 = start[src_block]
        for k, (site, value) in enumerate(
            ((HOP1, sectors(col, at)), (RPW, sectors(row_ptr, w)), (RPW1, sectors(row_ptr, w + 1)))
        ):
            sites[at0 + k] = site
            pay[at0 + k] = value
        sites[start[swap] + head[swap]] = WMETA
        # each position's first step: its block's start, past the fetch and
        # the swap, past the steps of the block's earlier positions
        before = np.cumsum(steps) - steps
        first = np.ones(block.size, dtype=bool)
        first[1:] = block[1:] != block[:-1]
        before -= before[first][np.cumsum(first) - 1]
        item_at = start[block] + head[block] + 1 + before
        sites[item_at] = HOP2
        pay[item_at] = sectors(col, j)
        sites[item_at + 1] = PLEN
        pay[item_at + 1] = lw
        item, slot = runs(probes)
        probe_at = item_at[item] + 2 + slot
        sites[probe_at] = PROBE_S + (slot >= self.depth_cap)
        pay[probe_at] = self.probe_payload(lw[item], spb[item], key[item], slot)
        sites[start[last]] = ACC

        lane = (np.cumsum(new) - 1) * 32 + self.gl[sub]  # each lane's slot
        self.tc[sub] += np.bincount(block[hit] // width, minlength=lead.size * 32)[lane]
        pc = self.prog_site.size + start[lane * width]
        self.prog_site = np.concatenate([self.prog_site, sites])
        self.prog_pay = np.concatenate([self.prog_pay, pay])
        self.pc[sub] = pc
        self.site[sub] = self.prog_site[pc]

    def step(self, sub) -> np.ndarray:
        """Warp tier: the lanes' next programmed step."""
        pc = self.pc[sub]
        pay = self.prog_pay[pc]
        pc += 1
        self.pc[sub] = pc
        self.site[sub] = self.prog_site[pc]
        return pay

    # -- the block tier's probe --------------------------------------------------

    def next_wedge(self, sub) -> None:
        """``for wi in range(us, ue)``."""
        self.site[sub] = _either(self.i[sub] < self.ue[sub], B_HOP1, ACC)

    def next_j(self, sub) -> None:
        """``j += group; while j < we`` over one wedge's list, then the
        next wedge."""
        if not sub.size:
            return
        j = self.j[sub] + self.group
        self.j[sub] = j
        self.site[sub] = B_HOP2
        go = j < self.jend[sub]
        if not go.all():
            rest = sub[~go]
            self.i[rest] += 1
            self.next_wedge(rest)

    # -- sites ---------------------------------------------------------------

    def issue(self, site, sub):
        col, row_ptr, nb = self.col, self.row_ptr, self.nb
        if site >= HOP1 and site < B_HOP1:
            return self.step(sub)
        if site == VID:
            idx = self.x[sub]
            self.x[sub] = self.verts.data[idx]
            self.site[sub] = RPU
            return sectors(self.verts, idx)
        if site == RPU or site == RPU1:
            idx = self.x[sub] + (site == RPU1)
            val = row_ptr.data[idx]
            if site == RPU:
                self.us[sub] = val
                self.site[sub] = RPU1
            else:
                self.ue[sub] = val
                go = val - self.us[sub] >= MIN_DEGREE
                self.site[sub[~go]] = ACC
                s = sub[go]
                self.b[s] = self.gl[s]
                self.next_clear(s)
            return sectors(row_ptr, idx)
        if site == HCLR:
            idx = self.lb[sub] + self.b[sub]
            self.shared_store(sub, idx, 0)
            self.b[sub] += self.group
            self.next_clear(sub)
            return idx
        if site == SYNC1:
            self.i[sub] = self.us[sub] + self.gl[sub]
            self.next_key(sub)
            return None
        if site == BUILD:
            idx = self.i[sub]
            x = col.data[idx]
            self.x[sub] = x
            self.lw[sub] = self.lb[sub] + x % nb
            self.site[sub] = HLEN
            return sectors(col, idx)
        if site == HLEN:
            idx = self.lw[sub]
            slot = self.shared_add(sub, idx, 1)
            self.slot[sub] = slot
            self.site[sub] = HSTORE + (slot >= self.depth_cap)
            return idx
        if site == HSTORE or site == HSPILL:
            x = self.x[sub]
            if site == HSTORE:
                pay = self.lw[sub] + (self.slot[sub] + 1) * nb
                self.shared_store(sub, pay, x)
            else:
                idx = self.spb[sub] + x % nb + self.slot[sub] * nb
                pay = self.pool_store(sub, self.pool, self.own[sub], idx, x)
            self.i[sub] += self.group
            self.next_key(sub)
            return pay
        if site == SYNC2:
            if self.group == 32:
                self.program(sub)
            else:
                self.i[sub] = self.us[sub]
                self.next_wedge(sub)
            return None
        if site == B_HOP1:
            idx = self.i[sub]
            self.x[sub] = col.data[idx]
            self.site[sub] = B_RPW
            return sectors(col, idx)
        if site == B_RPW:
            idx = self.x[sub]
            self.j[sub] = row_ptr.data[idx] + self.gl[sub]
            self.site[sub] = B_RPW1
            return sectors(row_ptr, idx)
        if site == B_RPW1:
            idx = self.x[sub] + 1
            val = row_ptr.data[idx]
            self.jend[sub] = val
            self.j[sub] -= self.group  # next_j steps it back
            self.next_j(sub)
            return sectors(row_ptr, idx)
        if site == B_HOP2:
            idx = self.j[sub]
            key = col.data[idx]
            self.x[sub] = key
            self.lw[sub] = self.lb[sub] + key % nb
            self.site[sub] = B_PLEN
            return sectors(col, idx)
        if site == B_PLEN:
            idx = self.lw[sub]
            probes, hit = self.scan(
                self.bs[sub], idx, self.spb[sub], self.own[sub], self.x[sub],
                self.shared_load(sub, idx),
            )
            self.tc[sub] += hit
            self.fill[sub] = probes  # now the number of slots to probe
            self.slot[sub] = 0
            go = probes > 0
            if not go.all():
                self.next_j(sub[~go])
                sub = sub[go]
            self.site[sub] = B_PROBE_S + (self.depth_cap <= 0)
            return idx
        if site == B_PROBE_S or site == B_PROBE_G:
            slot = self.slot[sub]
            pay = self.probe_payload(self.lw[sub], self.spb[sub], self.x[sub], slot)
            slot += 1
            self.slot[sub] = slot
            end = slot >= self.fill[sub]
            if end.any():
                self.next_j(sub[end])
                go = ~end
                sub, slot = sub[go], slot[go]
            self.site[sub] = B_PROBE_S + (slot >= self.depth_cap)
            return pay
        return self.add_count(sub, self.out, self.tc[sub])  # ACC


CLASSIFY_SITES = Sites(_classify_thread, ("g", "rp"), ("g", "rp1"), ("gs", "klass"))


class ClassifyLanes(Lanes):
    SITES = CLASSIFY_SITES
    REGS = ("s",)
    STRAIGHT = ((0, 3),)

    def start(self):
        return np.where(self.tid < self.args[0], 0, self.SITES.done)

    def issue(self, site, sub):
        _, row_ptr, klass = self.args
        u = self.tid[sub]
        if site == 2:
            d = self.s[sub]
            tier = np.where(d < MIN_DEGREE, 0, np.where(d > BLOCK_DEGREE, 2, 1))
            self.site[sub] = self.SITES.done
            return self.global_store(sub, klass, u, tier)
        idx = u + site
        val = row_ptr.data[idx]
        self.s[sub] = val - self.s[sub] if site else val  # e - s after rp1
        self.site[sub] = site + 1
        return sectors(row_ptr, idx)


emit_classify_launch = emitter(ClassifyLanes)
emit_trust_launch = emitter(TrustLanes)
register_emitter(_classify_thread, emit_classify_launch)
register_emitter(_trust_thread, emit_trust_launch)
