"""Array emitter for Green's kernel: its launch trace without generators.

Generator recording (:func:`repro.gpu.engine.record_generators`) runs one
Python generator per lane through the warp scheduler, and for Green's
Merge-Path kernel that interpreter is most of a cold cell.  The kernel's op
stream is a pure function of the CSR: it only loads from read-only arrays
and ends with one atomic per lane.  So this module advances every sampled
warp in lockstep at once with NumPy, one state array per lane register,
and writes the same :class:`~repro.gpu.trace.LaunchTrace` byte for byte.

Each lockstep iteration is one :meth:`repro.gpu.warp.Warp._step` of every
live warp:

* the ``(op, tag)`` site holding the most of the warp's live lanes issues;
  a tie goes to the site whose lowest lane is lowest (the first key the
  scheduler's ascending lane scan inserts);
* the winning lanes load, run their state machine to the next yield, and
  the warp emits one row whose payload lists, in ascending lane order, the
  32-byte sector of every load or the byte address of the atomic
  (:meth:`repro.gpu.engine.RecordingWarp._issue`).

Every warp issues from its first iteration until it retires, so row ``k``
of a warp comes from iteration ``k``.  Rows and payloads are scattered
straight into launch-wide arrays in record order (block by block, warp by
warp, as :func:`repro.gpu.engine._record_blocks` runs them), and each block
trace is a view of its slice.  Location ids are interned in first-use order
and each site's ``(file, line)`` is read from the kernel's bytecode.
Generator recording stays the reference: the tests and
``repro.verify engines`` record both ways and diff the traces.
"""

from __future__ import annotations

import dis

import numpy as np

from ..gpu.engine import _writeback_log, register_emitter
from ..gpu.metrics import SECTOR_BYTES
from ..gpu.trace import OP_GLOBAL_ATOMIC, OP_GLOBAL_LOAD, BlockTrace, LaunchTrace, dedupe_blocks
from ..obs.attribution import LocationTable
from .green import _green_thread

__all__ = ["emit_green_launch"]

#: The kernel's yield sites in program order; the index is the site id.
SITES = (
    ("g", "eu"), ("g", "ev"), ("g", "rpu"), ("g", "rpu1"), ("g", "rpv"), ("g", "rpv1"),
    ("g", "mpA"), ("g", "mpB"), ("g", "nu"), ("g", "nv"), ("ga", "acc"),
)
EU, EV, RPU, RPU1, RPV, RPV1, MPA, MPB, NU, NV, ACC = range(len(SITES))
DONE = len(SITES)  # retired lane
_NS = DONE + 1
#: Threads per intersection (the kernel's literal 32).
_GROUP = 32

_OPCODE = np.full(len(SITES), OP_GLOBAL_LOAD, dtype=np.uint8)
_OPCODE[ACC] = OP_GLOBAL_ATOMIC


def site_lines(code) -> list[tuple[str, int]]:
    """``(file, line)`` of every site's yield, read from ``code``'s bytecode.

    A yield's tuple is built from its op and tag string constants right
    before the ``YIELD_VALUE``; the line is the one a generator suspended
    at that yield reports as ``f_lineno``.
    """
    by_site = {}
    strs: list[str] = []
    for ins in dis.get_instructions(code):
        if ins.opname == "LOAD_CONST" and isinstance(ins.argval, str):
            strs.append(ins.argval)
        elif ins.opname == "YIELD_VALUE":
            by_site[tuple(strs[-2:])] = next(
                n for a, b, n in code.co_lines() if a <= ins.offset < b
            )
            strs = []
    missing = [s for s in SITES if s not in by_site]
    if missing:
        raise RuntimeError(f"{code.co_name} has no yield for sites {missing}")
    return [(code.co_filename, by_site[s]) for s in SITES]


class _Lanes:
    """Registers of every live lane, one array each, in record order.

    ``u``/``v`` live in ``ue``/``ve`` until ``row_ptr[u + 1]`` and
    ``row_ptr[v + 1]`` overwrite them.  The Merge-Path search keeps
    absolute positions into ``col``: ``lo``/``hi``/``mid`` are the kernel's
    plus ``us``, and ``k`` is ``us + vs + diag_lo - 1`` (the B-side probe is
    ``k - mid``); the merge keeps ``pa = us + i`` and ``pb = vs + j``.
    """

    REGS = (
        "gw", "lane", "site", "edge", "us", "ue", "vs", "ve",
        "lo", "hi", "mid", "k", "budget", "pa", "pb", "av",
    )

    def __init__(self, blocks, block_dim, warp_size, wpb, m, warp_slots):
        t = np.arange(block_dim, dtype=np.int64)
        nblk = len(blocks)
        tid = (np.asarray(blocks, dtype=np.int64)[:, None] * block_dim + t).ravel()
        self.gw = (np.arange(nblk, dtype=np.int64)[:, None] * wpb + t // warp_size).ravel()
        self.lane = np.tile(t % warp_size, nblk)
        self.edge = tid // _GROUP
        self.site = np.where(self.edge < m, EU, ACC).astype(np.int8)
        n = tid.size
        for name in self.REGS[4:]:  # the kernel registers start at zero
            setattr(self, name, np.zeros(n, dtype=np.int64))
        self.m = m
        self.warp_slots = warp_slots
        self.warp_size = warp_size
        self.triangles = 0
        self._index()

    def _index(self) -> None:
        """Per-warp segment starts and the per-lane tie-break terms."""
        gw = self.gw
        first = np.ones(gw.size, dtype=bool)
        first[1:] = gw[1:] != gw[:-1]
        self.starts = np.flatnonzero(first)
        self.warps = gw[self.starts]  # global warp id of each segment
        self.wl = np.cumsum(first) - 1  # segment of each lane
        # The lower lane wins a tie, and the site rides in the low digits.
        self.rank = (self.warp_size - 1 - self.lane) * _NS

    def compact(self) -> None:
        keep = self.site != DONE
        for name in self.REGS:
            setattr(self, name, getattr(self, name)[keep])
        self._index()

    # -- one scheduler step for every live warp --------------------------

    def select(self):
        """Winning site and its lane count per warp segment (``-1``: retired)."""
        key = self.wl * _NS + self.site
        cnt = np.bincount(key, minlength=self.starts.size * _NS)
        cnt[DONE::_NS] = -1
        score = cnt[key] * (self.warp_size * _NS) + self.rank + self.site
        best = np.maximum.reduceat(score, self.starts)
        win = best % _NS
        win[best < 0] = -1
        return win, best // (self.warp_size * _NS)

    # -- state machine continuations --------------------------------------

    def next_edge(self, sub) -> None:
        edge = self.edge[sub] + self.warp_slots
        self.edge[sub] = edge
        self.site[sub] = np.where(edge < self.m, EU, ACC)

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

    def issue(self, site, sub, arrays):
        """Run ``site`` for lanes ``sub``; returns their payload."""
        esrc, col, row_ptr, out = arrays
        if site == ACC:
            self.site[sub] = DONE
            return np.full(sub.size, out.base)
        if site == EU:
            darr, idx = esrc, self.edge[sub]
            self.ue[sub] = esrc.data[idx]  # u
        elif site == EV:
            darr, idx = col, self.edge[sub]
            self.ve[sub] = col.data[idx]  # v
        elif site == RPU:
            darr, idx = row_ptr, self.ue[sub]
            self.us[sub] = row_ptr.data[idx]
        elif site == RPU1:
            darr, idx = row_ptr, self.ue[sub] + 1
            self.ue[sub] = row_ptr.data[idx]
        elif site == RPV:
            darr, idx = row_ptr, self.ve[sub]
            self.vs[sub] = row_ptr.data[idx]
        elif site == MPA:
            darr, idx = col, self.mid[sub]
            self.av[sub] = col.data[idx]
        elif site == NU:
            darr, idx = col, self.pa[sub]
            self.av[sub] = col.data[idx]
        elif site == RPV1:
            darr, idx = row_ptr, self.ve[sub] + 1
            ve = row_ptr.data[idx].astype(np.int64, copy=False)
            self.ve[sub] = ve
            us = self.us[sub]
            vs = self.vs[sub]
            la = self.ue[sub] - us
            lb = ve - vs
            both = (la != 0) & (lb != 0)
            self.next_edge(sub[~both])
            s, la, lb, us, vs = sub[both], la[both], lb[both], us[both], vs[both]
            total = la + lb
            lane = self.lane[s]
            diag_lo = total * lane // _GROUP
            self.budget[s] = total * (lane + 1) // _GROUP - diag_lo
            self.k[s] = us + vs + diag_lo - 1
            self.search(s, us + np.maximum(0, diag_lo - lb), us + np.minimum(diag_lo, la))
            return (darr.base + idx * darr.itemsize) // SECTOR_BYTES
        elif site == MPB:
            mid = self.mid[sub]
            darr, idx = col, self.k[sub] - mid
            le = self.av[sub] <= col.data[idx]
            self.search(sub, np.where(le, mid + 1, self.lo[sub]), np.where(le, self.hi[sub], mid))
            return (darr.base + idx * darr.itemsize) // SECTOR_BYTES
        else:  # NV
            darr, idx = col, self.pb[sub]
            a = self.av[sub]
            b = col.data[idx]
            lt = a < b
            gt = b < a
            eq = ~(lt | gt)
            self.triangles += int(np.count_nonzero(eq))
            self.merge(sub, self.pa[sub] + ~gt, self.pb[sub] + ~lt, self.budget[sub] - 1 - eq)
            return (darr.base + idx * darr.itemsize) // SECTOR_BYTES
        self.site[sub] = site + 1
        return (darr.base + idx * darr.itemsize) // SECTOR_BYTES


def emit_green_launch(
    device, program, *, grid_dim, block_dim, args, shared_words, blocks
) -> LaunchTrace:
    """Green's :class:`LaunchTrace`, identical to generator recording."""
    m, warp_slots, esrc, col, row_ptr, out = args
    arrays = (esrc, col, row_ptr, out)
    warp_size = device.warp_size
    wpb = -(-block_dim // warp_size)
    lanes = _Lanes(blocks, block_dim, warp_size, wpb, int(m), int(warp_slots))
    n_warps = len(blocks) * wpb
    n_rows = np.zeros(n_warps, dtype=np.int64)
    paid = np.zeros(n_warps, dtype=np.int64)  # payload entries per warp
    # Per iteration: (site, lane count, lowest payload value) per issuing
    # warp, and each payload entry's offset from its row's lowest value.
    steps = []
    retired = 0  # lanes retired since the last compaction
    while lanes.site.size:
        win, nlanes = lanes.select()
        ix = np.flatnonzero(lanes.site == win[lanes.wl])
        if not ix.size:
            break
        live = win >= 0
        warps = lanes.warps[live]
        nlanes = nlanes[live]
        n_rows[warps] += 1
        paid[warps] += nlanes
        isite = lanes.site[ix]
        order = np.argsort(isite, kind="stable")
        bounds = np.cumsum(np.bincount(isite, minlength=_NS))
        pay = np.empty(ix.size, dtype=np.int64)
        a = 0
        for site, b in enumerate(bounds[:DONE].tolist()):
            if b > a:
                at = order[a:b]
                pay[at] = lanes.issue(site, ix[at], arrays)
                a = b
        # A row's lanes touch nearby addresses: staging 8- or 16-bit offsets
        # keeps the launch's staged payload an eighth to a quarter of its
        # final size (heap left behind by staging stays resident).
        low = np.minimum.reduceat(pay, np.cumsum(nlanes) - nlanes)
        pay -= np.repeat(low, nlanes)
        top = pay.max()
        if top < 2**16:
            pay = pay.astype(np.uint8 if top < 2**8 else np.uint16)
        steps.append((win[live].astype(np.int8), nlanes.astype(np.int32), low, pay))
        retired += int(bounds[ACC] - bounds[ACC - 1])
        if retired * 2 > lanes.site.size:
            lanes.compact()
            retired = 0

    # Scatter every iteration into the launch-wide arrays in record order.
    # A warp issues in every iteration until it retires, so the warps of
    # iteration ``it`` are those with more than ``it`` rows, ascending.
    row_off = np.zeros(n_warps + 1, dtype=np.int64)
    np.cumsum(n_rows, out=row_off[1:])
    pay_off = np.zeros(n_warps + 1, dtype=np.int64)
    np.cumsum(paid, out=pay_off[1:])
    rows = int(row_off[-1])
    ops = np.empty(rows, dtype=np.uint8)
    nl = np.empty(rows, dtype=np.int64)
    loc = np.empty(rows, dtype=np.int32)
    payload = np.empty(int(pay_off[-1]), dtype=np.int64)
    cursor = pay_off[:-1].copy()  # next payload slot per warp
    for it, (sites, nlanes, low, pay) in enumerate(steps):
        warps = np.flatnonzero(n_rows > it)
        dest = row_off[warps] + it
        ops[dest] = _OPCODE[sites]
        nl[dest] = nlanes
        loc[dest] = sites
        at = cursor[warps]
        cursor[warps] = at + nlanes
        shift = np.repeat(at - (np.cumsum(nlanes) - nlanes), nlanes)
        payload[shift + np.arange(pay.size)] = np.repeat(low, nlanes) + pay
    steps.clear()

    # Intern each site's line in first-use order, then map site -> location id.
    table = LocationTable()
    used, first = np.unique(loc, return_index=True)
    lines = site_lines(program.__code__)
    lut = np.zeros(len(SITES), dtype=np.int32)
    for site in used[np.argsort(first)].tolist():
        lut[site] = table.intern(lines[site])
    np.take(lut, loc, out=loc)

    aux = np.zeros(rows, dtype=np.int64)
    per_block = []
    for b in range(len(blocks)):
        r0, r1 = row_off[b * wpb], row_off[(b + 1) * wpb]
        p0, p1 = pay_off[b * wpb], pay_off[(b + 1) * wpb]
        # Every issuing lane adds one payload entry: npay equals nlanes.
        per_block.append(
            BlockTrace(ops[r0:r1], nl[r0:r1], aux[r0:r1], nl[r0:r1], payload[p0:p1], loc[r0:r1])
        )
    writes = {}
    if rows:  # every lane ends with the atomic
        out.data[0] = int(out.data[0]) + lanes.triangles
        writes[id(out)] = (out, {0})
    unique, instances = dedupe_blocks(per_block)
    return LaunchTrace(
        grid_dim=grid_dim,
        block_dim=block_dim,
        warp_size=warp_size,
        blocks=tuple(blocks.tolist()),
        unique=unique,
        instances=instances,
        writeback=_writeback_log(writes, args),
        locations=table.as_tuple(),
    )


register_emitter(_green_thread, emit_green_launch)
