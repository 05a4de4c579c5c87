"""Lockstep array emitters: a kernel's launch trace without generators.

Generator recording (:func:`repro.gpu.engine.record_generators`) runs one
Python generator per lane through the warp scheduler.  For a kernel whose
op stream is a pure function of its inputs, this kit advances every
sampled warp in lockstep at once with NumPy instead -- one array per lane
register, replicated over every lane -- and writes the same
:class:`~repro.gpu.trace.LaunchTrace` byte for byte.  A kernel supplies its
yield sites (:class:`Sites`) and a :class:`Lanes` subclass whose
:meth:`Lanes.issue` runs one site for a set of lanes up to their next
yield; :func:`emitter` turns that into an emitter for
:func:`repro.gpu.engine.register_emitter`.

Each lockstep iteration is one :meth:`repro.gpu.warp.Warp._step` of every
live warp:

* the ``(op, tag)`` site holding the most of the warp's runnable lanes
  issues; a tie goes to the site whose lowest lane is lowest (the first
  key the scheduler's ascending lane scan inserts);
* a lane that reaches ``("w",)`` parks.  A warp with no runnable lane
  left releases its parked lanes in one ``OP_WSYNC`` row: ``nlanes`` is
  the number parked, and its line is the lowest parked lane's;
* the winning lanes run their state machine to the next yield, and the
  warp emits one row whose payload lists, in ascending lane order, the
  32-byte sector of a global load or store, the byte address of a global
  atomic, or the word index of a shared access
  (:meth:`repro.gpu.engine.RecordingWarp._issue`).

Shared memory is a real word array per sampled block, so shared loads
read what the emitted stores wrote, and a shared atomic add returns the
word's previous value plus the deltas of the lower lanes of its group
that hit the same word.  Global stores and atomics write the launch's
argument arrays and are logged for the writeback.

The kit is exact under three conditions, which a kernel must meet before
it gets an emitter: its op stream is a pure function of its inputs, its
shared memory and stored global elements are private to one warp, and it
never calls ``__syncthreads``.  Generator recording runs warps one after
another; the kit runs them side by side, and the two orders agree only
when no warp can see another's effects.  Generator recording stays the
reference: the tests and ``repro.verify engines`` record both ways and
diff the traces.
"""

from __future__ import annotations

import dis
import functools

import numpy as np

from ..obs.attribution import LocationTable
from .engine import _writeback_log
from .memory import DeviceArray
from .metrics import SECTOR_BYTES
from .trace import (
    OP_GLOBAL_ATOMIC,
    OP_GLOBAL_LOAD,
    OP_GLOBAL_STORE,
    OP_SHARED_ATOMIC,
    OP_SHARED_LOAD,
    OP_SHARED_STORE,
    OP_WSYNC,
    BlockTrace,
    LaunchTrace,
    dedupe_blocks,
)

__all__ = ["EdgeLanes", "Lanes", "Sites", "emitter", "sectors", "yield_sites"]

#: A ``__syncwarp()`` yield.
WSYNC = ("w",)

_OPCODES = {
    "g": OP_GLOBAL_LOAD,
    "gs": OP_GLOBAL_STORE,
    "ga": OP_GLOBAL_ATOMIC,
    "s": OP_SHARED_LOAD,
    "ss": OP_SHARED_STORE,
    "sa": OP_SHARED_ATOMIC,
    "w": OP_WSYNC,
}


def yield_sites(code) -> list[tuple[tuple, tuple[str, int]]]:
    """Every yield of ``code`` in bytecode order, as ``(key, (file, line))``.

    ``key`` is the yielded tuple's ``(op, tag)``: the first two string
    constants loaded since the previous yield, or a folded tuple constant
    such as ``("w",)``.  The line is the one a generator suspended at that
    yield reports as ``f_lineno``.
    """
    out = []
    consts: list = []
    for ins in dis.get_instructions(code):
        if ins.opname == "LOAD_CONST" and isinstance(ins.argval, (str, tuple)):
            consts.append(ins.argval)
        elif ins.opname == "YIELD_VALUE":
            if consts and isinstance(consts[0], tuple):
                key = consts[0]
            else:
                key = tuple(c for c in consts if isinstance(c, str))[:2]
            line = next(n for a, b, n in code.co_lines() if a <= ins.offset < b)
            out.append((key, (code.co_filename, line)))
            consts = []
    return out


class Sites:
    """A kernel's yield sites in source order; a site's id is its position.

    Sites are named by position, not by ``(op, tag)``: every ``("w",)``
    yield has the same key but its own line.  The declared keys are
    checked against the kernel's bytecode when the lines are first read
    (on the first emitted launch), so an edited kernel fails instead of
    emitting a trace with stale lines.
    """

    def __init__(self, program, *keys: tuple):
        issued = [k for k in keys if k != WSYNC]
        if len(set(issued)) != len(issued) or any(k[0] not in _OPCODES for k in keys):
            raise RuntimeError(f"{program.__qualname__}: sites must be unique and supported")
        self.program = program
        self.keys = keys
        #: retired lane; ``ns`` site values in all
        self.done = len(keys)
        self.ns = len(keys) + 1
        self.opcode = np.array([_OPCODES[k[0]] for k in keys] + [0], dtype=np.uint8)
        self.parks = np.array([k == WSYNC for k in keys] + [False])
        self.park_ids = np.flatnonzero(self.parks)

    @functools.cached_property
    def lines(self) -> list[tuple[str, int]]:
        """``(file, line)`` of every site, read from the kernel's bytecode."""
        found = yield_sites(self.program.__code__)
        if [k for k, _ in found] != list(self.keys):
            raise RuntimeError(
                f"{self.program.__qualname__} yields {[k for k, _ in found]}, "
                f"expected {list(self.keys)}"
            )
        return [line for _, line in found]


def sectors(darr: DeviceArray, idx: np.ndarray) -> np.ndarray:
    """32-byte sector of each element ``idx`` of ``darr`` (a global payload)."""
    if darr.base % SECTOR_BYTES == 0 and SECTOR_BYTES % darr.itemsize == 0:
        # Sector-aligned array: each sector holds a whole number of elements.
        return idx // (SECTOR_BYTES // darr.itemsize) + darr.base // SECTOR_BYTES
    return (darr.base + idx * darr.itemsize) // SECTOR_BYTES


class _Tape:
    """Append-only record of staged values in one buffer that doubles as
    it fills, so a launch stages its rows in a few large arrays."""

    def __init__(self, dtype):
        self.n = 0
        self.buf = np.empty(0, dtype=dtype)

    def append(self, values: np.ndarray) -> None:
        end = self.n + values.size
        if end > self.buf.size:
            grown = np.empty(max(end, 2 * self.buf.size), dtype=self.buf.dtype)
            grown[: self.n] = self.buf[: self.n]
            self.buf = grown
        self.buf[self.n : end] = values
        self.n = end

    def view(self) -> np.ndarray:
        return self.buf[: self.n]


class _Rows:
    """Issued rows in the order they were run: per row its site, lane
    count, warp and lowest payload value, and each payload entry's offset
    from its row's lowest value.  A row's lanes touch nearby addresses, so
    16-bit offsets keep the staged payload a quarter of its final size;
    a chunk of rows whose offsets do not fit is staged wide."""

    def __init__(self, sites: Sites):
        self.parks = sites.parks
        self.tapes = {
            name: _Tape(dtype)
            for name, dtype in (
                ("site", np.int8), ("nl", np.int32), ("warp", np.int32),
                ("low", np.int64), ("narrow", np.uint16), ("wide", np.int64),
            )
        }
        self.chunks: list[int] = []  # rows per chunk
        self.wide: list[bool] = []

    def add(self, sites, nlanes, warps, pay, npay) -> None:
        """One chunk of rows; ``pay`` lists the payload of every row in row
        order, ``npay[i]`` entries for row ``i``."""
        starts = npay.cumsum() - npay
        if npay.all():
            low = np.minimum.reduceat(pay, starts)
        else:
            low = np.zeros(sites.size, dtype=np.int64)
            rows = npay > 0
            if pay.size:
                low[rows] = np.minimum.reduceat(pay, starts[rows])
        if pay.size:
            pay -= low.repeat(npay)
        wide = bool(pay.size) and bool(pay.max() >= 2**16)
        t = self.tapes
        t["wide" if wide else "narrow"].append(pay)
        t["site"].append(sites)
        t["nl"].append(nlanes)
        t["warp"].append(warps)
        t["low"].append(low)
        self.chunks.append(sites.size)
        self.wide.append(wide)


class Lanes:
    """Registers of every lane of the sampled blocks, one array each.

    Lanes are in record order (block by block, warp by warp, as
    :func:`repro.gpu.engine._record_blocks` runs them).  ``gw`` is a
    lane's warp among the sampled ones, ``tid``/``tib`` its global and
    in-block thread id, ``bs`` its block's slot and ``lane`` its lane id.
    A subclass names its :class:`Sites`, its registers (``REGS``, zero at
    launch), sets the lanes' first sites in :meth:`start`, and runs a site
    in :meth:`issue`.  Retired lanes are dropped from every register now
    and then, so registers are only ever indexed, never rebound.
    """

    SITES: Sites
    REGS: tuple[str, ...] = ()
    #: ``(first site, length)`` of each straight run: sites that follow each
    #: other unconditionally, except that the last may branch
    STRAIGHT: tuple[tuple[int, int], ...] = ()
    _IDENTITY = ("gw", "tid", "tib", "bs", "lane")

    def __init__(self, device, *, grid_dim, block_dim, args, shared_words, blocks):
        self.warp_size = ws = device.warp_size
        self.grid_dim, self.block_dim, self.args, self.blocks = grid_dim, block_dim, args, blocks
        self.wpb = -(-block_dim // ws)
        self.nblk = nblk = len(blocks)
        n = nblk * block_dim
        self._names = self._IDENTITY + self.REGS
        self._file = np.empty((len(self._names), n), dtype=np.int64)
        self._file[len(self._IDENTITY) :] = 0
        self._site = np.empty(n, dtype=np.int8)
        self._bind(n)
        t = np.arange(block_dim, dtype=np.int64)
        self.tid[:] = (np.asarray(blocks, dtype=np.int64)[:, None] * block_dim + t).ravel()
        self.tib[:] = np.tile(t, nblk)
        self.gw[:] = (np.arange(nblk, dtype=np.int64)[:, None] * self.wpb + t // ws).ravel()
        self.bs[:] = np.repeat(np.arange(nblk, dtype=np.int64), block_dim)
        self.lane[:] = self.tib % ws
        # One row of shared words per sampled block.  Indexing it raises and
        # wraps exactly like the block's SharedMemory.words.
        self.smem = np.empty((nblk, shared_words), dtype=np.int64)
        self.smem[:] = 0
        #: arg id -> [(warp, iteration) of the first write, array, index arrays]
        self._writes: dict[int, list] = {}
        self.it = 0
        self.site[:] = self.start()
        self._index()

    def _bind(self, n: int) -> None:
        for i, name in enumerate(self._names):
            setattr(self, name, self._file[i, :n])
        self.site = self._site[:n]

    def _index(self) -> None:
        """Per-warp segment starts and the per-lane tie-break terms."""
        gw = self.gw
        first = np.ones(gw.size, dtype=bool)
        first[1:] = gw[1:] != gw[:-1]
        self.starts = np.flatnonzero(first)
        self.warps = gw[self.starts]  # sampled warp of each segment
        self.wl = np.cumsum(first) - 1  # segment of each lane
        self.wl_key = self.wl * self.SITES.ns
        # The lower lane wins a tie, and the site rides in the low digits.
        self.rank = (self.warp_size - 1 - self.lane) * self.SITES.ns

    def compact(self) -> None:
        """Drop retired lanes from every register."""
        keep = self.site != self.SITES.done
        k = int(np.count_nonzero(keep))
        live = self._file[:, : keep.size]
        live[:, :k] = live[:, keep]
        self._site[:k] = self.site[keep]
        self._bind(k)
        self._index()

    # -- the kernel ------------------------------------------------------

    def start(self) -> np.ndarray:
        """Each lane's first site (``SITES.done`` for a lane that returns)."""
        raise NotImplementedError

    def issue(self, site: int, sub: np.ndarray) -> np.ndarray | None:
        """Run ``site`` for lanes ``sub``; returns their payload (``None``
        for a ``("w",)`` site, whose lanes are being released)."""
        raise NotImplementedError

    # -- memory ops for issue() ------------------------------------------

    def shared_load(self, sub, idx) -> np.ndarray:
        return self.smem[self.bs[sub], idx]

    def shared_store(self, sub, idx, values) -> None:
        # Within one row the highest lane writes a repeated word last.
        self.smem[self.bs[sub], idx] = values

    def shared_add(self, sub, idx, delta) -> np.ndarray:
        """Shared atomic add; each lane's old value, in ascending lane order."""
        bs = self.bs[sub]
        current = self.smem[bs, idx]
        words = bs * self.smem.shape[1] + idx % self.smem.shape[1]
        delta = np.broadcast_to(np.asarray(delta, dtype=np.int64), words.shape)
        order = np.argsort(words, kind="stable")
        w = words[order]
        d = delta[order]
        before = np.cumsum(d)
        ends = np.flatnonzero(np.append(w[1:] != w[:-1], True))
        total = before[ends]
        before -= d  # exclusive sums; each run restarts at zero
        base = before[np.append(0, ends[:-1] + 1)]
        before -= np.repeat(base, np.diff(np.append(-1, ends)))
        old = np.empty_like(words)
        old[order] = before
        old += current
        self.smem.reshape(-1)[w[ends]] += total - base
        return old

    def _logged(self, sub, darr: DeviceArray, idx) -> None:
        entry = self._writes.get(id(darr))
        first = (int(self.gw[sub].min()), self.it)
        if entry is None:
            self._writes[id(darr)] = [first, darr, [idx]]
        else:
            entry[0] = min(entry[0], first)
            entry[2].append(idx)

    def global_store(self, sub, darr: DeviceArray, idx, values) -> np.ndarray:
        darr.data[idx] = values
        self._logged(sub, darr, idx)
        return sectors(darr, idx)

    def global_add(self, sub, darr: DeviceArray, idx, delta) -> np.ndarray:
        """Global atomic add whose old value the kernel discards."""
        np.add.at(darr.data, idx, delta)
        self._logged(sub, darr, idx)
        return darr.base + idx * darr.itemsize

    def writeback(self) -> np.ndarray | None:
        """The launch's writeback log (:func:`repro.gpu.engine._writeback_log`)."""
        writes = sorted(self._writes.values(), key=lambda w: w[0])
        return _writeback_log([(darr, np.concatenate(idxs)) for _, darr, idxs in writes], self.args)

    # -- one scheduler step for every live warp --------------------------

    def select(self):
        """Per warp segment: the issuing site (``-1``: retired), its lane
        count, and whether the step releases parked lanes instead."""
        S = self.SITES
        ns, big = S.ns, self.warp_size * S.ns
        key = self.wl_key + self.site
        cnt = np.bincount(key, minlength=self.starts.size * ns).reshape(-1, ns)
        self.retired = int(cnt[:, S.done].sum())
        cnt[:, S.done] = -1
        parked = None
        if S.park_ids.size:
            self.parked_at = cnt[:, S.park_ids]
            parked = self.parked_at.sum(axis=1)
            cnt[:, S.park_ids] = 0  # below any runnable site, above retired
        cnt *= big
        self.cnt = cnt
        score = cnt.ravel()[key]
        score += self.rank
        score += self.site
        best = np.maximum.reduceat(score, self.starts)
        win = best % ns
        win[best < 0] = -1
        nlanes = best // big
        sync = None
        if parked is not None:
            sync = (best >= 0) & (best < big)
            if sync.any():
                nlanes[sync] = parked[sync]
            else:
                sync = None
        return win, nlanes, sync

    def run(self) -> LaunchTrace:
        S = self.SITES
        out = _Rows(S)
        runs = dict(self.STRAIGHT)
        while self.site.size:
            win, nlanes, sync = self.select()
            if self.retired * 2 > self.site.size:
                self.compact()
                continue
            live = win >= 0
            if not live.any():
                break
            at = self.site == win[self.wl]
            if sync is not None and (self.parked_at[sync] > 0).sum(axis=1).max() > 1:
                # a release whose lanes parked at different syncs
                at |= sync[self.wl] & S.parks[self.site]
            ix = at.nonzero()[0]
            isite = self.site[ix]
            order = isite.argsort(kind="stable")
            bounds = np.bincount(isite, minlength=S.ns).cumsum()
            pay = np.empty(ix.size, dtype=np.int64)
            started = []  # (first site, its lanes) of straight runs
            a = 0
            for site, b in enumerate(bounds[: S.done].tolist()):
                if b > a:
                    at = order[a:b]
                    sub = ix[at]
                    got = self.issue(site, sub)
                    if got is not None:
                        pay[at] = got
                    if site in runs:
                        started.append((site, sub))
                    a = b
            rows, nl = win[live], nlanes[live]
            npay = nl
            if sync is not None:
                pay = pay[~S.parks[isite]]
                npay = np.where(S.parks[rows], 0, nl)
            self.it += 1
            # This iteration's rows, then those of the straight runs, as one
            # chunk: each warp's rows stay in issue order.
            chunk = [(rows, nl, self.warps[live], pay, npay)]
            for first, sub in started:
                chunk += self._straight(first, runs[first], sub, win, nlanes)
            out.add(*(
                np.concatenate(part) if len(chunk) > 1 else part[0] for part in zip(*chunk)
            ))
        return self._trace(out)

    def _straight(self, first: int, length: int, sub, win, nlanes) -> list[tuple]:
        """Rows 2..``length`` of a straight run whose first site lanes
        ``sub`` just issued.  In a warp where no other lane waits at the
        run's later sites the group moves as one and keeps winning, so it
        issues those sites in this iteration.

        A run may open with a warp sync whose released lanes either go on
        to the run's second site or park again: when every parked lane of
        the warp was at that sync, they are its only runnable lanes.
        """
        go = win == first
        if self.SITES.parks[first]:
            go &= self.parked_at[:, self.SITES.park_ids == first][:, 0] == nlanes
            lanes = sub[go[self.wl[sub]]]
            lanes = lanes[self.site[lanes] == first + 1]
            nl = np.bincount(self.wl[lanes], minlength=go.size)
            go &= nl > 0
            nl = nl[go]
        else:
            go &= ~self.cnt[:, first + 1 : first + length].any(axis=1)
            lanes = sub[go[self.wl[sub]]]
            nl = nlanes[go]
        if not go.any():
            return []
        pays = [self.issue(site, lanes) for site in range(first + 1, first + length)]
        self.it += length - 1
        k = length - 1
        nl = np.concatenate([nl] * k) if k > 1 else nl
        return [(
            np.arange(first + 1, first + length, dtype=np.int8).repeat(go.sum()),
            nl,
            np.concatenate([self.warps[go]] * k),
            np.concatenate(pays) if k > 1 else pays[0],
            nl,
        )]

    def _trace(self, out: _Rows) -> LaunchTrace:
        S = self.SITES
        tapes = out.tapes
        site, nl, warp, low = (tapes[k].view() for k in ("site", "nl", "warp", "low"))
        npay = np.where(S.parks[site], 0, nl).astype(np.int64)
        # Each staged row's first entry in its payload tape.
        wide = np.repeat(np.array(out.wide, dtype=bool), out.chunks)
        narrow_n = np.where(wide, 0, npay)
        start = np.cumsum(narrow_n) - narrow_n
        if wide.any():
            wide_n = npay - narrow_n
            start[wide] = (np.cumsum(wide_n) - wide_n)[wide]
        # Record order is warp by warp, and each warp's rows were staged in
        # iteration order.
        order = np.argsort(warp, kind="stable")
        ops = S.opcode[site[order]]
        loc = site[order].astype(np.int32)
        npay = npay[order]
        nl = nl[order].astype(np.int64)
        row_off = np.zeros(self.nblk * self.wpb + 1, dtype=np.int64)
        np.cumsum(np.bincount(warp, minlength=row_off.size - 1), out=row_off[1:])
        pay_off = np.zeros(nl.size + 1, dtype=np.int64)
        np.cumsum(npay, out=pay_off[1:])
        payload = np.empty(int(pay_off[-1]), dtype=np.int64)

        # Intern each site's line in first-use order, then map site -> location id.
        table = LocationTable()
        used, first = np.unique(loc, return_index=True)
        lut = np.zeros(S.ns, dtype=np.int32)
        for s in used[np.argsort(first)].tolist():
            lut[s] = table.intern(S.lines[s])
        np.take(lut, loc, out=loc)

        aux = np.zeros(nl.size, dtype=np.int64)
        per_block = []
        for b in range(self.nblk):
            r0, r1 = row_off[b * self.wpb], row_off[(b + 1) * self.wpb]
            p0, p1 = pay_off[r0], pay_off[r1]
            rows, cnt = order[r0:r1], npay[r0:r1]
            src = np.repeat(start[rows] - (pay_off[r0:r1] - p0), cnt) + np.arange(p1 - p0)
            seg = payload[p0:p1]
            seg[:] = np.repeat(low[rows], cnt)
            w = np.repeat(wide[rows], cnt)
            if w.any():
                seg[w] += tapes["wide"].buf[src[w]]
                w = ~w
                seg[w] += tapes["narrow"].buf[src[w]]
            else:
                seg += tapes["narrow"].buf[src]
            per_block.append(
                BlockTrace(ops[r0:r1], nl[r0:r1], aux[r0:r1], npay[r0:r1], seg, loc[r0:r1])
            )
        unique, instances = dedupe_blocks(per_block)
        return LaunchTrace(
            grid_dim=self.grid_dim,
            block_dim=self.block_dim,
            warp_size=self.warp_size,
            blocks=tuple(self.blocks.tolist()),
            unique=unique,
            instances=instances,
            writeback=self.writeback(),
            locations=table.as_tuple(),
        )


class EdgeLanes(Lanes):
    """Lanes of a warp-per-edge kernel: edges in a grid stride from
    ``tid // 32``, each opened by the six-load edge prologue and the last
    site the ``("ga", "acc")`` that adds the lane's count ``tc`` to
    ``out[0]``.

    Sites 0-5 must be the prologue's ``eu ev rpu rpu1 rpv rpv1`` loads;
    :meth:`unpack` names the kernel's arguments, and :meth:`edge_ready`
    continues once ``us``/``ue`` and ``vs``/``ve`` bound the two lists.
    """

    PROLOGUE = (("g", "eu"), ("g", "ev"), ("g", "rpu"), ("g", "rpu1"), ("g", "rpv"), ("g", "rpv1"))
    #: each prologue load: (array, index register, offset, destination register)
    _LOADS = (
        ("esrc", "edge", 0, "ue"), ("col", "edge", 0, "ve"), ("row_ptr", "ue", 0, "us"),
        ("row_ptr", "ue", 1, "ue"), ("row_ptr", "ve", 0, "vs"), ("row_ptr", "ve", 1, "ve"),
    )
    REGS = ("edge", "us", "ue", "vs", "ve", "tc")
    STRAIGHT = ((0, 6),)
    #: threads per edge (the kernels' literal 32)
    GROUP = 32

    def __init__(self, device, *, args, **launch):
        if self.SITES.keys[:6] != self.PROLOGUE or self.SITES.keys[-1] != ("ga", "acc"):
            raise RuntimeError(f"{type(self).__name__}: not an edge-prologue kernel")
        self.acc = self.SITES.done - 1
        self.m, self.warp_slots, self.esrc, self.col, self.row_ptr, self.out = self.unpack(args)
        super().__init__(device, args=args, **launch)

    def unpack(self, args) -> tuple:
        """``(m, warp_slots, esrc, col, row_ptr, out)`` from the kernel's args."""
        raise NotImplementedError

    def edge_ready(self, sub: np.ndarray) -> None:
        raise NotImplementedError

    def start(self) -> np.ndarray:
        self.edge[:] = self.tid // self.GROUP
        return np.where(self.edge < self.m, 0, self.acc)

    def next_edge(self, sub) -> None:
        if not sub.size:
            return
        edge = self.edge[sub] + self.warp_slots
        self.edge[sub] = edge
        self.site[sub] = np.where(edge < self.m, 0, self.acc)

    def prologue(self, site, sub) -> np.ndarray:
        """Sites 0-5: ``u``/``v`` live in ``ue``/``ve`` until ``row_ptr[u + 1]``
        and ``row_ptr[v + 1]`` overwrite them."""
        name, reg, offset, dest = self._LOADS[site]
        darr = getattr(self, name)
        idx = getattr(self, reg)[sub] + offset
        getattr(self, dest)[sub] = darr.data[idx]
        if site == 5:
            self.edge_ready(sub)
        else:
            self.site[sub] = site + 1
        return sectors(darr, idx)

    def finish(self, sub) -> np.ndarray:
        """The final ``("ga", "acc", out, 0, tc)``: the lanes retire."""
        self.site[sub] = self.SITES.done
        return self.global_add(sub, self.out, np.zeros(sub.size, dtype=np.int64), self.tc[sub])


def emitter(lanes_cls):
    """An array emitter (see :func:`repro.gpu.engine.register_emitter`)
    that records a launch with ``lanes_cls``."""

    def emit(device, program, *, grid_dim, block_dim, args, shared_words, blocks) -> LaunchTrace:
        return lanes_cls(
            device, grid_dim=grid_dim, block_dim=block_dim, args=args,
            shared_words=shared_words, blocks=blocks,
        ).run()

    return emit
