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
  key the scheduler's ascending lane scan inserts).  A ``("bc", ...)``
  exchange issues only when no other site has runnable lanes;
* a lane that reaches ``("w",)`` parks.  A warp with no runnable lane
  left releases its parked lanes in one ``OP_WSYNC`` row: ``nlanes`` is
  the number parked, and its line is the lowest parked lane's;
* a lane that reaches ``("y",)`` (``__syncthreads``) parks until every
  warp of its block has parked there or retired.  The block then emits
  one ``OP_SYNC_EVENT`` row per parked warp and enters its next *phase*;
* the winning lanes run their state machine to the next yield, and the
  warp emits one row whose payload lists, in ascending lane order, the
  32-byte sector of a global load or store, the byte address of a global
  atomic, or the word index of a shared access
  (:meth:`repro.gpu.engine.RecordingWarp._issue`).

Rows are put in record order at the end: block by block, phase by phase,
warp by warp (as :func:`repro.gpu.engine._record_blocks` runs them), and
each warp's rows in issue order.

Shared memory is a real word array per sampled block, which all of its
warps share, so shared loads read what the emitted stores wrote, and a
shared atomic add returns the word's previous value plus the deltas of
the lower lanes (of lower warps first) that hit the same word in the
same iteration.  Global stores and atomics write the launch's argument
arrays and are logged for the writeback; a global pool that several
sub-groups reuse is a :class:`Workspace`.

The kit is exact under three conditions, which a kernel must meet before
it gets an emitter: its op stream is a pure function of its inputs; the
global elements it stores are private to one warp (or kept in a
:class:`Workspace`); and within each barrier phase no warp reads, or
updates atomically more than once, a shared word that another warp of
its block writes -- unless the kernel lists that phase in
:attr:`Lanes.ORDERED`, where a block's warps run one after another.
Generator recording runs warps one after another; the kit runs them side
by side, and the two orders agree only when no warp can see another's
effects.  Generator recording stays the reference: the tests and
``repro.verify engines`` record both ways and diff the traces.
"""

from __future__ import annotations

import dis
import functools

import numpy as np

from ..obs.attribution import LocationTable, package_path
from .engine import _writeback_log
from .memory import DeviceArray
from .metrics import SECTOR_BYTES
from .trace import (
    OP_ALU,
    OP_GLOBAL_ATOMIC,
    OP_GLOBAL_LOAD,
    OP_GLOBAL_STORE,
    OP_SHARED_ATOMIC,
    OP_SHARED_LOAD,
    OP_SHARED_STORE,
    OP_SYNC_EVENT,
    OP_WSYNC,
    BlockTrace,
    LaunchTrace,
    dedupe_blocks,
)

__all__ = [
    "BARRIER", "VARIABLE", "WSYNC", "EdgeLanes", "Lanes", "Sites", "Workspace",
    "emitter", "sectors", "yield_sites",
]

#: A ``__syncwarp()`` yield.
WSYNC = ("w",)
#: A ``__syncthreads()`` yield.
BARRIER = ("y",)
#: The key of a yield whose tuple is a variable (``yield sync``).
VARIABLE = ()

_OPCODES = {
    "g": OP_GLOBAL_LOAD,
    "gs": OP_GLOBAL_STORE,
    "ga": OP_GLOBAL_ATOMIC,
    "s": OP_SHARED_LOAD,
    "ss": OP_SHARED_STORE,
    "sa": OP_SHARED_ATOMIC,
    "bc": OP_ALU,
    "w": OP_WSYNC,
    "y": OP_SYNC_EVENT,
}

# A row's record-order key: its block's slot, the block's phase, whether
# it is a barrier row, and its warp in the block, high bits to low.
_BLOCK_SHIFT = 40
_PHASE_SHIFT = 17
_SYNC_ROW = 1 << 16


def yield_sites(code) -> list[tuple[tuple, tuple[str, int]]]:
    """Every yield of ``code`` in bytecode order, as ``(key, (file, line))``
    with the file named by :func:`~repro.obs.attribution.package_path`.

    ``key`` is the yielded tuple's ``(op, tag)``: the first two string
    constants loaded since the previous yield, or the head of a folded
    tuple constant such as ``("w",)``, or :data:`VARIABLE` for a yielded
    variable.  The line is the one a generator suspended at that yield
    reports as ``f_lineno``.
    """
    out = []
    strs: list[str] = []
    prev = None
    for ins in dis.get_instructions(code):
        if ins.opname == "YIELD_VALUE":
            if prev.opname == "LOAD_CONST" and isinstance(prev.argval, tuple):
                key = prev.argval[:2]
            elif prev.opname == "BUILD_TUPLE":
                key = tuple(strs[:2])
            else:
                key = VARIABLE
            line = next(n for a, b, n in code.co_lines() if a <= ins.offset < b)
            out.append((key, (package_path(code.co_filename), line)))
            strs = []
        elif ins.opname == "LOAD_CONST" and isinstance(ins.argval, str):
            strs.append(ins.argval)
        if ins.opname != "CACHE":
            prev = ins
    return out


@functools.lru_cache(maxsize=None)
def _kernel_sites(program) -> tuple:
    return tuple(yield_sites(program.__code__))


class Sites:
    """A kernel's yield sites in source order; a site's id is its position.

    Sites are named by position, not by ``(op, tag)``: every ``("w",)``
    yield has the same key but its own line.  ``keys`` are the keys
    :func:`yield_sites` reads; ``var`` resolves a :data:`VARIABLE` yield
    for a launch (:data:`WSYNC` or :data:`BARRIER`), and ``skip`` names
    sites a launch never reaches, such as another branch's copy of a
    site.  Two reached sites may not share a key: the scheduler groups
    lanes by key.  The declared keys are checked against the kernel's
    bytecode when the lines are first read (on the first emitted launch),
    so an edited kernel fails instead of emitting a trace with stale
    lines.

    Site ``done`` (one past the last) is a retired lane, and also names
    the barrier rows a block emits when it passes a ``("y",)``.
    """

    def __init__(self, program, *keys: tuple, var: tuple | None = None, skip=()):
        self.program = program
        self.declared = keys
        keys = tuple(var if k == VARIABLE else k for k in keys)
        parks = [k in (WSYNC, BARRIER) for k in keys]
        reached = [k for i, (k, p) in enumerate(zip(keys, parks)) if not p and i not in skip]
        if (
            None in keys
            or len(set(reached)) != len(reached)
            or any(k[0] not in _OPCODES for k in keys)
        ):
            raise RuntimeError(f"{program.__qualname__}: sites must be unique and supported")
        self.keys = keys
        self.done = len(keys)
        self.ns = len(keys) + 1
        self.opcode = np.array([_OPCODES[k[0]] for k in keys] + [OP_SYNC_EVENT], dtype=np.uint8)
        self.wsync = np.array([k == WSYNC for k in keys] + [False])
        self.barrier = np.array([k == BARRIER for k in keys] + [False])
        self.cross = np.array([k[0] == "bc" for k in keys] + [False])
        #: sites whose rows carry no payload
        self.bare = self.wsync | self.barrier | self.cross
        self.bare[-1] = True
        #: sites that issue ahead of a cross-lane exchange
        self.regular = ~self.bare
        self.wsync_ids = np.flatnonzero(self.wsync)
        self.barrier_ids = np.flatnonzero(self.barrier)

    @functools.cached_property
    def lines(self) -> list[tuple[str, int]]:
        """``(file, line)`` of every site, read from the kernel's bytecode."""
        found = _kernel_sites(self.program)
        if [k for k, _ in found] != list(self.declared):
            raise RuntimeError(
                f"{self.program.__qualname__} yields {[k for k, _ in found]}, "
                f"expected {list(self.declared)}"
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
    count, record-order key and lowest payload value, and each payload
    entry's offset from its row's lowest value.  Rows are staged in
    chunks of about 64K payload entries.  A row's lanes touch nearby
    addresses, so 16-bit offsets keep the staged payload a quarter of its
    final size; a chunk whose offsets do not fit is staged wide."""

    def __init__(self):
        self.tapes = {
            name: _Tape(dtype)
            for name, dtype in (
                ("site", np.int8), ("nl", np.int32), ("key", np.int64),
                ("low", np.int64), ("narrow", np.uint16), ("wide", np.int64),
            )
        }
        self.chunks: list[int] = []  # rows per chunk
        self.wide: list[bool] = []
        self._pending: list[tuple] = []
        self._npay = 0

    def add(self, sites, nlanes, keys, pay, npay) -> None:
        """Rows in issue order; ``pay`` lists the payload of every row in
        row order, ``npay[i]`` entries for row ``i``."""
        self._pending.append((sites, nlanes, keys, pay, npay))
        self._npay += pay.size
        if self._npay >= 1 << 16:
            self.stage()

    def stage(self) -> None:
        """Move the pending rows to the tapes as one chunk."""
        if not self._pending:
            return
        sites, nlanes, keys, pay, npay = (np.concatenate(part) for part in zip(*self._pending))
        self._pending, self._npay = [], 0
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
        t["key"].append(keys)
        t["low"].append(low)
        self.chunks.append(sites.size)
        self.wide.append(wide)


def _last_of_runs(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of sorted ``keys`` is the last of its run."""
    last = np.ones(keys.size, dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    return last


class Workspace:
    """A global array that several sub-groups reuse, such as a spill pool
    indexed modulo its slots (:meth:`Lanes.workspace`).

    Generator recording runs the sub-groups one after another, so each
    reads back what it wrote before the next overwrites it.  Here they run
    side by side, so each owner keeps the words it writes to itself, and
    the array takes every owner's words in owner order when the launch
    ends.  Owners are numbered in record order, and an owner reads only
    words it wrote.
    """

    def __init__(self, darr: DeviceArray):
        self.darr = darr
        self.span = darr.data.size
        self._keys: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._table = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def store(self, owner, idx, values) -> None:
        self.darr.data[idx]  # out of range raises as the generators' store does
        self._keys.append(owner * self.span + idx % self.span)
        self._vals.append(np.broadcast_to(values, idx.shape).astype(np.int64))

    def _merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(owner, index)`` key, ascending, with its last value."""
        if self._keys:
            keys = np.concatenate([self._table[0], *self._keys])
            vals = np.concatenate([self._table[1], *self._vals])
            order = np.argsort(keys, kind="stable")
            keys, vals = keys[order], vals[order]
            last = _last_of_runs(keys)
            self._table = (keys[last], vals[last])
            self._keys, self._vals = [], []
        return self._table

    def load(self, owner, idx) -> np.ndarray:
        keys, vals = self._merged()
        return vals[np.searchsorted(keys, owner * self.span + idx % self.span)]

    def flush(self) -> None:
        """Write every owner's words to the array: a word written by
        several owners takes the last owner's value."""
        keys, vals = self._merged()
        idx = keys % self.span
        order = np.argsort(idx, kind="stable")  # owners ascending per word
        idx, vals = idx[order], vals[order]
        last = _last_of_runs(idx)
        self.darr.data[idx[last]] = vals[last]


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
    #: barrier phases (0 before a block's first ``("y",)``) in which a
    #: block's warps run one after another, as generator recording runs
    #: them: phases where one warp's shared effects steer another's
    ORDERED: tuple[int, ...] = ()
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
        self._site = np.empty(n, dtype=np.int64)
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
        #: arg id -> [(record key, iteration) of the first write, array, index arrays]
        self._writes: dict[int, list] = {}
        self._pools: list[Workspace] = []
        self.it = 0
        self.phase = np.zeros(nblk, dtype=np.int64)  # barriers each block passed
        #: each site's id, repeated for a row per sampled warp
        self._site_rows = np.repeat(np.arange(self.SITES.ns, dtype=np.int8)[:, None], nblk * self.wpb, axis=1)
        # Per site: its level's lift above the lane count, scaled, plus the
        # site id that rides in the low digits of a lane's score.
        self._columns = np.arange(self.SITES.ns) + ws * ws * self.SITES.ns * self.SITES.regular
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
        self.seg_bs = self.bs[self.starts]  # block slot of each segment
        warps = gw[self.starts]  # sampled warp of each segment
        self._seg_key = (self.seg_bs << _BLOCK_SHIFT) + warps - self.seg_bs * self.wpb
        self._keys()
        self.wl = np.cumsum(first) - 1  # segment of each lane
        self.wl_key = self.wl * self.SITES.ns
        # The lower lane wins a tie.
        self.rank = (self.warp_size - 1 - self.lane) * self.SITES.ns

    def _keys(self) -> None:
        """Each segment's record-order key for the rows it issues now."""
        self.okey = self._seg_key + (self.phase[self.seg_bs] << _PHASE_SHIFT)

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
        for a site whose rows carry none: a ``("w",)`` or ``("y",)`` whose
        lanes are being released, or a ``("bc", ...)`` exchange)."""
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
        first = (int(self.okey[self.wl[sub]].min()), self.it)
        if entry is None:
            self._writes[id(darr)] = [first, darr, [idx]]
        else:
            entry[0] = min(entry[0], first)
            entry[2].append(idx)

    def global_store(self, sub, darr: DeviceArray, idx, values) -> np.ndarray:
        darr.data[idx] = values
        self._logged(sub, darr, idx)
        return sectors(darr, idx)

    def workspace(self, darr: DeviceArray) -> Workspace:
        """A :class:`Workspace` over argument ``darr``, written back with
        the launch."""
        pool = Workspace(darr)
        self._pools.append(pool)
        return pool

    def pool_store(self, sub, pool: Workspace, owner, idx, values) -> np.ndarray:
        """A global store into ``pool``, as owner ``owner[i]`` of lane ``sub[i]``."""
        pool.store(owner, idx, values)
        self._logged(sub, pool.darr, idx)
        return sectors(pool.darr, idx)

    def global_add(self, sub, darr: DeviceArray, idx, delta) -> np.ndarray:
        """Global atomic add whose old value the kernel discards."""
        np.add.at(darr.data, idx, delta)
        self._logged(sub, darr, idx)
        return darr.base + idx * darr.itemsize

    def writeback(self) -> np.ndarray | None:
        """The launch's writeback log (:func:`repro.gpu.engine._writeback_log`)."""
        for pool in self._pools:
            pool.flush()
        writes = sorted(self._writes.values(), key=lambda w: w[0])
        return _writeback_log([(darr, np.concatenate(idxs)) for _, darr, idxs in writes], self.args)

    # -- one scheduler step for every live warp --------------------------

    def select(self):
        """Per warp segment: the issuing site (``-1``: none), its lane
        count, and whether the step releases parked lanes instead.

        A site's level decides: retired lanes -2, lanes at a ``("y",)``
        -1, at a ``("w",)`` 0, at a cross-lane exchange their count, and
        at any other site their count plus a warp.  The level scales past
        every tie-break term.
        """
        S = self.SITES
        ws = self.warp_size
        ns, big = S.ns, ws * S.ns
        key = self.wl_key + self.site
        cnt = np.bincount(key, minlength=self.starts.size * ns).reshape(-1, ns)
        self.retired = int(cnt[:, S.done].sum())
        cnt[:, S.done] = -2
        parked = None
        if S.wsync_ids.size:
            self.parked_at = cnt[:, S.wsync_ids]
            parked = self.parked_at.sum(axis=1)
            cnt[:, S.wsync_ids] = 0
        if S.barrier_ids.size:
            cnt[:, S.barrier_ids] = -1
        self.cnt = cnt
        level = cnt * big
        level += self._columns
        score = level.ravel()[key]
        score += self.rank
        best = np.maximum.reduceat(score, self.starts)
        win = best % ns
        nlanes = best // big  # for now the level: -2, -1, 0 or a count
        win[nlanes < 0] = -1
        if S.barrier_ids.size:
            self.waiting = nlanes == -1
        sync = None
        if parked is not None:
            sync = nlanes == 0
            if sync.any():
                nlanes[sync] = parked[sync]
            else:
                sync = None
        nlanes[nlanes > ws] -= ws
        return win, nlanes, sync

    def _release(self, win, out: _Rows) -> bool:
        """Open the barrier of every block whose warps have all parked at a
        ``("y",)`` or retired: one barrier row per parked warp, then the
        lanes go on into the block's next phase."""
        if not self.waiting.any():
            return False
        busy = np.bincount(self.seg_bs[win >= 0], minlength=self.nblk) > 0
        opened = (np.bincount(self.seg_bs[self.waiting], minlength=self.nblk) > 0) & ~busy
        if not opened.any():
            return False
        segs = self.waiting & opened[self.seg_bs]
        k = int(segs.sum())
        none = np.zeros(k, dtype=np.int64)
        out.add(np.full(k, self.SITES.done, dtype=np.int8), none, self.okey[segs] + _SYNC_ROW,
                np.empty(0, dtype=np.int64), none)
        self.phase[opened] += 1
        self._keys()
        lanes = np.flatnonzero(opened[self.bs] & self.SITES.barrier[self.site])
        parked = [(s, lanes[self.site[lanes] == s]) for s in self.SITES.barrier_ids.tolist()]
        for s, sub in parked:
            if sub.size:
                self.issue(s, sub)
        return True

    def _hold(self, win, sync) -> None:
        """In an :attr:`ORDERED` phase only a block's lowest warp that has
        not parked at its barrier runs."""
        ordered = np.isin(self.phase, self.ORDERED)[self.seg_bs] & (win >= 0)
        if not ordered.any():
            return
        at = np.flatnonzero(ordered)
        blk = self.seg_bs[at]
        held = at[np.append(False, blk[1:] == blk[:-1])]
        win[held] = -1
        if sync is not None:
            sync[held] = False

    def run(self) -> LaunchTrace:
        S = self.SITES
        out = _Rows()
        runs = dict(self.STRAIGHT)
        barriers = S.barrier_ids.size > 0
        bare = S.wsync_ids.size > 0 or S.cross.any()
        while self.site.size:
            win, nlanes, sync = self.select()
            if barriers:
                if self._release(win, out):
                    continue
                if self.ORDERED:
                    self._hold(win, sync)
            live = win >= 0
            if not np.count_nonzero(live):
                break
            rows, nl = win[live], nlanes[live]
            at = self.site == win[self.wl]
            if sync is not None and (self.parked_at[sync] > 0).sum(axis=1).max() > 1:
                # a release whose lanes parked at different syncs
                at |= sync[self.wl] & S.wsync[self.site]
            ix = at.nonzero()[0]
            isite = self.site[ix]
            pay = np.empty(ix.size, dtype=np.int64)
            started = []  # (first site, its lanes) of straight runs
            for site in np.bincount(isite, minlength=S.ns).nonzero()[0].tolist():
                at = isite == site
                sub = ix[at]
                got = self.issue(site, sub)
                if got is not None:
                    pay[at] = got
                if site in runs:
                    started.append((site, sub))
            npay = nl
            if bare:
                empty = S.bare[rows]
                if np.count_nonzero(empty):
                    pay = pay[~S.bare[isite]]
                    npay = np.where(empty, 0, nl)
            self.it += 1
            # This iteration's rows, then those of the straight runs: each
            # warp's rows stay in issue order.
            out.add(rows, nl, self.okey[live], pay, npay)
            for first, sub in started:
                self._straight(first, runs[first], sub, win, nlanes, out)
            if self.retired * 2 > self.site.size:
                self.compact()
        return self._trace(out)

    def _straight(self, first: int, length: int, sub, win, nlanes, out: _Rows) -> None:
        """Rows 2..``length`` of a straight run whose first site lanes
        ``sub`` just issued.  In a warp where no other lane waits at the
        run's later sites the group moves as one and keeps winning, so it
        issues those sites in this iteration.

        A run may open with a warp sync whose released lanes either go on
        to the run's second site or park again: when every parked lane of
        the warp was at that sync, they are its only runnable lanes.
        """
        go = win == first
        if self.SITES.wsync[first]:
            go &= self.parked_at[:, self.SITES.wsync_ids == first][:, 0] == nlanes
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
            return
        keys = self.okey[go]
        for site in range(first + 1, first + length):
            pay = self.issue(site, lanes)
            out.add(self._site_rows[site][: keys.size], nl, keys, pay, nl)
        self.it += length - 1

    def _trace(self, out: _Rows) -> LaunchTrace:
        S = self.SITES
        out.stage()
        tapes = out.tapes
        site, nl, key, low = (tapes[k].view() for k in ("site", "nl", "key", "low"))
        npay = np.where(S.bare[site], 0, nl).astype(np.int64)
        # Each staged row's first entry in its payload tape.
        wide = np.repeat(np.array(out.wide, dtype=bool), out.chunks)
        narrow_n = np.where(wide, 0, npay)
        start = np.cumsum(narrow_n) - narrow_n
        if wide.any():
            wide_n = npay - narrow_n
            start[wide] = (np.cumsum(wide_n) - wide_n)[wide]
        # Record order is by key, and each warp's rows of a phase were
        # staged in iteration order.
        order = np.argsort(key, kind="stable")
        ops = S.opcode[site[order]]
        loc = site[order].astype(np.int32)
        npay = npay[order]
        nl = nl[order].astype(np.int64)
        row_off = np.zeros(self.nblk + 1, dtype=np.int64)
        np.cumsum(np.bincount(key >> _BLOCK_SHIFT, minlength=self.nblk), out=row_off[1:])
        pay_off = np.zeros(nl.size + 1, dtype=np.int64)
        np.cumsum(npay, out=pay_off[1:])
        payload = np.empty(int(pay_off[-1]), dtype=np.int64)

        # Intern each site's line in first-use order, then map site -> location
        # id; barrier rows carry none (id 0).
        table = LocationTable()
        used, first = np.unique(loc, return_index=True)
        lut = np.zeros(S.ns, dtype=np.int32)
        for s in used[np.argsort(first)].tolist():
            if s != S.done:
                lut[s] = table.intern(S.lines[s])
        np.take(lut, loc, out=loc)

        # Fill the payload a run of blocks at a time, about 64K entries a run.
        block_pay = pay_off[row_off]
        b0 = 0
        while b0 < self.nblk:
            b1 = max(b0 + 1, int(np.searchsorted(block_pay, block_pay[b0] + (1 << 16), "right")) - 1)
            r0, r1 = row_off[b0], row_off[b1]
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
            b0 = b1
        aux = np.zeros(nl.size, dtype=np.int64)
        per_block = []
        for b in range(self.nblk):
            r0, r1 = row_off[b], row_off[b + 1]
            per_block.append(BlockTrace(
                ops[r0:r1], nl[r0:r1], aux[r0:r1], npay[r0:r1],
                payload[pay_off[r0] : pay_off[r1]], loc[r0:r1],
            ))
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
