"""Record/replay simulator engine.

The event executor (:mod:`repro.gpu.warp`) advances one Python generator
event at a time, interleaving scheduling, functional effects, and metric
accounting.  This module splits that work in two:

* **record** — :class:`RecordingWarp` reuses the event executor's lockstep
  scheduler verbatim (site grouping, winner selection, and barrier
  semantics determine cross-lane results, so both engines must share it)
  but, instead of accruing metrics and walking caches per instruction,
  appends one row per issued warp instruction to a
  :class:`~repro.gpu.trace.BlockTrace`.  Functional effects still execute
  during record — loads observe memory, stores and atomics mutate it —
  because they steer the generators' control flow.  A kernel whose op
  stream is a pure function of its inputs may register an *array emitter*
  (:func:`register_emitter`) that writes the identical trace with
  vectorised NumPy instead; :func:`record_launch` prefers it, and
  generator recording (:func:`record_generators`) stays the reference the
  emitter is checked against (:func:`emitter_mismatches`).

* **replay** — :func:`replay_launch` reduces the trace arrays to nvprof
  counters with vectorised NumPy: per-op totals by ``bincount``, per-group
  sector coalescing by ``lexsort`` + run-boundary dedup, atomic and shared
  serialisation degrees by run-length maxima, and the L1/L2 LRU walks by a
  no-eviction fast path (an LRU whose working set fits never evicts, so
  misses are exactly first occurrences — ``np.unique`` territory) with the
  shared :class:`~repro.gpu.memory.SectorCache` as the exact fallback when
  a stream is large enough to evict.

Replay is metric-identical to the event engine because every counter is a
pure function of the per-group payload multisets and their issue order,
both of which the trace preserves; see DESIGN.md §4e for the argument.

Every launch takes this path.  The event engine
(:func:`repro.gpu.kernel._run_event`) is kept only as the oracle it is
checked against: :func:`event_oracle` routes the launches of a scope
through it, for ``repro.verify engines``, the tests and
``benchmarks/bench_sim_engine.py``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from ..obs.attribution import (
    LocationTable,
    active_collector,
    capture_active,
    innermost_location,
    notify_launch,
)
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from .intrinsics import ThreadCtx
from .memory import DeviceArray, SectorCache
from .metrics import SECTOR_BYTES, ProfileMetrics
from .sharedmem import SharedMemory
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
    REPLAY_FIELDS,
    BlockTrace,
    BlockTraceBuilder,
    LaunchTrace,
    dedupe_blocks,
    get_trace_cache,
    launch_fingerprint,
    trace_cache_enabled,
)
from .warp import _DONE, Warp

__all__ = [
    "RecordingWarp",
    "check_emitters",
    "emitter_mismatches",
    "record_generators",
    "record_launch",
    "register_emitter",
    "replay_launch",
    "replay_line_profile",
    "simulate_vectorized",
    "stage_times",
]

#: open :func:`event_oracle` scopes; launches take the event engine while > 0.
_oracle_depth = 0


@contextmanager
def event_oracle():
    """Run every launch in this scope on the event engine, the reference
    record/replay must match exactly.  Not part of the public API: only
    ``repro.verify engines``, tests and the engine benchmark enter it."""
    global _oracle_depth
    _oracle_depth += 1
    try:
        yield
    finally:
        _oracle_depth -= 1


def in_event_oracle() -> bool:
    """Whether the current launch runs inside an :func:`event_oracle` scope."""
    return _oracle_depth > 0


# --------------------------------------------------------------------------
# record phase
# --------------------------------------------------------------------------


class RecordingWarp(Warp):
    """Warp that runs the lockstep scheduler but emits trace rows.

    Functional effects (loads observe memory, stores/atomics mutate it,
    cross-lane shuffles exchange values) still execute; metric accounting
    and cache walks are deferred to replay.  ``writes`` collects every
    written global array element for the launch's writeback log.

    Every emitted row carries the interned source location of the yield
    that produced it (``locs`` is the launch-wide table).  Recording the
    location unconditionally — not only when a profiler is attached — is
    what makes attribution survive trace-cache round-trips: a warm hit
    replays per-line counters without re-running a single generator.
    """

    def __init__(
        self,
        programs,
        smem: SharedMemory,
        builder: BlockTraceBuilder,
        writes: dict,
        locs: LocationTable | None = None,
        loc_cache: dict | None = None,
    ):
        self.smem = smem
        self.builder = builder
        self.writes = writes
        self.locs = locs if locs is not None else LocationTable()
        # (code object, f_lasti) -> interned location id.  Decoding
        # ``f_lineno`` walks the code object's line table on every read;
        # the bytecode offset of a suspended yield names its line uniquely,
        # so one decode per yield *site* (shared launch-wide) replaces one
        # per issued row.
        self._loc_cache = loc_cache if loc_cache is not None else {}
        # Bound append/extend targets of the shared block builder: the
        # recording hot path emits rows without an attribute walk per field.
        self._eops = builder.ops.append
        self._enlanes = builder.nlanes.append
        self._eaux = builder.aux.append
        self._enpay = builder.npay.append
        self._eloc = builder.loc.append
        self._epay = builder.payload.extend
        self.gens = list(programs)
        self.pending = []
        for gen in self.gens:
            try:
                self.pending.append(gen.send(None))
            except StopIteration:
                self.pending.append(_DONE)
        self.live = [
            lane for lane, ev in enumerate(self.pending) if ev is not _DONE
        ]
        self._retired = False

    # -- engine hooks --------------------------------------------------------

    def _site_loc(self, gen) -> int:
        """Interned location id of a suspended generator's innermost yield."""
        while True:
            sub = gen.gi_yieldfrom
            if sub is None or getattr(sub, "gi_frame", None) is None:
                break
            gen = sub
        frame = gen.gi_frame
        if frame is None:
            return 0
        key = (gen.gi_code, frame.f_lasti)
        loc = self._loc_cache.get(key)
        if loc is None:
            loc = self.locs.intern(innermost_location(gen))
            self._loc_cache[key] = loc
        return loc

    def _barrier_released(self) -> None:
        self.builder.emit(OP_SYNC_EVENT, 0)

    def _release_wsync(self, lanes) -> None:
        loc = self._site_loc(self.gens[lanes[0]])
        self.builder.emit(OP_WSYNC, len(lanes), loc=loc)
        for lane in lanes:
            self._advance(lane, None)

    def _issue(self, op: str, tag, lanes) -> None:
        # Fully inlined per-branch loops: lane advancement (generator send
        # + StopIteration retirement), write tracking, and row emission all
        # run without a method call per lane — this is the hottest loop of
        # the record phase.
        pending = self.pending
        gens = self.gens
        # Lane 0's suspended frame names the source line for the whole site
        # (all lanes share the instruction); read it before advancing.
        loc = self._site_loc(gens[lanes[0]])
        if op == "g":
            pay = []
            grow = pay.append
            for lane in lanes:
                ev = pending[lane]
                darr = ev[2]
                idx = ev[3]
                grow((darr.base + idx * darr.itemsize) // SECTOR_BYTES)
                try:
                    pending[lane] = gens[lane].send(int(darr.data[idx]))
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_GLOBAL_LOAD
            aux = 0
        elif op == "a":
            extra = 0
            for lane in lanes:
                ev = pending[lane]
                if ev[1] > extra:
                    extra = ev[1]
                try:
                    pending[lane] = gens[lane].send(None)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_ALU
            aux = extra - 1 if extra > 1 else 0
            pay = ()
        elif op == "bc":
            exchanged = {lane: pending[lane][2] for lane in lanes}
            for lane in lanes:
                try:
                    pending[lane] = gens[lane].send(exchanged)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_ALU
            aux = 0
            pay = ()
        elif op == "sc":
            running = 0
            results = []
            for lane in sorted(lanes):
                running += pending[lane][2]
                results.append((lane, running))
            for lane, val in results:
                try:
                    pending[lane] = gens[lane].send(val)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_ALU
            aux = 5
            pay = ()
        elif op == "s":
            pay = []
            vals = []
            smem = self.smem
            for lane in lanes:
                idx = pending[lane][2]
                pay.append(idx)
                vals.append((lane, smem.load(idx)))
            for lane, v in vals:
                try:
                    pending[lane] = gens[lane].send(v)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_SHARED_LOAD
            aux = 0
        elif op == "ss":
            pay = []
            smem = self.smem
            for lane in lanes:
                ev = pending[lane]
                idx = ev[2]
                pay.append(idx)
                smem.store(idx, ev[3])
                try:
                    pending[lane] = gens[lane].send(None)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_SHARED_STORE
            aux = 0
        elif op == "sa":
            pay = []
            smem = self.smem
            for lane in lanes:
                ev = pending[lane]
                idx = ev[2]
                pay.append(idx)
                old = smem.atomic_add(idx, ev[3])
                try:
                    pending[lane] = gens[lane].send(old)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_SHARED_ATOMIC
            aux = 0
        elif op == "gs":
            pay = []
            writes = self.writes
            for lane in lanes:
                ev = pending[lane]
                darr, idx = ev[2], ev[3]
                darr.data[idx] = ev[4]
                wkey = id(darr)
                entry = writes.get(wkey)
                if entry is None:
                    writes[wkey] = (darr, {idx})
                else:
                    entry[1].add(idx)
                pay.append((darr.base + idx * darr.itemsize) // SECTOR_BYTES)
                try:
                    pending[lane] = gens[lane].send(None)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_GLOBAL_STORE
            aux = 0
        elif op == "ga" or op == "go":
            pay = []
            writes = self.writes
            is_add = op == "ga"
            for lane in lanes:
                ev = pending[lane]
                darr, idx = ev[2], ev[3]
                pay.append(darr.base + idx * darr.itemsize)
                old = int(darr.data[idx])
                darr.data[idx] = old + ev[4] if is_add else old | ev[4]
                wkey = id(darr)
                entry = writes.get(wkey)
                if entry is None:
                    writes[wkey] = (darr, {idx})
                else:
                    entry[1].add(idx)
                try:
                    pending[lane] = gens[lane].send(old)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_GLOBAL_ATOMIC
            aux = 0
        elif op == "so":
            pay = []
            smem = self.smem
            for lane in lanes:
                ev = pending[lane]
                idx = ev[2]
                pay.append(idx)
                old = smem.load(idx)
                smem.store(idx, old | ev[3])
                try:
                    pending[lane] = gens[lane].send(old)
                except StopIteration:
                    pending[lane] = _DONE
                    self._retired = True
            opcode = OP_SHARED_ATOMIC
            aux = 0
        else:
            raise ValueError(f"unknown event opcode {op!r}")
        self._eops(opcode)
        self._enlanes(len(lanes))
        self._eaux(aux)
        self._enpay(len(pay))
        self._eloc(loc)
        if pay:
            self._epay(pay)


def _writeback_log(writes: list, args) -> np.ndarray | None:
    """Final values of all written global elements as an ``(n, 3)`` array of
    ``(arg position, index, value)`` rows, or ``None`` if the effects cannot
    be expressed through the argument tuple.  ``writes`` lists ``(array,
    written indices)`` pairs in first-write order; the indices may repeat
    and come in any order, and the log lists them ascending."""
    pos_by_id = {
        id(a): i for i, a in enumerate(args) if isinstance(a, DeviceArray)
    }
    parts = [np.zeros((0, 3), dtype=np.int64)]
    for darr, idx in writes:
        pos = pos_by_id.get(id(darr))
        if pos is None or not np.issubdtype(darr.data.dtype, np.integer):
            return None
        idx = np.sort(idx)  # np.unique hashes first, and is slower here
        idx = idx[np.append(True, idx[1:] != idx[:-1])]
        parts.append(np.column_stack((np.full(idx.size, pos), idx, darr.data[idx])))
    return np.concatenate(parts).astype(np.int64, copy=False)


def apply_writeback(trace: LaunchTrace, args) -> None:
    """Reproduce a cached launch's functional effects on ``args``."""
    wb = trace.writeback
    for pos in np.unique(wb[:, 0]).tolist():
        rows = wb[wb[:, 0] == pos]
        args[pos].data[rows[:, 1]] = rows[:, 2]


#: kernel program -> array emitter: ``emitter(device, program, **launch)``
#: returns the :class:`LaunchTrace` generator recording would, without
#: running a generator (see :func:`register_emitter`).
_EMITTERS: dict = {}

#: open :func:`check_emitters` scopes (innermost last)
_EMITTER_CHECKS: list[list] = []


def register_emitter(program, emitter) -> None:
    """Record ``program``'s launches with ``emitter`` from now on.

    An emitter must produce a trace byte-identical to
    :func:`record_generators` — block digests, instances, writeback,
    locations — and apply the same effects to the launch arguments.
    """
    _EMITTERS[program] = emitter


def record_launch(
    device,
    program,
    *,
    grid_dim: int,
    block_dim: int,
    args: tuple,
    shared_words: int,
    blocks: np.ndarray,
) -> LaunchTrace:
    """Run the record phase over the selected blocks: the program's array
    emitter when it has one, else :func:`record_generators`."""
    launch = dict(
        grid_dim=grid_dim, block_dim=block_dim, args=args,
        shared_words=shared_words, blocks=blocks,
    )
    emitter = _EMITTERS.get(program)
    if emitter is None:
        get_metrics().inc("record_generator_launches")
        return record_generators(device, program, **launch)
    get_metrics().inc("record_emitted_launches")
    return emitter(device, program, **launch)


def record_generators(
    device,
    program,
    *,
    grid_dim: int,
    block_dim: int,
    args: tuple,
    shared_words: int,
    blocks: np.ndarray,
) -> LaunchTrace:
    """Record by running every thread generator (same cooperative barrier
    scheduling as the event path in :mod:`repro.gpu.kernel`).  This is the
    reference every array emitter must match."""
    writes: dict = {}
    per_block: list[BlockTrace] = []
    warp_size = device.warp_size
    # One location table per launch: block traces share ids, so identical
    # blocks still deduplicate and the table serialises once per trace.
    locs = LocationTable()
    # Yield-site decode cache shared by every warp of the launch (all
    # blocks run the same kernel code); see RecordingWarp._site_loc.
    loc_cache: dict = {}
    # The record loop allocates millions of short-lived tuples and frames;
    # cyclic-GC passes in the middle of it are pure overhead (the cycles
    # they would find die at the end of the launch anyway).  Pause
    # collection for the duration and restore the caller's setting.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        _record_blocks(
            device, program, blocks, args, block_dim, grid_dim,
            shared_words, warp_size, writes, per_block, locs, loc_cache,
        )
    finally:
        if gc_was_enabled:
            gc.enable()
    unique, instances = dedupe_blocks(per_block)
    return LaunchTrace(
        grid_dim=grid_dim,
        block_dim=block_dim,
        warp_size=warp_size,
        blocks=tuple(blocks.tolist()),
        unique=unique,
        instances=instances,
        writeback=_writeback_log(
            [(darr, np.fromiter(idxs, np.int64, len(idxs))) for darr, idxs in writes.values()],
            args,
        ),
        locations=locs.as_tuple(),
    )


def _copy_args(args) -> tuple:
    return tuple(
        DeviceArray(a.name, a.data.copy(), a.itemsize, a.base)
        if isinstance(a, DeviceArray) else a
        for a in args
    )


def emitter_mismatches(device, program, *, args: tuple, **launch) -> list[str]:
    """Record one launch both ways on copies of ``args`` and name what differs.

    Compares the sampled blocks, block-trace digests, instances, writeback
    log and location table of the emitted trace against generator
    recording, and the argument arrays after the launch (``args[i]``).
    Empty means the emitter is exact for this launch.
    """
    ref_args, emit_args = _copy_args(args), _copy_args(args)
    ref = record_generators(device, program, args=ref_args, **launch)
    got = _EMITTERS[program](device, program, args=emit_args, **launch)
    same_log = (ref.writeback is None) == (got.writeback is None) and (
        ref.writeback is None or np.array_equal(ref.writeback, got.writeback)
    )
    bad = [
        name
        for name, same in (
            ("blocks", ref.blocks == got.blocks),
            ("digests", [t.digest for t in ref.unique] == [t.digest for t in got.unique]),
            ("instances", ref.instances.tolist() == got.instances.tolist()),
            ("writeback", same_log),
            ("locations", ref.locations == got.locations),
        )
        if not same
    ]
    bad += [
        f"args[{i}]"
        for i, (a, b) in enumerate(zip(ref_args, emit_args))
        if isinstance(a, DeviceArray) and not np.array_equal(a.data, b.data)
    ]
    return bad


@contextmanager
def check_emitters():
    """Diff every emitted launch in scope against generator recording.

    Yields a list that collects ``(kernel, differing fields)`` for each
    launch of a program with an array emitter whose two recordings differ
    (see :func:`emitter_mismatches`).  Checks run before the launch, on
    copies of its arguments, so trace-cache hits are checked too.
    """
    found: list = []
    _EMITTER_CHECKS.append(found)
    try:
        yield found
    finally:
        _EMITTER_CHECKS.pop()


def _record_blocks(
    device, program, blocks, args, block_dim, grid_dim,
    shared_words, warp_size, writes, per_block, locs, loc_cache,
) -> None:
    for block in blocks.tolist():
        smem = SharedMemory(shared_words, device.shared_mem_per_block)
        ctxs = [
            ThreadCtx(block, t, block_dim, grid_dim, warp_size, smem)
            for t in range(block_dim)
        ]
        builder = BlockTraceBuilder()
        warps = [
            RecordingWarp(
                (program(ctx, *args) for ctx in ctxs[w : w + warp_size]),
                smem,
                builder,
                writes,
                locs,
                loc_cache,
            )
            for w in range(0, block_dim, warp_size)
        ]
        live = list(warps)
        while live:
            states = [w.run_until_barrier() for w in live]
            at_barrier = [w for w, s in zip(live, states) if s == "barrier"]
            if not at_barrier:
                break
            for w in at_barrier:
                w.release_barrier()
            live = at_barrier
        per_block.append(builder.build())


# --------------------------------------------------------------------------
# replay phase
# --------------------------------------------------------------------------

_INT64 = np.int64


def _run_max_per_group(values: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    """Per group: the maximum multiplicity of any single value.

    Implements the event engine's ``max(addr_multiplicity.values())`` for
    every group at once: sort by (group, value), find value-run lengths,
    then take the per-group maximum with ``np.maximum.reduceat``.
    """
    out = np.zeros(n_groups, dtype=_INT64)
    if values.size == 0:
        return out
    order = np.lexsort((values, gids))
    g = gids[order]
    v = values[order]
    run_start = np.ones(g.size, dtype=bool)
    run_start[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    starts = np.flatnonzero(run_start)
    run_gid = g[run_start]
    run_len = np.diff(np.append(starts, g.size))
    grp_first = np.ones(run_gid.size, dtype=bool)
    grp_first[1:] = run_gid[1:] != run_gid[:-1]
    firsts = np.flatnonzero(grp_first)
    out[run_gid[grp_first]] = np.maximum.reduceat(run_len, firsts)
    return out


def _bank_conflict_degree(words: np.ndarray, gids: np.ndarray, n_groups: int, num_banks: int) -> np.ndarray:
    """Per group: max distinct words mapped to one bank (replay degree)."""
    out = np.zeros(n_groups, dtype=_INT64)
    if words.size == 0:
        return out
    banks = words % num_banks
    order = np.lexsort((words, banks, gids))
    g = gids[order]
    b = banks[order]
    w = words[order]
    distinct = np.ones(g.size, dtype=bool)
    distinct[1:] = (g[1:] != g[:-1]) | (b[1:] != b[:-1]) | (w[1:] != w[:-1])
    dg = g[distinct]
    db = b[distinct]
    pair_start = np.ones(dg.size, dtype=bool)
    pair_start[1:] = (dg[1:] != dg[:-1]) | (db[1:] != db[:-1])
    starts = np.flatnonzero(pair_start)
    counts = np.diff(np.append(starts, dg.size))
    pair_gid = dg[pair_start]
    grp_first = np.ones(pair_gid.size, dtype=bool)
    grp_first[1:] = pair_gid[1:] != pair_gid[:-1]
    firsts = np.flatnonzero(grp_first)
    out[pair_gid[grp_first]] = np.maximum.reduceat(counts, firsts)
    return out


def _dedupe_by_id(objs):
    seen: set[int] = set()
    out = []
    for o in objs:
        if id(o) not in seen:
            seen.add(id(o))
            out.append(o)
    return out


#: opcode values are 1..9; per-(trace, op) histograms use this stride.
_OP_STRIDE = 10


def _base_reductions_many(traces) -> None:
    """Fused base reductions: memoise every listed block trace in one pass.

    Instead of one ``lexsort``/``reduceat`` pipeline and ~9 per-counter
    masked sums *per block trace*, the batch concatenates the opcode/lane
    streams of every trace still missing its ``base`` memo and reduces them
    together: per-(trace, opcode) request counts fall out of a single
    ``bincount`` over composite keys, per-trace lane/ALU totals out of one
    weighted ``bincount``, and the sector-coalescing lexsort runs once over
    the whole batch.  Row ids are globally unique across the batch, so
    nothing ever merges across trace (and therefore kernel/launch-config)
    boundaries — per-trace results are bit-identical to the unfused path.
    """
    todo = _dedupe_by_id([t for t in traces if "base" not in t._memo])
    if not todo:
        return
    from .sharedmem import NUM_BANKS

    nt = len(todo)
    counts = np.array([t.ops.shape[0] for t in todo], dtype=_INT64)
    row_off = np.zeros(nt + 1, dtype=_INT64)
    np.cumsum(counts, out=row_off[1:])
    n = int(row_off[-1])
    ops = (
        np.concatenate([t.ops for t in todo]).astype(_INT64)
        if nt > 1
        else todo[0].ops.astype(_INT64)
    )
    npay = np.concatenate([t.npay for t in todo]) if nt > 1 else todo[0].npay
    pay = np.concatenate([t.payload for t in todo]) if nt > 1 else todo[0].payload
    trow = np.repeat(np.arange(nt, dtype=_INT64), counts)

    # -- per-(trace, opcode) row counts: one histogram for all 9 counters ---
    comp = trow * _OP_STRIDE + ops
    per_op = np.bincount(comp, minlength=nt * _OP_STRIDE).reshape(nt, _OP_STRIDE)
    lane_sums = np.bincount(
        trow, weights=np.concatenate([t.nlanes for t in todo]) if nt > 1 else todo[0].nlanes,
        minlength=nt,
    )
    aux_sums = np.bincount(
        trow, weights=np.concatenate([t.aux for t in todo]) if nt > 1 else todo[0].aux,
        minlength=nt,
    )

    gid = np.repeat(np.arange(n, dtype=_INT64), npay)
    opg = ops[gid] if gid.size else np.zeros(0, dtype=_INT64)

    # -- global sector coalescing -------------------------------------------
    load_m = opg == OP_GLOBAL_LOAD
    store_m = opg == OP_GLOBAL_STORE
    atom_m = opg == OP_GLOBAL_ATOMIC
    glob_m = load_m | store_m | atom_m
    g_gid = gid[glob_m]
    g_sector = np.where(atom_m[glob_m], pay[glob_m] // SECTOR_BYTES, pay[glob_m])
    if g_gid.size:
        order = np.lexsort((g_sector, g_gid))
        sg = g_gid[order]
        sv = g_sector[order]
        keep = np.ones(sg.size, dtype=bool)
        keep[1:] = (sg[1:] != sg[:-1]) | (sv[1:] != sv[:-1])
        stream = sv[keep]
        per_group_sectors = np.bincount(sg[keep], minlength=n)
    else:
        stream = np.zeros(0, dtype=_INT64)
        per_group_sectors = np.zeros(n, dtype=_INT64)
    sect_sums = np.bincount(
        comp, weights=per_group_sectors, minlength=nt * _OP_STRIDE
    ).reshape(nt, _OP_STRIDE)

    # -- atomic serialisation -----------------------------------------------
    atom_rows = ops == OP_GLOBAL_ATOMIC
    max_mult = _run_max_per_group(pay[atom_m], gid[atom_m], n)
    extra = max_mult[atom_rows] - 1
    np.maximum(extra, 0, out=extra)
    atomic_extra = np.bincount(trow[atom_rows], weights=extra, minlength=nt)

    # -- shared memory: bank conflicts + same-address serialisation ---------
    conf_m = (opg == OP_SHARED_LOAD) | (opg == OP_SHARED_STORE)
    sat_m = opg == OP_SHARED_ATOMIC
    conf_deg = _bank_conflict_degree(pay[conf_m], gid[conf_m], n, NUM_BANKS)
    ser_deg = _run_max_per_group(pay[sat_m], gid[sat_m], n)
    sl_rows = ops == OP_SHARED_LOAD
    ss_rows = ops == OP_SHARED_STORE
    sa_rows = ops == OP_SHARED_ATOMIC
    sl_trans = np.bincount(trow[sl_rows], weights=conf_deg[sl_rows], minlength=nt)
    ss_trans = np.bincount(
        trow[ss_rows], weights=conf_deg[ss_rows], minlength=nt
    ) + np.bincount(trow[sa_rows], weights=ser_deg[sa_rows], minlength=nt)

    stream_off = np.zeros(nt + 1, dtype=_INT64)
    np.cumsum(np.bincount(trow, weights=per_group_sectors, minlength=nt).astype(_INT64),
              out=stream_off[1:])
    for i, t in enumerate(todo):
        po = per_op[i]
        c: dict[str, int] = {
            "warp_steps": int(counts[i] - po[OP_SYNC_EVENT]),
            "active_lane_steps": int(lane_sums[i]),
            "sync_events": int(po[OP_SYNC_EVENT]),
            "alu_cycles": int(aux_sums[i]),
            "global_load_requests": int(po[OP_GLOBAL_LOAD]),
            "global_store_requests": int(po[OP_GLOBAL_STORE]),
            "atomic_requests": int(po[OP_GLOBAL_ATOMIC]),
            "shared_load_requests": int(po[OP_SHARED_LOAD]),
            "shared_store_requests": int(po[OP_SHARED_STORE] + po[OP_SHARED_ATOMIC]),
            "global_load_transactions": int(sect_sums[i, OP_GLOBAL_LOAD]),
            "global_store_transactions": int(sect_sums[i, OP_GLOBAL_STORE]),
            "atomic_transactions": int(sect_sums[i, OP_GLOBAL_ATOMIC] + atomic_extra[i]),
            "shared_load_transactions": int(sl_trans[i]),
            "shared_store_transactions": int(ss_trans[i]),
        }
        t._memo["base"] = (
            c,
            stream[stream_off[i] : stream_off[i + 1]],
            per_group_sectors[row_off[i] : row_off[i + 1]],
        )


def _base_reductions(t: BlockTrace) -> tuple[dict, np.ndarray, np.ndarray]:
    """Device-independent counters of one block trace, its global sector
    stream (per-group deduped sectors, sorted within each group, in issue
    order — exactly the sequence the event engine feeds the L1), and the
    per-row deduped sector counts (source-line attribution weights)."""
    memo = t._memo.get("base")
    if memo is None:
        _base_reductions_many([t])
        memo = t._memo["base"]
    return memo


def _l1_walk_many(traces, capacity: int) -> None:
    """Fused L1 walks: memoise every listed trace's ``("l1", capacity)``.

    The no-eviction fast path (an LRU whose working set fits never evicts,
    so misses are exactly first occurrences) batches across traces with one
    stable argsort over composite (trace, sector) keys; only traces whose
    working set overflows the capacity fall back to the exact per-trace
    :class:`SectorCache` walk.
    """
    key = ("l1", capacity)
    todo = _dedupe_by_id([t for t in traces if key not in t._memo])
    if not todo:
        return
    streams = [t._memo["base"][1] for t in todo]
    if capacity <= 0:
        for t, s in zip(todo, streams):
            t._memo[key] = (0, s)
        return
    nt = len(todo)
    lens = np.array([s.size for s in streams], dtype=_INT64)
    offs = np.zeros(nt + 1, dtype=_INT64)
    np.cumsum(lens, out=offs[1:])
    total = int(offs[-1])
    if total == 0:
        for t, s in zip(todo, streams):
            t._memo[key] = (0, s)
        return
    all_s = np.concatenate([s for s in streams if s.size])
    tid = np.repeat(np.arange(nt, dtype=_INT64), lens)
    span = int(all_s.max()) + 1
    comp = tid * span + all_s
    order = np.argsort(comp, kind="stable")
    sc = comp[order]
    first = np.ones(sc.size, dtype=bool)
    first[1:] = sc[1:] != sc[:-1]
    first_pos = order[first]
    miss_mask = np.zeros(total, dtype=bool)
    miss_mask[first_pos] = True
    uniq_counts = np.bincount(tid[first_pos], minlength=nt)
    for i, t in enumerate(todo):
        s = streams[i]
        if s.size == 0:
            t._memo[key] = (0, s)
        elif int(uniq_counts[i]) <= capacity:
            # No eviction possible: misses are exactly first occurrences.
            mm = miss_mask[offs[i] : offs[i + 1]]
            t._memo[key] = (int(s.size - uniq_counts[i]), s[mm])
        else:
            cache = SectorCache(capacity)
            hits = cache.access_mask(s)
            t._memo[key] = (int(hits.sum()), s[~hits])


def _l1_walk(t: BlockTrace, capacity: int) -> tuple[int, np.ndarray]:
    """(L1 hit count, miss stream in order) for one block's sector stream.

    Fresh-per-block L1 means the walk is a pure function of the trace and
    the capacity, so it is memoised per capacity on the trace itself —
    replaying a second device with the same L1 reuses it.
    """
    memo = t._memo.get(("l1", capacity))
    if memo is None:
        _base_reductions_many([t])
        _l1_walk_many([t], capacity)
        memo = t._memo[("l1", capacity)]
    return memo


#: DeviceSpec -> (L1 capacity, L2 capacity) in sectors, resolved once per
#: device instead of on every replayed launch.
_DEVICE_CAPS: dict = {}


def _device_caps(device) -> tuple[int, int]:
    caps = _DEVICE_CAPS.get(device)
    if caps is None:
        caps = (device.l1_bytes // SECTOR_BYTES, device.l2_bytes // SECTOR_BYTES)
        _DEVICE_CAPS[device] = caps
    return caps


#: engine stages; each one's wall-clock accumulates in the metrics registry
#: as the float counter ``engine_<stage>``.
_STAGES = ("trace_load_s", "record_s", "replay_s", "counter_aggregation_s")


def stage_times() -> dict[str, float]:
    """Cumulative per-stage wall-clock of the vectorized engine: trace
    load (fingerprint + cache/disk fetch + store), record, replay (fused
    trace reductions + cache walks), and counter aggregation (totals →
    :class:`ProfileMetrics`).  A view over the registry's ``engine_*``
    counters, so worker time forwarded to this process is included; the
    benchmark harness samples deltas to attribute regressions to a stage."""
    registry = get_metrics()
    return {stage: registry.get("engine_" + stage) for stage in _STAGES}


def _launch_totals(trace: LaunchTrace, l1_cap: int, l2_cap: int) -> dict:
    """Device-geometry-dependent counter totals of one launch (memoised)."""
    key = (l1_cap, l2_cap)
    totals = trace._totals.get(key)
    if totals is not None:
        return totals
    unique = trace.unique
    instances = trace.instances
    mult = np.bincount(instances, minlength=len(unique))
    totals = dict.fromkeys(REPLAY_FIELDS, 0)
    miss_streams: list[np.ndarray] = []
    for i, t in enumerate(unique):
        k = int(mult[i])
        counters, _, _ = _base_reductions(t)
        for name, value in counters.items():
            totals[name] += value * k
        l1_hits, missed = _l1_walk(t, l1_cap)
        totals["l1_hit_sectors"] += l1_hits * k
        miss_streams.append(missed)

    # L2 persists across blocks within the launch.  If the union of every
    # block's miss stream fits, the LRU never evicts and DRAM traffic is
    # exactly the number of distinct sectors — independent of block order
    # and of how often duplicate blocks replay.  Otherwise walk the shared
    # SectorCache over the per-block streams in block order, exactly like
    # the event engine.
    nonempty = [s for s in miss_streams if s.size]
    if not nonempty:
        dram = 0
    elif l2_cap <= 0:
        dram = int(sum(int(miss_streams[u].size) for u in instances.tolist()))
    else:
        union_size = np.unique(np.concatenate(nonempty)).size
        if union_size <= l2_cap:
            dram = int(union_size)
        else:
            l2 = SectorCache(l2_cap)
            dram = 0
            for u in instances.tolist():
                s = miss_streams[u]
                if s.size:
                    hits = l2.access_mask(s)
                    dram += int(s.size - int(hits.sum()))
    totals["dram_sectors"] = dram
    trace._totals[key] = totals
    return totals


def replay_launch(trace: LaunchTrace, device) -> ProfileMetrics:
    """Reduce a launch trace to the metrics of one simulated launch.

    A geometry whose totals are known is served from the totals memo
    before anything touches ``unique``: a trace mapped from the store with
    these totals in its header is never decoded.  Otherwise the launch's
    unique blocks are reduced in fused passes (:func:`_base_reductions_many`,
    :func:`_l1_walk_many`) before the L2 walk of :func:`_launch_totals`.
    """
    l1_cap, l2_cap = _device_caps(device)
    key = (l1_cap, l2_cap)
    t0 = perf_counter()
    if key in trace._totals:
        if key in trace._stored_totals:
            get_metrics().inc("trace_totals_hits")
    elif trace.unique:
        _base_reductions_many(trace.unique)
        _l1_walk_many(trace.unique, l1_cap)
        get_metrics().inc("engine_replay_s", perf_counter() - t0)
    t1 = perf_counter()
    local = ProfileMetrics(warp_size=device.warp_size)
    if key in trace._totals or trace.unique:
        local.add_counters(_launch_totals(trace, l1_cap, l2_cap))
    get_metrics().inc("engine_counter_aggregation_s", perf_counter() - t1)
    return local


def replay_line_profile(trace: LaunchTrace, warp_size: int) -> dict[tuple[str, int], list[int]]:
    """Per-source-line counters of one launch trace (unscaled block sums).

    Returns ``{(file, line): [reqs, transactions, warp_steps, lane_loss]}``
    in :data:`repro.obs.attribution.LINE_FIELDS` order — the exact
    aggregation the event engine performs live, computed here with
    ``bincount`` over the trace's ``loc`` stream.  Requests and steps
    count rows; transactions weight load rows by their deduped sector
    counts; lane loss weights non-barrier rows by the inactive lanes of
    each issue step.
    """
    n_loc = len(trace.locations)
    if not trace.unique or n_loc <= 1:
        return {}
    req = np.zeros(n_loc)
    trans = np.zeros(n_loc)
    steps = np.zeros(n_loc)
    loss = np.zeros(n_loc)
    mult = np.bincount(trace.instances, minlength=len(trace.unique))
    for i, t in enumerate(trace.unique):
        k = int(mult[i])
        if not k or not t.ops.shape[0]:
            continue
        _, _, per_group_sectors = _base_reductions(t)
        loc = t.loc.astype(np.int64, copy=False)
        load = t.ops == OP_GLOBAL_LOAD
        issue = t.ops != OP_SYNC_EVENT
        req += k * np.bincount(loc[load], minlength=n_loc)
        trans += k * np.bincount(
            loc[load], weights=per_group_sectors[load].astype(float), minlength=n_loc
        )
        steps += k * np.bincount(loc[issue], minlength=n_loc)
        loss += k * np.bincount(
            loc[issue],
            weights=(warp_size - t.nlanes[issue]).astype(float),
            minlength=n_loc,
        )
    out: dict[tuple[str, int], list[int]] = {}
    for i in range(1, n_loc):  # 0 is the "no location" sentinel
        if req[i] or trans[i] or steps[i] or loss[i]:
            out[trace.locations[i]] = [
                int(req[i]), int(trans[i]), int(steps[i]), int(loss[i]),
            ]
    return out


# --------------------------------------------------------------------------
# the vectorized engine entry point (called by launch_kernel)
# --------------------------------------------------------------------------


def simulate_vectorized(
    device,
    program,
    *,
    grid_dim: int,
    block_dim: int,
    args: tuple,
    shared_words: int,
    blocks: np.ndarray,
) -> ProfileMetrics:
    """Record (or fetch from the trace cache) and replay one launch."""
    tracer = get_tracer()
    kernel = getattr(program, "__qualname__", repr(program))
    if _EMITTER_CHECKS and program in _EMITTERS:
        bad = emitter_mismatches(
            device, program, grid_dim=grid_dim, block_dim=block_dim,
            args=args, shared_words=shared_words, blocks=blocks,
        )
        if bad:
            _EMITTER_CHECKS[-1].append((kernel, bad))
    t0 = perf_counter()
    key = None
    if trace_cache_enabled():
        key = launch_fingerprint(
            program,
            args,
            grid_dim=grid_dim,
            block_dim=block_dim,
            shared_words=shared_words,
            warp_size=device.warp_size,
            blocks=blocks,
        )
    trace = None
    if key is not None:
        trace = get_trace_cache().get(key)
    get_metrics().inc("engine_trace_load_s", perf_counter() - t0)
    if trace is None:
        t0 = perf_counter()
        with tracer.span(
            "record", level="debug", kernel=kernel, blocks=len(blocks), cached=False,
            emitted=program in _EMITTERS,
        ):
            trace = record_launch(
                device,
                program,
                grid_dim=grid_dim,
                block_dim=block_dim,
                args=args,
                shared_words=shared_words,
                blocks=blocks,
            )
        get_metrics().inc("engine_record_s", perf_counter() - t0)
        recorded = True
    else:
        apply_writeback(trace, args)
        recorded = False
    with tracer.span("replay", level="debug", kernel=kernel, device=device.name):
        local = replay_launch(trace, device)
    if recorded:
        # Store after the first replay: the trace then carries its base
        # replay memo, so the persisted bundle lets warm processes skip
        # the base reduction pass entirely.
        t0 = perf_counter()
        if key is not None:
            get_trace_cache().put(key, trace)
        elif trace_cache_enabled():
            get_metrics().inc("trace_cache_uncacheable")
        get_metrics().inc("engine_trace_load_s", perf_counter() - t0)
    # Attribution and timeline capture fire on cache hits too: the trace
    # carries its own location table, so a warm hit costs one numpy pass.
    if active_collector() is not None:
        local.meta["line_profile"] = replay_line_profile(trace, device.warp_size)
    if capture_active():
        notify_launch(
            kernel, device, trace, grid_dim=grid_dim, block_dim=block_dim
        )
    return local
