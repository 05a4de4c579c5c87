"""Typed launch traces for the record/replay simulator engine.

The record phase drains every thread-program generator once — through the
exact same lockstep scheduler as the event engine — and emits one
:class:`BlockTrace` per simulated block: parallel NumPy arrays with one row
per issued warp instruction (opcode, active-lane count, an op-specific
auxiliary value, payload length) plus a flat payload array holding the
memory coordinates the instruction touched.  The replay engine
(:mod:`repro.gpu.engine`) turns these arrays into nvprof counters with
vectorised reductions instead of per-event Python dispatch.

Traces are device-independent by construction: every payload entry is an
absolute quantity (32-byte global sector index, global byte address for
atomics, shared word index) and cache geometry is applied at replay time.
That is what makes the trace cache profitable — a sweep that varies only
the device or the cost model replays the same trace under different cache
capacities without re-running a single generator.  The cache key therefore
fingerprints exactly the record-phase inputs: the kernel (module-qualified
program name, and :func:`repro.graph.io.code_digest` over the kernel and
simulator sources), the launch configuration (grid/block/shared/warp width and
the sampled block set), and the *content* of every device-array argument,
so a multi-kernel algorithm whose later launches consume earlier launches'
output is keyed by the actual intermediate data.

Cached traces also carry a *writeback log* — the final value of every
global array element the kernel wrote — so a cache hit reproduces the
launch's functional effects (triangle counters, intermediate buffers)
without replaying the generators.  Launches whose effects cannot be
expressed that way (closure programs, writes to arrays outside the arg
tuple) are simply never cached; they re-record every time and stay exact.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from collections import Counter
from collections.abc import Callable
from types import SimpleNamespace

import numpy as np

from ..graph import io
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from .memory import DeviceArray

__all__ = [
    "BlockTrace",
    "BlockTraceBuilder",
    "LaunchTrace",
    "TraceCache",
    "OP_GLOBAL_LOAD",
    "OP_GLOBAL_STORE",
    "OP_GLOBAL_ATOMIC",
    "OP_SHARED_LOAD",
    "OP_SHARED_STORE",
    "OP_SHARED_ATOMIC",
    "OP_ALU",
    "OP_WSYNC",
    "OP_SYNC_EVENT",
    "dedupe_blocks",
    "get_trace_cache",
    "launch_fingerprint",
    "reset_trace_cache",
    "trace_cache_enabled",
]

#: Bump to invalidate every previously recorded trace; an edit to a kernel
#: or to ``gpu/`` already changes the key through the code digest.
#: v2 added the per-row ``loc`` stream + interned source-location table
#: (nvprof-style source-level attribution survives cache round-trips).
#: v3 fingerprints array arguments by per-array content digest (memoised
#: for immutable arrays) instead of splicing raw bytes into one stream.
#: v4 persists the device-independent replay reductions (base counters,
#: coalesced sector stream, per-row sector counts) alongside the raw
#: event streams, so a warm process replays without re-reducing.
TRACE_SCHEMA = 4

# Trace opcodes.  The event vocabulary collapses: "ga"/"go" share atomic
# accounting, "sa"/"so" share same-address serialisation, and "a"/"sc"/"bc"
# are all pure issue steps distinguished only by their extra ALU cycles
# (carried in ``aux``).
OP_GLOBAL_LOAD = 1    # payload: 32 B sector indices touched by the group
OP_GLOBAL_STORE = 2   # payload: 32 B sector indices
OP_GLOBAL_ATOMIC = 3  # payload: byte addresses (sector + serialisation)
OP_SHARED_LOAD = 4    # payload: shared word indices (bank conflicts)
OP_SHARED_STORE = 5   # payload: shared word indices (bank conflicts)
OP_SHARED_ATOMIC = 6  # payload: shared word indices (address serialisation)
OP_ALU = 7            # aux: extra ALU cycles beyond the implicit one
OP_WSYNC = 8          # released __syncwarp (one issue step, no payload)
OP_SYNC_EVENT = 9     # block barrier release (sync_events only, no step)

#: Canonical order of the device-independent per-block counters — the keys
#: of the ``base`` replay memo's counter dict.  Serialisation flattens the
#: dict into an int64 row per block trace in exactly this order, so the
#: engine (which builds the dict) and the store (which round-trips it)
#: must agree on it.
BASE_COUNTER_FIELDS = (
    "warp_steps",
    "active_lane_steps",
    "sync_events",
    "alu_cycles",
    "global_load_requests",
    "global_store_requests",
    "atomic_requests",
    "shared_load_requests",
    "shared_store_requests",
    "global_load_transactions",
    "global_store_transactions",
    "atomic_transactions",
    "shared_load_transactions",
    "shared_store_transactions",
)

#: Every counter a launch replay produces (requests/transactions plus
#: execution shape) — the fields of one per-geometry totals entry, both in
#: the engine's replay memo and in the trace file header.
REPLAY_FIELDS = (
    "global_load_requests",
    "global_load_transactions",
    "global_store_requests",
    "global_store_transactions",
    "atomic_requests",
    "atomic_transactions",
    "dram_sectors",
    "l1_hit_sectors",
    "shared_load_requests",
    "shared_load_transactions",
    "shared_store_requests",
    "shared_store_transactions",
    "warp_steps",
    "active_lane_steps",
    "alu_cycles",
    "sync_events",
)


class BlockTrace:
    """Immutable instruction trace of one simulated block.

    Five parallel arrays describe the issued warp instructions in program
    order (``ops``/``nlanes``/``aux``/``npay``/``loc``) and ``payload``
    holds the concatenated per-instruction memory coordinates (``npay``
    entries each).  ``loc`` carries the interned source-location id of the
    yield that produced each row (see the launch-level location table);
    the sentinel ``0`` means "no attributable line" (barrier releases).
    ``_memo`` caches replay reductions keyed by what they depend on
    (nothing, or an L1 capacity) — replaying the same trace on a second
    device reuses the device-independent work.
    """

    __slots__ = ("ops", "nlanes", "aux", "npay", "payload", "loc", "_digest", "_memo")

    def __init__(self, ops, nlanes, aux, npay, payload, loc=None):
        self.ops = ops
        self.nlanes = nlanes
        self.aux = aux
        self.npay = npay
        self.payload = payload
        self.loc = loc if loc is not None else np.zeros(ops.shape[0], dtype=np.int32)
        self._digest: bytes | None = None
        self._memo: dict = {}

    @property
    def digest(self) -> bytes:
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.ops.shape[0]).tobytes())
            h.update(np.int64(self.payload.shape[0]).tobytes())
            h.update(self.ops.tobytes())
            h.update(self.nlanes.tobytes())
            h.update(self.aux.tobytes())
            h.update(self.npay.tobytes())
            h.update(self.payload.tobytes())
            h.update(self.loc.tobytes())
            self._digest = h.digest()
        return self._digest

    @property
    def nbytes(self) -> int:
        return (
            self.ops.nbytes
            + self.nlanes.nbytes
            + self.aux.nbytes
            + self.npay.nbytes
            + self.payload.nbytes
            + self.loc.nbytes
        )


class BlockTraceBuilder:
    """Append-only accumulator the recording warps share within one block."""

    __slots__ = ("ops", "nlanes", "aux", "npay", "payload", "loc")

    def __init__(self):
        self.ops: list[int] = []
        self.nlanes: list[int] = []
        self.aux: list[int] = []
        self.npay: list[int] = []
        self.payload: list[int] = []
        self.loc: list[int] = []

    def emit(self, op: int, nlanes: int, aux: int = 0, payload=(), loc: int = 0) -> None:
        self.ops.append(op)
        self.nlanes.append(nlanes)
        self.aux.append(aux)
        self.npay.append(len(payload))
        self.loc.append(loc)
        if payload:
            self.payload.extend(payload)

    def build(self) -> BlockTrace:
        return BlockTrace(
            np.asarray(self.ops, dtype=np.uint8),
            np.asarray(self.nlanes, dtype=np.int64),
            np.asarray(self.aux, dtype=np.int64),
            np.asarray(self.npay, dtype=np.int64),
            np.asarray(self.payload, dtype=np.int64),
            np.asarray(self.loc, dtype=np.int32),
        )


def dedupe_blocks(traces) -> tuple[list[BlockTrace], np.ndarray]:
    """Collapse identical block traces (homogeneous grids collapse hard).

    Returns ``(unique, instances)`` where ``instances[i]`` indexes the
    unique trace of the i-th simulated block, preserving block order.
    Blocks of different row or payload counts cannot be identical, so only
    blocks that share both counts with another block are hashed.
    """
    shapes = Counter((t.ops.shape[0], t.payload.shape[0]) for t in traces)
    unique: list[BlockTrace] = []
    index: dict = {}
    instances = np.empty(len(traces), dtype=np.int64)
    for i, trace in enumerate(traces):
        key = (trace.ops.shape[0], trace.payload.shape[0])
        if shapes[key] > 1:
            key = trace.digest
        at = index.get(key)
        if at is None:
            at = len(unique)
            index[key] = at
            unique.append(trace)
        instances[i] = at
    return unique, instances


class LaunchTrace:
    """Everything replay needs for one launch, with blocks deduplicated.

    ``writeback`` is the launch's functional effect: an ``(n, 3)`` int64
    array of ``(arg position, element index, final value)`` rows for every
    global array element the kernel wrote, or ``None`` when those effects
    cannot be expressed through the argument tuple (such a trace must not
    be served from the cache).

    ``locations`` is the launch's interned source-location table: block
    rows carry small ids into it (``loc`` stream), entry 0 is the "no
    location" sentinel.  It travels with the cached trace so source-line
    attribution replays on warm hits.

    ``unique`` is either the block-trace list or a zero-argument callable
    that decodes it on first access (with ``block_nbytes`` giving its size
    up front): a trace mapped from the store splits its sections only when
    something needs the block streams, so a launch served from stored
    ``totals`` never decodes them.
    """

    def __init__(
        self,
        grid_dim: int,
        block_dim: int,
        warp_size: int,
        blocks: tuple[int, ...],
        unique: list[BlockTrace] | Callable[[], list[BlockTrace]],
        instances: np.ndarray,
        writeback: np.ndarray | None,
        locations: tuple[tuple[str, int], ...] = (("", 0),),
        *,
        block_nbytes: int | None = None,
        totals: dict | None = None,
    ):
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self.warp_size = warp_size
        self.blocks = blocks
        self.instances = instances
        self.writeback = writeback
        self.locations = locations
        if callable(unique):
            self._unique, self._decode = None, unique
        else:
            self._unique, self._decode = unique, None
            block_nbytes = sum(t.nbytes for t in unique)
        self._block_nbytes = block_nbytes
        #: replay-totals memo keyed by device cache geometry ``(L1, L2)``
        #: capacities in sectors; a re-replay under a known geometry is a
        #: dict lookup (see repro.gpu.engine.replay_launch).
        self._totals: dict = dict(totals) if totals else {}
        #: the geometries whose totals came from the trace file
        self._stored_totals = frozenset(self._totals)

    @property
    def unique(self) -> list[BlockTrace]:
        if self._unique is None:
            self._unique = self._decode()
            self._decode = None
        return self._unique

    @property
    def cacheable(self) -> bool:
        return self.writeback is not None

    @property
    def nbytes(self) -> int:
        wb = 0 if self.writeback is None else self.writeback.nbytes
        locs = sum(len(f) + 12 for f, _ in self.locations)
        return self._block_nbytes + self.instances.nbytes + wb + locs


# --------------------------------------------------------------------------
# launch fingerprinting
# --------------------------------------------------------------------------


#: id(array) -> (liveness guard, digest) for *read-only* arrays.  Graph
#: topology (CSR rows, columns, edge sources) is frozen at construction
#: and re-fingerprinted on every launch of every warm replay; hashing
#: megabytes of unchanged data dominated warm cluster runs.  Writeable
#: arrays are never memoised — their content can change under the same id.
_digest_memo: dict[int, tuple[weakref.ref, bytes]] = {}


def _array_digest(data: np.ndarray) -> bytes:
    """Content digest of a contiguous array, memoised when immutable."""
    if data.flags.writeable:
        if not data.any():
            # All-zero content (fresh scratch/output buffers, the common
            # case) is fully described by dtype and shape — skip hashing
            # megabytes of zeros on every launch.
            return hashlib.blake2b(
                f"z:{data.dtype.str}:{data.shape}".encode(), digest_size=20
            ).digest()
        return hashlib.blake2b(data.tobytes(), digest_size=20).digest()
    key = id(data)
    hit = _digest_memo.get(key)
    if hit is not None and hit[0]() is data:
        return hit[1]
    digest = hashlib.blake2b(data.tobytes(), digest_size=20).digest()

    def _evict(_ref, _key=key):
        _digest_memo.pop(_key, None)

    _digest_memo[key] = (weakref.ref(data, _evict), digest)
    return digest


def launch_fingerprint(
    program,
    args,
    *,
    grid_dim: int,
    block_dim: int,
    shared_words: int,
    warp_size: int,
    blocks,
) -> str | None:
    """Hex digest of (kernel, code digest, input data, launch config), or ``None``.

    ``None`` means the launch cannot be safely fingerprinted — the program
    closes over state outside the argument tuple, or an argument's type is
    unknown to the hasher — and must be recorded on every run.
    """
    if getattr(program, "__closure__", None):
        return None
    h = hashlib.blake2b(digest_size=20)
    h.update(
        f"v{TRACE_SCHEMA}|{io.code_digest()}|{program.__module__}.{program.__qualname__}"
        f"|{grid_dim}|{block_dim}|{shared_words}|{warp_size}|".encode()
    )
    h.update(np.asarray(blocks, dtype=np.int64).tobytes())
    for pos, arg in enumerate(args):
        if isinstance(arg, DeviceArray):
            data = np.ascontiguousarray(arg.data)
            h.update(
                f"|d{pos}:{arg.name}:{arg.itemsize}:{arg.base}:{data.dtype.str}:".encode()
            )
            h.update(_array_digest(data))
        elif isinstance(arg, (bool, int, np.integer)):
            h.update(f"|i{pos}:{int(arg)}".encode())
        elif isinstance(arg, (float, np.floating)):
            h.update(f"|f{pos}:{float(arg)!r}".encode())
        elif isinstance(arg, str):
            h.update(f"|s{pos}:{arg}".encode())
        elif arg is None:
            h.update(f"|n{pos}".encode())
        elif isinstance(arg, np.ndarray):
            data = np.ascontiguousarray(arg)
            h.update(f"|a{pos}:{data.dtype.str}:{data.shape}".encode())
            h.update(_array_digest(data))
        elif isinstance(arg, tuple) and all(
            isinstance(x, (bool, int, np.integer)) for x in arg
        ):
            h.update(f"|t{pos}:{','.join(str(int(x)) for x in arg)}".encode())
        else:
            return None
    return h.hexdigest()


# --------------------------------------------------------------------------
# trace cache: in-memory LRU + the shared on-disk array store
# --------------------------------------------------------------------------


def trace_cache_enabled() -> bool:
    """False when ``REPRO_TRACE_CACHE`` is set to ``0``/``off``/``false``."""
    return os.environ.get("REPRO_TRACE_CACHE", "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def _memory_budget_bytes() -> int:
    """In-memory trace budget (``REPRO_TRACE_CACHE_MB``, default 256 MB)."""
    try:
        mb = float(os.environ.get("REPRO_TRACE_CACHE_MB", "256"))
    except ValueError:
        mb = 256.0
    return int(mb * 1e6)


#: TraceCache outcome counters; each is the registry counter ``trace_cache_<name>``.
_CACHE_STATS = ("hits", "disk_hits", "misses", "stores", "uncacheable", "evictions")


def _trace_to_arrays(trace: LaunchTrace) -> dict:
    """One launch as store entries: its block streams and writeback log as
    arrays, geometry, blocks, locations and replay totals as attrs."""
    cat = lambda parts, dtype: (
        np.concatenate(parts).astype(dtype, copy=False) if parts else np.zeros(0, dtype)
    )
    out = {
        "schema": TRACE_SCHEMA,
        # Read by nothing but ``repro cache prune``: the fingerprint in the
        # file name already carries the code digest, but cannot be decoded.
        "code": io.code_digest(),
        "grid_dim": int(trace.grid_dim),
        "block_dim": int(trace.block_dim),
        "warp_size": int(trace.warp_size),
        "blocks": [int(b) for b in trace.blocks],
        "locations": [[str(f), int(n)] for f, n in trace.locations],
        "instances": np.asarray(trace.instances, dtype=np.int64),
        "groups_per_trace": np.array([t.ops.shape[0] for t in trace.unique], dtype=np.int64),
        "payload_per_trace": np.array(
            [t.payload.shape[0] for t in trace.unique], dtype=np.int64
        ),
        "ops": cat([t.ops for t in trace.unique], np.uint8),
        "nlanes": cat([t.nlanes for t in trace.unique], np.int64),
        "aux": cat([t.aux for t in trace.unique], np.int64),
        "npay": cat([t.npay for t in trace.unique], np.int64),
        "payload": cat([t.payload for t in trace.unique], np.int64),
        "loc": cat([t.loc for t in trace.unique], np.int32),
        "writeback": np.asarray(trace.writeback, dtype=np.int64).reshape(-1, 3),
    }
    # Base replay memos, when every block trace has one (i.e. the launch
    # has been replayed at least once).  Persisting them lets a warm
    # process skip the base reduction pass entirely — replay touches only
    # the device-geometry walks.
    memos = [t._memo.get("base") for t in trace.unique]
    if memos and all(m is not None for m in memos):
        out["base_counters"] = np.array(
            [[m[0][f] for f in BASE_COUNTER_FIELDS] for m in memos], dtype=np.int64
        ).reshape(-1)
        out["stream_per_trace"] = np.array([m[1].size for m in memos], dtype=np.int64)
        out["stream"] = cat([m[1] for m in memos], np.int64)
        out["group_sectors"] = cat([m[2] for m in memos], np.int64)
    # Replay totals per device geometry.  The trace is stored after its
    # first replay, so these exist then; a warm process replaying on a
    # stored geometry serves its counters without decoding a block.
    if trace._totals:
        out["totals"] = [
            {"l1_cap": int(l1), "l2_cap": int(l2), **{f: int(c[f]) for f in REPLAY_FIELDS}}
            for (l1, l2), c in sorted(trace._totals.items())
        ]
    return out


def _parse_totals(entries) -> dict[tuple[int, int], dict[str, int]]:
    """Parse the header's per-geometry replay totals; malformed raises."""
    out = {}
    for entry in entries:
        caps = (entry["l1_cap"], entry["l2_cap"])
        counters = {f: entry[f] for f in REPLAY_FIELDS}
        if len(entry) != len(REPLAY_FIELDS) + 2 or not all(
            type(v) is int for v in (*caps, *counters.values())
        ):
            raise ValueError("malformed stored totals")
        out[caps] = counters
    return out


def _trace_from_arrays(arrays: dict) -> LaunchTrace | None:
    """Rebuild a trace from its store entries, or ``None`` if they are unusable.

    Everything small (geometry, writeback, locations, stored totals) is
    parsed here; the block traces are split out of the section arrays only
    on first access of :attr:`LaunchTrace.unique`.  Section sizes are
    checked now so that the deferred decode cannot fail.
    """
    try:
        if arrays["schema"] != TRACE_SCHEMA:
            return None
        groups = arrays["groups_per_trace"]
        n_unique, rows = len(groups), int(groups.sum())
        row_sections = ("ops", "nlanes", "aux", "npay", "loc")
        if (
            any(arrays[name].size != rows for name in row_sections)
            or len(arrays["payload_per_trace"]) != n_unique
            or int(arrays["payload_per_trace"].sum()) != arrays["payload"].size
        ):
            return None
        base_counters = arrays.get("base_counters")
        if base_counters is not None and (
            base_counters.size != n_unique * len(BASE_COUNTER_FIELDS)
            or len(arrays["stream_per_trace"]) != n_unique
            or int(arrays["stream_per_trace"].sum()) != arrays["stream"].size
            or arrays["group_sectors"].size != rows
        ):
            return None
        instances = arrays["instances"].astype(np.int64, copy=False)
        if instances.size and not 0 <= instances.min() <= instances.max() < n_unique:
            return None
        totals = _parse_totals(arrays.get("totals", ()))

        def decode() -> list[BlockTrace]:
            g_split = np.cumsum(groups)[:-1]
            p_split = np.cumsum(arrays["payload_per_trace"])[:-1]
            ops = np.split(arrays["ops"].astype(np.uint8, copy=False), g_split)
            nlanes = np.split(arrays["nlanes"], g_split)
            aux = np.split(arrays["aux"], g_split)
            npay = np.split(arrays["npay"], g_split)
            payload = np.split(arrays["payload"], p_split)
            loc = np.split(arrays["loc"].astype(np.int32, copy=False), g_split)
            unique = [
                BlockTrace(o, n, a, c, p, x)
                for o, n, a, c, p, x in zip(ops, nlanes, aux, npay, payload, loc)
            ]
            if base_counters is not None and n_unique:
                counters = np.asarray(base_counters, dtype=np.int64).reshape(
                    n_unique, len(BASE_COUNTER_FIELDS)
                )
                s_split = np.cumsum(arrays["stream_per_trace"])[:-1]
                streams = np.split(arrays["stream"], s_split)
                gsec = np.split(arrays["group_sectors"], g_split)
                for t, row, st, g in zip(unique, counters.tolist(), streams, gsec):
                    t._memo["base"] = (dict(zip(BASE_COUNTER_FIELDS, row)), st, g)
            return unique

        writeback = np.asarray(arrays["writeback"], dtype=np.int64).reshape(-1, 3)
        locations = tuple((str(f), int(n)) for f, n in arrays["locations"])
        return LaunchTrace(
            grid_dim=int(arrays["grid_dim"]),
            block_dim=int(arrays["block_dim"]),
            warp_size=int(arrays["warp_size"]),
            blocks=tuple(int(b) for b in arrays["blocks"]),
            unique=decode,
            instances=instances,
            writeback=writeback,
            locations=locations,
            block_nbytes=sum(arrays[name].nbytes for name in (*row_sections, "payload")),
            totals=totals,
        )
    except (KeyError, IndexError, TypeError, ValueError):
        return None


class TraceCache:
    """Two-layer launch-trace cache: in-memory LRU over the disk store.

    The memory layer holds live :class:`LaunchTrace` objects (including
    their replay memos) under a byte budget; the disk layer is the cache
    store (:mod:`repro.graph.io`, one file per trace under
    ``<cache>/traces/``), so traces survive across processes and CI steps,
    parallel/cluster/serve workers map the same physical bytes zero-copy,
    and ``REPRO_CACHE_DIR`` / ``REPRO_DISK_CACHE`` are honoured.  Schema
    and integrity are validated once when a file is mapped; hits served
    from memory never re-check them.  Disk outcomes feed the registry's
    ``trace_store_*`` counters.
    """

    def __init__(self, max_bytes: int | None = None):
        self._max_bytes = max_bytes
        self._entries: dict[str, LaunchTrace] = {}
        self._bytes = 0

    @property
    def stats(self) -> SimpleNamespace:
        """The ``trace_cache_*`` counters of the metrics registry, as ints.

        A read of the process-wide registry, not a per-cache tally: tests
        isolate by installing a fresh registry.
        """
        registry = get_metrics()
        return SimpleNamespace(
            **{f: int(registry.get("trace_cache_" + f)) for f in _CACHE_STATS}
        )

    @property
    def max_bytes(self) -> int:
        return self._max_bytes if self._max_bytes is not None else _memory_budget_bytes()

    @staticmethod
    def _disk_key(key: str) -> str:
        return f"traces/trace-{key}-v{TRACE_SCHEMA}"

    def get(self, key: str) -> LaunchTrace | None:
        entry = self._entries.get(key)
        if entry is not None:
            del self._entries[key]  # refresh recency
            self._entries[key] = entry
            get_metrics().inc("trace_cache_hits")
            get_tracer().event("trace_cache", level="debug", status="hit", key=key)
            return entry
        arrays = io.load_cached_arrays(self._disk_key(key), counters="trace_store")
        if arrays is not None:
            trace = _trace_from_arrays(arrays)
            if trace is not None:
                get_metrics().inc("trace_cache_disk_hits")
                self._insert(key, trace)
                get_tracer().event("trace_cache", level="debug", status="disk_hit", key=key)
                return trace
        get_metrics().inc("trace_cache_misses")
        get_tracer().event("trace_cache", level="debug", status="miss", key=key)
        return None

    def put(self, key: str, trace: LaunchTrace) -> None:
        if not trace.cacheable:
            get_metrics().inc("trace_cache_uncacheable")
            return
        get_metrics().inc("trace_cache_stores")
        get_tracer().event(
            "trace_cache", level="debug", status="store", key=key, nbytes=trace.nbytes
        )
        self._insert(key, trace)
        written = io.store_cached_arrays(self._disk_key(key), **_trace_to_arrays(trace))
        if written:
            get_metrics().inc("trace_store_saves")
            get_metrics().inc("trace_store_bytes_written", written)

    def _insert(self, key: str, trace: LaunchTrace) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = trace
        self._bytes += trace.nbytes
        budget = self.max_bytes
        while self._bytes > budget and len(self._entries) > 1:
            victim_key = next(iter(self._entries))
            self._bytes -= self._entries.pop(victim_key).nbytes
            get_metrics().inc("trace_cache_evictions")
            get_tracer().event("trace_cache", level="debug", status="evict", key=victim_key)

    def __len__(self) -> int:
        return len(self._entries)


_CACHE = TraceCache()


def get_trace_cache() -> TraceCache:
    """The process-wide trace cache the vectorised engine records into."""
    return _CACHE


def reset_trace_cache(max_bytes: int | None = None) -> TraceCache:
    """Replace the process-wide cache (tests and benchmarks isolate with this)."""
    global _CACHE
    _CACHE = TraceCache(max_bytes)
    return _CACHE
