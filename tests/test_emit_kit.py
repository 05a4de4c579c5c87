"""The lockstep emitter kit (:mod:`repro.gpu.emit`) on small test kernels.

Each kernel here isolates one scheduling rule the kit reproduces from
:meth:`repro.gpu.warp.Warp._step`, with a tiny :class:`~repro.gpu.emit.Lanes`
subclass as its emitter; generator recording is the reference for every
trace (:func:`tests.emit_checks.assert_identical`).
"""

from unittest import mock

import numpy as np
import pytest

from repro.gpu import engine
from repro.gpu.device import SIM_V100
from repro.gpu.emit import (
    BARRIER, DELEGATE, VARIABLE, WSYNC, Delegate, Lanes, Sites, emitter, issues_first, sectors,
    yield_sites,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.trace import (
    OP_ALU, OP_GLOBAL_ATOMIC, OP_GLOBAL_LOAD, OP_GLOBAL_STORE, OP_SHARED_ATOMIC, OP_SHARED_LOAD,
    OP_SHARED_STORE, OP_SYNC_EVENT, OP_WSYNC,
)
from tests.emit_checks import assert_identical


def _tie_thread(ctx, data):
    if ctx.lane % 2:
        x = yield ("g", "odd", data, ctx.lane)
    else:
        x = yield ("g", "even", data, ctx.lane)
    yield ("g", "last", data, x)


class TieLanes(Lanes):
    SITES = Sites(_tie_thread, ("g", "odd"), ("g", "even"), ("g", "last"))
    REGS = ("x",)

    def start(self):
        return np.where(self.lane % 2, 0, 1)

    def issue(self, site, sub):
        data = self.args[0]
        idx = self.x[sub] if site == 2 else self.lane[sub]
        self.x[sub] = data.data[idx]
        self.site[sub] = site + 1 if site == 2 else 2
        return sectors(data, idx)


def _rank_thread(ctx, out):
    total = 0
    for _ in range(3):
        old = yield ("sa", "bump", ctx.warp * 4 + ctx.lane % 4, 1 + ctx.lane % 3)
        total = total * 1000 + old
    yield ("gs", "keep", out, ctx.tid, total)


class RankLanes(Lanes):
    SITES = Sites(_rank_thread, ("sa", "bump"), ("gs", "keep"))
    REGS = ("k", "total")

    def start(self):
        return np.zeros(self.lane.size, dtype=np.int64)

    def issue(self, site, sub):
        if site == 1:
            self.site[sub] = self.SITES.done
            return self.global_store(sub, self.args[0], self.tid[sub], self.total[sub])
        idx = (self.tib[sub] // 32) * 4 + self.lane[sub] % 4
        old = self.shared_add(sub, idx, 1 + self.lane[sub] % 3)
        self.total[sub] = self.total[sub] * 1000 + old
        self.k[sub] += 1
        self.site[sub] = np.where(self.k[sub] < 3, 0, 1)
        return idx


def _park_thread(ctx, data):
    if ctx.lane >= 28:
        return
    if ctx.lane < 8:
        yield ("g", "early", data, ctx.lane)
        yield ("w",)
    else:
        yield ("w",)
    yield ("g", "after", data, ctx.lane)


class ParkLanes(Lanes):
    SITES = Sites(_park_thread, ("g", "early"), WSYNC, WSYNC, ("g", "after"))

    def start(self):
        return np.where(self.lane >= 28, self.SITES.done, np.where(self.lane < 8, 0, 2))

    def issue(self, site, sub):
        if site in (1, 2):  # released
            self.site[sub] = 3
            return None
        self.site[sub] = 1 if site == 0 else self.SITES.done
        return sectors(self.args[0], self.lane[sub])


def _run_thread(ctx, data):
    if ctx.lane < 20 or ctx.warp % 2:
        yield ("g", "a", data, ctx.lane)
    yield ("g", "b", data, ctx.lane)


class RunLanes(Lanes):
    SITES = Sites(_run_thread, ("g", "a"), ("g", "b"))
    STRAIGHT = ((0, 2),)

    def start(self):
        return np.where((self.lane < 20) | (self.tib // 32 % 2 == 1), 0, 1)

    def issue(self, site, sub):
        self.site[sub] = site + 1
        return sectors(self.args[0], self.lane[sub])


def record_both(program, lanes_cls, args, *, block_dim=32, grid_dim=2, shared_words=0):
    launch = dict(
        grid_dim=grid_dim, block_dim=block_dim, args=args,
        shared_words=shared_words, blocks=np.arange(grid_dim),
    )
    with mock.patch.dict(engine._EMITTERS, {program: emitter(lanes_cls)}):
        return assert_identical(SIM_V100, program, launch)


def first_block(trace):
    return trace.unique[trace.instances[0]]


def test_a_tie_goes_to_the_site_of_the_lowest_lane():
    """16 lanes at ``odd`` and 16 at ``even``: lane 0 is even, so ``even``
    issues first although ``odd`` comes first in the source.  Then lane 0
    waits at ``last``, which wins the next 16-16 tie too."""
    data = GlobalMemory(SIM_V100).alloc("data", np.arange(64, dtype=np.int64))
    trace = record_both(_tie_thread, TieLanes, (data,))
    rows = first_block(trace)
    lines = [trace.locations[i][1] for i in rows.loc.tolist()]
    assert lines == [TieLanes.SITES.lines[s][1] for s in (1, 2, 0, 2)]
    assert rows.nlanes.tolist() == [16, 16, 16, 16]


def _split_thread(ctx, data, at_a):
    if at_a[ctx.lane]:
        yield ("g", "a", data, ctx.lane)
    else:
        yield ("g", "b", data, ctx.lane)


class SplitLanes(Lanes):
    SITES = Sites(_split_thread, ("g", "a"), ("g", "b"))

    def start(self):
        return np.where(np.asarray(self.args[1])[self.lane], 0, 1)

    def issue(self, site, sub):
        self.site[sub] = self.SITES.done
        return sectors(self.args[0], self.lane[sub])


@pytest.mark.parametrize("at_a", [
    range(20), range(12, 32), range(1, 32, 2), range(0, 32, 2), range(1, 12), [5, 31],
])
def test_two_competing_sites_follow_issues_first(at_a):
    """Which of two sites issues first, recorded by generators, is the
    rule :func:`issues_first` states and Bisson's probe plays by hand."""
    lanes = np.zeros(32, dtype=bool)
    lanes[list(at_a)] = True
    data = GlobalMemory(SIM_V100).alloc("data", np.arange(32, dtype=np.int64))
    trace = record_both(_split_thread, SplitLanes, (data, tuple(lanes.tolist())))
    rows = first_block(trace)
    a, b = np.flatnonzero(lanes), np.flatnonzero(~lanes)
    a_first = issues_first(a.size, a[0], b.size, b[0])
    assert issues_first(b.size, b[0], a.size, a[0]) is not a_first
    first = SplitLanes.SITES.lines[0 if a_first else 1]
    assert trace.locations[rows.loc[0]] == first
    assert rows.nlanes.tolist() == ([a.size, b.size] if a_first else [b.size, a.size])


def test_a_straight_run_waits_for_lanes_at_its_later_sites():
    """In warp 0, lanes 0-19 issue ``a`` while lanes 20-31 wait at ``b``:
    ``b`` then issues once for all 32, not for the 20 inside the run.  In
    warp 1 every lane issues ``a``, and the run issues ``b`` with it."""
    data = GlobalMemory(SIM_V100).alloc("data", np.arange(64, dtype=np.int64))
    trace = record_both(_run_thread, RunLanes, (data,), block_dim=64)
    rows = first_block(trace)
    lines = [trace.locations[i][1] for i in rows.loc.tolist()]
    assert lines == [RunLanes.SITES.lines[s][1] for s in (0, 1, 0, 1)]
    assert rows.nlanes.tolist() == [20, 32, 32, 32]


def test_shared_atomic_old_values_rank_lanes_in_order():
    """Lanes of one row hitting one word see the previous fill plus the
    deltas of the lower lanes; the next rows see the row's total."""
    out = GlobalMemory(SIM_V100).zeros("out", 128)
    lane = np.arange(32)
    delta = 1 + lane % 3
    per_word = np.bincount(lane % 4, weights=delta).astype(np.int64)
    below = np.array([delta[(lane < i) & (lane % 4 == i % 4)].sum() for i in lane])
    totals = [per_word[lane % 4] * r + below for r in range(3)]
    expected = (totals[0] * 1000 + totals[1]) * 1000 + totals[2]
    trace = record_both(_rank_thread, RankLanes, (out,), block_dim=64, shared_words=8)
    # Every warp bumps its own four words, so all four warps agree.
    np.testing.assert_array_equal(trace.writeback[:, 1], np.arange(128))
    np.testing.assert_array_equal(trace.writeback[:, 2], np.tile(expected, 4))


def test_warp_sync_row_counts_parked_lanes_at_the_lowest_lanes_line():
    """Lanes 0-7 park at the first ``("w",)``, lanes 8-27 at the second and
    lanes 28-31 never park: the release is one row of 28 lanes on the line
    lane 0 parked at."""
    data = GlobalMemory(SIM_V100).alloc("data", np.arange(64, dtype=np.int64))
    trace = record_both(_park_thread, ParkLanes, (data,))
    rows = first_block(trace)
    sync = rows.ops == OP_WSYNC
    assert rows.nlanes[sync].tolist() == [28]
    assert rows.npay[sync].tolist() == [0]
    assert trace.locations[rows.loc[sync][0]] == ParkLanes.SITES.lines[1]
    assert ParkLanes.SITES.lines[1] != ParkLanes.SITES.lines[2]


def test_yield_sites_name_warp_syncs_by_position():
    keys = [key for key, _ in yield_sites(_park_thread.__code__)]
    assert keys == [("g", "early"), WSYNC, WSYNC, ("g", "after")]
    keys = [key for key, _ in yield_sites(_either_sync_thread.__code__)]
    assert keys == [("g", "a"), VARIABLE, ("g", "b")]


def _twin_thread(ctx, data):
    if ctx.lane:
        yield ("g", "twin", data, 0)
    else:
        yield ("g", "twin", data, 1)


def test_sites_must_match_the_kernel():
    with pytest.raises(RuntimeError, match="expected"):
        Sites(_park_thread, ("g", "early"), WSYNC, ("g", "after")).lines
    with pytest.raises(RuntimeError, match="unique"):
        Sites(_twin_thread, ("g", "twin"), ("g", "twin"))
    # A launch that never reaches one of the two may name both.
    assert len(Sites(_twin_thread, ("g", "twin"), ("g", "twin"), skip=(1,)).lines) == 2
    with pytest.raises(RuntimeError, match="unique"):
        Sites(_either_sync_thread, ("g", "a"), VARIABLE, ("g", "b"))  # unresolved


def _barrier_thread(ctx, data):
    if ctx.warp == 2:
        return
    yield ("g", "pre", data, ctx.tid)
    if ctx.warp == 1:
        yield ("g", "more", data, ctx.tid)
    yield ("y",)
    yield ("g", "post", data, ctx.tid)


class BarrierLanes(Lanes):
    SITES = Sites(_barrier_thread, ("g", "pre"), ("g", "more"), BARRIER, ("g", "post"))

    def start(self):
        return np.where(self.tib // 32 == 2, self.SITES.done, 0)

    def issue(self, site, sub):
        if site == 2:  # released
            self.site[sub] = 3
            return None
        if site == 0:
            self.site[sub] = np.where(self.tib[sub] // 32 == 1, 1, 2)
        else:
            self.site[sub] = 2 if site == 1 else self.SITES.done
        return sectors(self.args[0], self.tid[sub])


def test_block_barrier_rows_come_warp_by_warp():
    """Warp 0 reaches ``("y",)`` first and warp 2 retires at once, yet the
    block's rows are warp 0's then warp 1's up to the barrier, one barrier
    row per warp that parked (none for warp 2), then the warps again."""
    data = GlobalMemory(SIM_V100).alloc("data", np.arange(192, dtype=np.int64))
    trace = record_both(_barrier_thread, BarrierLanes, (data,), block_dim=96)
    rows = first_block(trace)
    lines = [trace.locations[i][1] for i in rows.loc.tolist()]
    site_line = [line for _, line in BarrierLanes.SITES.lines]
    assert rows.ops.tolist() == [OP_GLOBAL_LOAD] * 3 + [OP_SYNC_EVENT] * 2 + [OP_GLOBAL_LOAD] * 2
    assert lines == [site_line[0], site_line[0], site_line[1], 0, 0, site_line[3], site_line[3]]
    assert rows.payload[32] == sectors(data, np.int64(32))  # warp 1's lane 0, after warp 0
    assert rows.nlanes[rows.ops == OP_SYNC_EVENT].tolist() == [0, 0]


def _bump_thread(ctx, out, times):
    olds = 0
    for _ in range(times):
        old = yield ("sa", "bump", 0, 1)
        olds = olds * 1000 + old
    yield ("y",)
    yield ("gs", "keep", out, ctx.tid, olds)


class BumpLanes(Lanes):
    SITES = Sites(_bump_thread, ("sa", "bump"), BARRIER, ("gs", "keep"))
    REGS = ("k", "olds")
    ORDERED = (0,)

    def start(self):
        return np.zeros(self.lane.size, dtype=np.int64)

    def issue(self, site, sub):
        if site == 1:
            self.site[sub] = 2
            return None
        if site == 2:
            self.site[sub] = self.SITES.done
            return self.global_store(sub, self.args[0], self.tid[sub], self.olds[sub])
        idx = np.zeros(sub.size, dtype=np.int64)
        self.olds[sub] = self.olds[sub] * 1000 + self.shared_add(sub, idx, 1)
        self.k[sub] += 1
        self.site[sub] = np.where(self.k[sub] < self.args[1], 0, 1)
        return idx


class SideBySideBumpLanes(BumpLanes):
    ORDERED = ()


@pytest.mark.parametrize("times", [1, 2])
def test_shared_atomics_rank_across_the_warps_of_a_block(times):
    """Every lane of a 3-warp block bumps one shared word ``times`` times
    before a barrier: warp 0 takes the lowest old values, then warp 1,
    then warp 2, as the warps run one after another.  With one bump per
    warp the warps may run side by side; with two, warp 0's second row
    comes before warp 1's first only in an ordered phase."""
    out = GlobalMemory(SIM_V100).zeros("out", 192)
    tib = np.arange(96)
    first = (tib // 32) * 32 * times + tib % 32
    expected = first if times == 1 else first * 1000 + first + 32
    for lanes_cls in (BumpLanes, SideBySideBumpLanes):
        if lanes_cls is SideBySideBumpLanes and times > 1:
            with pytest.raises(AssertionError):
                record_both(_bump_thread, lanes_cls, (out, times), block_dim=96, shared_words=1)
            continue
        trace = record_both(_bump_thread, lanes_cls, (out, times), block_dim=96, shared_words=1)
        np.testing.assert_array_equal(trace.writeback[:, 2], np.tile(expected, 2))


def _swap_thread(ctx, data):
    v = 0
    if ctx.lane < 8:
        v = yield ("g", "a", data, ctx.lane)
        v = yield ("g", "b", data, v)
    meta = yield ("bc", "swap", v)
    yield ("g", "c", data, meta[ctx.lane % 8])


class SwapLanes(Lanes):
    SITES = Sites(_swap_thread, ("g", "a"), ("g", "b"), ("bc", "swap"), ("g", "c"))
    REGS = ("v",)

    def start(self):
        return np.where(self.lane < 8, 0, 2)

    def issue(self, site, sub):
        data = self.args[0]
        if site == 2:  # every lane of the warp swaps
            v = self.v[sub].reshape(-1, 32)
            self.v[sub] = np.repeat(v[:, :8], 4, axis=0).reshape(-1, 32).ravel()
            self.site[sub] = 3
            return None
        idx = self.lane[sub] if site == 0 else self.v[sub]
        self.v[sub] = data.data[idx]
        self.site[sub] = site + 1 if site < 3 else self.SITES.done
        return sectors(data, idx)


def test_an_exchange_waits_behind_every_other_site():
    """24 lanes wait at the exchange from the start, but the 8 lanes at
    ``a`` and then ``b`` issue first; the exchange is one ALU row of all
    32 lanes, with no payload."""
    data = GlobalMemory(SIM_V100).alloc("data", (np.arange(64, dtype=np.int64) * 7) % 64)
    trace = record_both(_swap_thread, SwapLanes, (data,))
    rows = first_block(trace)
    assert rows.ops.tolist() == [OP_GLOBAL_LOAD, OP_GLOBAL_LOAD, OP_ALU, OP_GLOBAL_LOAD]
    assert rows.nlanes.tolist() == [8, 8, 32, 32]
    assert rows.npay[2] == rows.aux[2] == 0


def _either_sync_thread(ctx, data, warp_only):
    sync = ("w",) if warp_only else ("y",)
    yield ("g", "a", data, ctx.tid)
    yield sync
    yield ("g", "b", data, ctx.tid)


class EitherSyncLanes(Lanes):
    KEYS = (("g", "a"), VARIABLE, ("g", "b"))

    def __init__(self, device, *, args, **launch):
        self.SITES = Sites(_either_sync_thread, *self.KEYS, var=[WSYNC if args[1] else BARRIER])
        super().__init__(device, args=args, **launch)

    def start(self):
        return np.zeros(self.lane.size, dtype=np.int64)

    def issue(self, site, sub):
        self.site[sub] = site + 1 if site < 2 else self.SITES.done
        return None if site == 1 else sectors(self.args[0], self.tid[sub])


@pytest.mark.parametrize("warp_only", [True, False])
def test_a_variable_yield_resolves_per_launch(warp_only):
    """``yield sync`` is a ``__syncwarp`` in one launch and a
    ``__syncthreads`` in another, on the same line."""
    data = GlobalMemory(SIM_V100).alloc("data", np.arange(128, dtype=np.int64))
    trace = record_both(_either_sync_thread, EitherSyncLanes, (data, warp_only), block_dim=64)
    rows = first_block(trace)
    if warp_only:
        assert rows.ops.tolist() == [OP_GLOBAL_LOAD, OP_WSYNC, OP_GLOBAL_LOAD] * 2
    else:
        assert rows.ops.tolist() == [OP_GLOBAL_LOAD] * 2 + [OP_SYNC_EVENT] * 2 + [OP_GLOBAL_LOAD] * 2


def _or_thread(ctx, out):
    yield ("so", "set", ctx.lane % 3, 1 << (ctx.tid % 5))
    yield ("y",)
    bits = yield ("s", "get", ctx.lane % 3)
    yield ("gs", "keep", out, ctx.tid, bits)


class OrLanes(Lanes):
    SITES = Sites(_or_thread, ("so", "set"), BARRIER, ("s", "get"), ("gs", "keep"))
    REGS = ("bits",)

    def start(self):
        return np.zeros(self.lane.size, dtype=np.int64)

    def issue(self, site, sub):
        word = self.lane[sub] % 3
        self.site[sub] = site + 1
        if site == 0:
            return self.shared_or(sub, word, np.left_shift(1, self.tid[sub] % 5))
        if site == 1:
            return None
        if site == 2:
            self.bits[sub] = self.shared_load(sub, word)
            return word
        self.site[sub] = self.SITES.done
        return self.global_store(sub, self.args[0], self.tid[sub], self.bits[sub])


def test_shared_atomic_or_within_a_row_and_across_warps():
    """Each word of a 3-warp block takes the OR of every lane's bit that
    hit it, from all three warps; the old values are dropped."""
    out = GlobalMemory(SIM_V100).zeros("out", 192)
    trace = record_both(_or_thread, OrLanes, (out,), block_dim=96, shared_words=3)
    assert first_block(trace).ops.tolist()[:3] == [OP_SHARED_ATOMIC] * 3
    tid = np.arange(192)
    expected = [
        np.bitwise_or.reduce(1 << (block[block % 32 % 3 == w] % 5))
        for block in (tid[:96], tid[96:]) for w in range(3)
    ]
    got = trace.writeback[:, 2].reshape(2, 96)
    for b in range(2):
        np.testing.assert_array_equal(got[b], np.array(expected[3 * b : 3 * b + 3])[tid[:96] % 32 % 3])


def _pool_thread(ctx, pool, out):
    word = (ctx.block % 2) * 4 + ctx.lane % 4
    yield ("go", "set", pool, word, 1 << (ctx.block + ctx.lane % 3))
    yield ("y",)
    bits = yield ("g", "get", pool, word)
    yield ("gs", "keep", out, ctx.tid, bits)
    yield ("y",)
    yield ("gs", "clr", pool, word, 0)


class PoolLanes(Lanes):
    SITES = Sites(
        _pool_thread, ("go", "set"), BARRIER, ("g", "get"), ("gs", "keep"), BARRIER,
        ("gs", "clr"),
    )
    REGS = ("bits", "word")

    def __init__(self, device, *, args, **launch):
        super().__init__(device, args=args, **launch)
        self.pool = self.workspace(args[0])

    def start(self):
        self.word[:] = (np.asarray(self.blocks)[self.bs] % 2) * 4 + self.lane % 4
        return np.zeros(self.lane.size, dtype=np.int64)

    def issue(self, site, sub):
        pool, out = self.args
        word, owner = self.word[sub], self.bs[sub]
        self.site[sub] = site + 1
        if site == 0:
            block = np.asarray(self.blocks)[owner]
            return self.pool_or(sub, self.pool, owner, word, np.left_shift(1, block + self.lane[sub] % 3))
        if site in (1, 4):
            return None
        if site == 2:
            self.bits[sub] = self.pool.load(owner, word)
            return sectors(pool, word)
        if site == 3:
            return self.global_store(sub, out, self.tid[sub], self.bits[sub])
        self.site[sub] = self.SITES.done
        return self.pool_store(sub, self.pool, owner, word, 0)


def test_global_atomic_or_into_a_workspace_whose_owners_share_a_slot():
    """Blocks 0 and 2 OR into the same four pool words.  Generator
    recording runs block 0 to its clear before block 2 starts, so block 2
    reads only its own bits; side by side, each block is an owner."""
    gm = GlobalMemory(SIM_V100)
    pool, out = gm.zeros("pool", 8), gm.zeros("out", 192)
    trace = record_both(_pool_thread, PoolLanes, (pool, out), block_dim=64, grid_dim=3)
    assert first_block(trace).ops[0] == OP_GLOBAL_ATOMIC
    keep = trace.writeback[trace.writeback[:, 0] == 1][:, 2].reshape(3, 64)
    lane = np.arange(64) % 32
    for block in range(3):
        masks = [np.bitwise_or.reduce(1 << (block + lane[lane % 4 == w] % 3)) for w in range(4)]
        np.testing.assert_array_equal(keep[block], np.array(masks)[lane % 4])
    assert not trace.writeback[trace.writeback[:, 0] == 0][:, 2].any()


def _two_var_thread(ctx, data, out, shared):
    if shared:

        def put(value):
            return ("ss", "put", ctx.tid_in_block, value)

        def get():
            return ("s", "get", ctx.tid_in_block)

    else:

        def put(value):
            return ("gs", "put", out, ctx.tid, value)

        def get():
            return ("g", "get", out, ctx.tid)

    x = yield ("g", "x", data, ctx.tid)
    yield put(x + 1)
    y = yield get()
    yield ("gs", "keep", out, ctx.tid, 2 * y)


class TwoVarLanes(Lanes):
    KEYS = (("g", "x"), VARIABLE, VARIABLE, ("gs", "keep"))
    REGS = ("x",)

    def __init__(self, device, *, args, **launch):
        shared = args[2]
        var = [("ss", "put"), ("s", "get")] if shared else [("gs", "put"), ("g", "get")]
        self.SITES = Sites(_two_var_thread, *self.KEYS, var=var)
        super().__init__(device, args=args, **launch)

    def start(self):
        return np.zeros(self.lane.size, dtype=np.int64)

    def issue(self, site, sub):
        data, out, shared = self.args
        tid = self.tid[sub]
        self.site[sub] = site + 1
        if site == 0:
            self.x[sub] = data.data[tid]
            return sectors(data, tid)
        if site == 1:
            if shared:
                self.shared_store(sub, self.tib[sub], self.x[sub] + 1)
                return self.tib[sub]
            return self.global_store(sub, out, tid, self.x[sub] + 1)
        if site == 2:
            if shared:
                self.x[sub] = self.shared_load(sub, self.tib[sub])
                return self.tib[sub]
            self.x[sub] = out.data[tid]
            return sectors(out, tid)
        self.site[sub] = self.SITES.done
        return self.global_store(sub, out, tid, 2 * self.x[sub])


@pytest.mark.parametrize("shared", [True, False])
def test_variable_yields_resolve_site_by_site(shared):
    """``yield put(...)`` and ``yield get()`` are two variable yields of
    one launch with two different keys: shared memory in one launch,
    global memory in another."""
    gm = GlobalMemory(SIM_V100)
    data, out = gm.alloc("data", np.arange(64, dtype=np.int64) * 3), gm.zeros("out", 64)
    trace = record_both(
        _two_var_thread, TwoVarLanes, (data, out, shared), shared_words=32 if shared else 0,
    )
    middle = [OP_SHARED_STORE, OP_SHARED_LOAD] if shared else [OP_GLOBAL_STORE, OP_GLOBAL_LOAD]
    assert first_block(trace).ops.tolist() == [OP_GLOBAL_LOAD, *middle, OP_GLOBAL_STORE]
    np.testing.assert_array_equal(trace.writeback[:, 2], 2 * (np.arange(64) * 3 + 1))
    with pytest.raises(RuntimeError, match="one key per variable yield"):
        Sites(_two_var_thread, *TwoVarLanes.KEYS, var=[("ss", "put")])


def _scan_thread(ctx, data, out):
    if ctx.lane % 4 == 0:
        yield ("g", "late", data, ctx.lane)
    incl = yield ("sc", "scan", ctx.lane + 1)
    yield ("gs", "keep", out, ctx.tid, incl)


class ScanLanes(Lanes):
    SITES = Sites(_scan_thread, ("g", "late"), ("sc", "scan"), ("gs", "keep"))
    REGS = ("incl",)

    def start(self):
        return np.where(self.lane % 4 == 0, 0, 1)

    def issue(self, site, sub):
        self.site[sub] = site + 1
        if site == 0:
            return sectors(self.args[0], self.lane[sub])
        if site == 1:
            self.incl[sub] = self.warp_scan(sub, self.lane[sub] + 1)
            return None
        self.site[sub] = self.SITES.done
        return self.global_store(sub, self.args[1], self.tid[sub], self.incl[sub])


def test_a_warp_scan_row():
    """The scan waits for the eight lanes at ``late``, then issues one ALU
    row of all 32 lanes with ``aux`` 5 and no payload; each lane gets the
    inclusive sum over its warp in lane order."""
    gm = GlobalMemory(SIM_V100)
    data, out = gm.alloc("data", np.arange(32, dtype=np.int64)), gm.zeros("out", 128)
    trace = record_both(_scan_thread, ScanLanes, (data, out), block_dim=64)
    rows = first_block(trace)
    assert rows.ops.tolist()[:3] == [OP_GLOBAL_LOAD, OP_ALU, OP_GLOBAL_STORE]
    assert (rows.nlanes[1], rows.aux[1], rows.npay[1]) == (32, 5, 0)
    lane = np.arange(128) % 32
    np.testing.assert_array_equal(trace.writeback[:, 2], (lane + 1) * (lane + 2) // 2)


def _helper(value, data):
    a = yield ("g", "h1", data, value)
    yield ("w",)
    b = yield ("g", "h2", data, a)
    return b


def _delegating_thread(ctx, data, out):
    x = yield ("g", "first", data, ctx.lane)
    y = yield from _helper(x, data)
    yield ("gs", "keep", out, ctx.tid, y)


class DelegatingLanes(Lanes):
    SITES = Sites(
        _delegating_thread,
        ("g", "first"), Delegate(_helper, ("g", "h1"), WSYNC, ("g", "h2")), ("gs", "keep"),
    )
    REGS = ("x",)
    STRAIGHT = ((0, 2),)

    def start(self):
        return np.zeros(self.lane.size, dtype=np.int64)

    def issue(self, site, sub):
        data, out = self.args
        self.site[sub] = site + 1
        if site == 2:  # released
            return None
        if site == 4:
            self.site[sub] = self.SITES.done
            return self.global_store(sub, out, self.tid[sub], self.x[sub])
        idx = self.lane[sub] if site == 0 else self.x[sub]
        self.x[sub] = data.data[idx]
        return sectors(data, idx)


def _nested_def_thread(data):
    x = yield ("g", "a", data, 0)

    def pick(i):
        return ("g", "pick", data, i)

    x = yield ("g", "b", data, x)
    y = yield from _helper(
        x, data
    )
    yield pick(y)
    yield ("gs", "c", data, 1, y)


def test_yield_sites_match_the_lines_a_suspended_generator_reports():
    """Python 3.10 compiles ``yield from`` without a ``SEND`` and loads a
    nested def's qualname as a string constant: neither may hide the
    delegate or leak into the next yield's key, and every site's line is
    the kernel frame's ``f_lineno`` while it is parked there."""
    sites = yield_sites(_nested_def_thread.__code__)
    assert [k for k, _ in sites] == [("g", "a"), ("g", "b"), DELEGATE, VARIABLE, ("gs", "c")]
    gen, parked = _nested_def_thread(None), []
    try:
        next(gen)
        while True:
            if not parked or parked[-1] != gen.gi_frame.f_lineno:
                parked.append(gen.gi_frame.f_lineno)
            gen.send(0)
    except StopIteration:
        pass
    assert [line for _, (_, line) in sites] == parked


def test_a_delegate_attributes_to_the_helpers_lines():
    """``yield from _helper(...)`` is a delegate: its rows, the warp sync
    included, carry the helper's lines, as ``innermost_location``
    reports them for generator recording."""
    assert [k for k, _ in yield_sites(_delegating_thread.__code__)][1] == DELEGATE
    gm = GlobalMemory(SIM_V100)
    data, out = gm.alloc("data", (np.arange(64, dtype=np.int64) * 5) % 64), gm.zeros("out", 64)
    trace = record_both(_delegating_thread, DelegatingLanes, (data, out))
    rows = first_block(trace)
    lines = [trace.locations[i][1] for i in rows.loc.tolist()]
    helper = _helper.__code__
    assert lines[1:4] == [helper.co_firstlineno + k for k in (1, 2, 3)]
    assert rows.ops.tolist() == [OP_GLOBAL_LOAD, OP_GLOBAL_LOAD, OP_WSYNC, OP_GLOBAL_LOAD, OP_GLOBAL_STORE]
    with pytest.raises(RuntimeError, match="expected"):
        Sites(_delegating_thread, ("g", "first"), ("g", "h1"), WSYNC, ("g", "h2"), ("gs", "keep")).lines
