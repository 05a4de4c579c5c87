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
from repro.gpu.emit import BARRIER, VARIABLE, WSYNC, Lanes, Sites, emitter, sectors, yield_sites
from repro.gpu.memory import GlobalMemory
from repro.gpu.trace import OP_ALU, OP_GLOBAL_LOAD, OP_SYNC_EVENT, OP_WSYNC
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
        self.SITES = Sites(_either_sync_thread, *self.KEYS, var=WSYNC if args[1] else BARRIER)
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
