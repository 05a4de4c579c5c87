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
from repro.gpu.emit import WSYNC, Lanes, Sites, emitter, sectors, yield_sites
from repro.gpu.memory import GlobalMemory
from repro.gpu.trace import OP_WSYNC
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
