"""Cooperative primitives built on the event protocol.

Real CUDA kernels perform small prefix sums with register shuffles
(``__shfl_up_sync``) and combine warp partials through a few shared words;
these helpers express that idiom for thread programs.  Use with
``yield from``:

    incl, total = yield from group_inclusive_scan(
        lane, group, value, tmp_base, sync
    )

``lane`` is the thread's index within its ``group`` (32 for a warp-wide
scan, or a warp-multiple for a block-wide one), ``tmp_base`` a region of
``scan_tmp_words(group)`` shared words reserved for the scan, and ``sync``
the barrier event the group uses (``("w",)`` for a warp, ``("y",)`` for a
block).
"""

from __future__ import annotations

from .kernel import KernelConfigError

__all__ = ["group_inclusive_scan", "scan_tmp_words"]


def scan_tmp_words(group: int) -> int:
    """Shared words a ``group_inclusive_scan`` needs (1 for a single warp).

    Raises :class:`~repro.gpu.kernel.KernelConfigError` for a group above
    one warp that is not whole warps: the scan combines ``group // 32``
    warp partials, so a partial warp's values would be lost.
    """
    if group <= 32:
        return 1
    if group % 32:
        raise KernelConfigError(
            f"a {group}-thread scan group is not whole 32-lane warps"
        )
    return 2 * (group // 32) + 1


def group_inclusive_scan(lane: int, group: int, value: int, tmp_base: int, sync):
    """Inclusive prefix sum of ``value`` over a group of threads.

    Returns ``(inclusive_sum, group_total)``.  For a single warp this is
    one shuffle scan plus a broadcast through one shared word; for larger
    groups, warp partials are combined through shared memory exactly like a
    two-level CUB block scan.
    """
    incl = yield ("sc", "scan", value)
    if group <= 32:
        # Broadcast the total (last lane's inclusive sum) via one word.
        if lane == group - 1:
            yield ("ss", "scan_tot", tmp_base, incl)
        yield sync
        total = yield ("s", "scan_tot_r", tmp_base)
        return incl, total
    num_warps = group // 32
    wid = lane // 32
    wsum_base = tmp_base
    wbase_base = tmp_base + num_warps
    total_slot = tmp_base + 2 * num_warps
    if lane % 32 == 31:
        yield ("ss", "scan_ws", wsum_base + wid, incl)
    yield sync
    if lane < num_warps:
        part = yield ("s", "scan_wr", wsum_base + lane)
        part_incl = yield ("sc", "scan2", part)
        # Store the *exclusive* base for each warp.
        yield ("ss", "scan_wb", wbase_base + lane, part_incl - part)
        if lane == num_warps - 1:
            yield ("ss", "scan_tt", total_slot, part_incl)
    yield sync
    base = yield ("s", "scan_br", wbase_base + wid)
    total = yield ("s", "scan_tr", total_slot)
    return incl + base, total
