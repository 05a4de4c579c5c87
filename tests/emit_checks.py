"""Shared checks for the array-emitter tests: record a launch both ways.

Generator recording (``record_generators``) is the reference: an emitter
must write the same :class:`~repro.gpu.trace.LaunchTrace` field by field
-- block digests and dtypes, instances, writeback, location table, sampled
blocks -- and leave the same argument arrays behind.
"""

from unittest import mock

import numpy as np
import pytest

from repro.gpu import engine
from repro.gpu.kernel import _select_blocks
from repro.gpu.memory import DeviceArray, GlobalMemory
from repro.gpu.metrics import ProfileMetrics

TRACE_FIELDS = ("ops", "nlanes", "aux", "npay", "payload", "loc")


def algorithm_launches(module, algorithm, csr, device, max_blocks=None, **config):
    """``[(program, launch)]``: the ``launch_kernel`` calls ``algorithm``
    makes for ``csr``, in order, as keyword arguments of ``record_launch``."""
    with mock.patch.object(module, "launch_kernel") as launch:
        algorithm(**config).launch(
            csr, GlobalMemory(device), device, ProfileMetrics(warp_size=device.warp_size),
            max_blocks_simulated=max_blocks,
        )
    out = []
    for call in launch.call_args_list:
        kw = call.kwargs
        out.append((call.args[1], dict(
            grid_dim=kw["grid_dim"],
            block_dim=kw["block_dim"],
            args=kw["args"],
            shared_words=kw.get("shared_words", 0),
            blocks=_select_blocks(kw["grid_dim"], kw["max_blocks_simulated"]),
        )))
    return out


def copy_args(args):
    """Fresh copies of the device arrays in ``args``.  An all-zero array
    (a large spill workspace) is copied as fresh zeros, which stay
    unmapped until written."""
    return tuple(
        DeviceArray(
            a.name,
            a.data.copy() if a.data.any() else np.zeros(a.data.shape, a.data.dtype),
            a.itemsize,
            a.base,
        )
        if isinstance(a, DeviceArray) else a
        for a in args
    )


def assert_identical(device, program, launch):
    """Emit and generator-record ``launch`` on copies; every field agrees.

    A launch the generators cannot record (a shared word out of range)
    must fail the same way when emitted.
    """
    rest = {k: v for k, v in launch.items() if k != "args"}
    ref_args, got_args = copy_args(launch["args"]), copy_args(launch["args"])
    try:
        ref = engine.record_generators(device, program, args=ref_args, **rest)
    except IndexError:
        with pytest.raises(IndexError):
            engine._EMITTERS[program](device, program, args=got_args, **rest)
        return None
    got = engine._EMITTERS[program](device, program, args=got_args, **rest)
    assert (got.grid_dim, got.block_dim, got.warp_size) == (
        ref.grid_dim, ref.block_dim, ref.warp_size,
    )
    assert got.blocks == ref.blocks
    assert [t.digest for t in got.unique] == [t.digest for t in ref.unique]
    for a, b in zip(got.unique, ref.unique):
        assert [getattr(a, f).dtype for f in TRACE_FIELDS] == [
            getattr(b, f).dtype for f in TRACE_FIELDS
        ]
    assert got.instances.tolist() == ref.instances.tolist()
    assert got.writeback.dtype == ref.writeback.dtype == np.int64
    np.testing.assert_array_equal(got.writeback, ref.writeback)
    assert got.locations == ref.locations
    for a, b in zip(ref_args, got_args):
        if isinstance(a, DeviceArray):
            np.testing.assert_array_equal(b.data, a.data)
    return got


def issued_lines(trace) -> set[int]:
    """Source lines of every row a trace's sampled blocks issued."""
    return {
        trace.locations[loc][1]
        for i in set(trace.instances.tolist())
        for loc in set(trace.unique[i].loc.tolist())
    }
