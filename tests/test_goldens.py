"""Golden metric baselines: the tier-1 drift gate.

The checked-in snapshots under ``tests/goldens/`` pin every algorithm's
triangle count and profile metrics on the fixed fixture set for both
simulated devices.  These tests re-record the matrix in-process and fail
with a named (fixture, algorithm, metric) triple on any drift.

Updating intentionally changed baselines::

    PYTHONPATH=src python -m repro.verify golden --update

then commit the regenerated ``tests/goldens/*.json`` alongside the change
that moved the numbers.  The files are diff-stable (sorted keys, floats
rounded to 10 significant digits), so the review diff shows exactly which
counters moved.
"""

import json

import pytest

from repro.gpu.costmodel import CostModel
from repro.verify.fixtures import GOLDEN_DEVICES, fixture_names
from repro.verify.goldens import (
    GOLDEN_METRICS,
    GOLDEN_SCHEMA,
    GoldenDiff,
    compare_snapshots,
    golden_path,
    load_goldens,
    record_device,
    write_goldens,
)


@pytest.fixture(scope="module")
def current_snapshots():
    """Re-record the full fixture x algorithm matrix once per device."""
    return {device: record_device(device) for device in GOLDEN_DEVICES}


@pytest.mark.parametrize("device", GOLDEN_DEVICES)
def test_goldens_match(device, current_snapshots):
    """The gate: current metrics must match the checked-in snapshot."""
    path = golden_path(device)
    assert path.exists(), (
        f"missing golden snapshot {path}; generate it with "
        "`python -m repro.verify golden --update`"
    )
    diffs = compare_snapshots(load_goldens(path), current_snapshots[device])
    assert not diffs, "golden drift:\n" + "\n".join(str(d) for d in diffs)


@pytest.mark.parametrize("device", GOLDEN_DEVICES)
def test_update_is_deterministic_and_matches_checked_in(
    device, current_snapshots, tmp_path
):
    """``--update`` output is byte-identical across runs and processes."""
    regenerated = write_goldens(current_snapshots[device], tmp_path / f"{device}.json")
    assert regenerated.read_bytes() == golden_path(device).read_bytes()


def test_snapshot_covers_full_matrix(current_snapshots):
    snapshot = current_snapshots["sim-v100"]
    assert sorted(snapshot["fixtures"]) == sorted(fixture_names())
    for fname, fdata in snapshot["fixtures"].items():
        algs = fdata["algorithms"]
        assert len(algs) == 9, (fname, sorted(algs))
        for alg, cell in algs.items():
            assert set(cell) == {"count", *GOLDEN_METRICS}, (fname, alg)


def test_costmodel_perturbation_fails_with_named_metric(current_snapshots):
    """A one-unit change to a cost-model constant must trip the gate, and
    every resulting diff must name ``sim_time_s`` (raw counters are
    upstream of the cost model and may not move)."""
    perturbed = record_device("sim-v100", cost_model=CostModel(dram_latency_cycles=451.0))
    diffs = compare_snapshots(current_snapshots["sim-v100"], perturbed)
    assert diffs, "dram_latency_cycles 450 -> 451 went unnoticed"
    assert {d.key[-1] for d in diffs} == {"sim_time_s"}


class TestCompareSnapshots:
    """Unit behaviour of the diffing itself (hand-built snapshots)."""

    @staticmethod
    def _snapshot(count=1, glr=100.0):
        cell = {
            "count": count,
            "global_load_requests": glr,
            "warp_execution_efficiency": 0.5,
            "gld_transactions_per_request": 2.0,
            "cycles": 1000.0,
            "sim_time_s": 1e-5,
        }
        return {
            "schema": GOLDEN_SCHEMA,
            "fixtures": {"fx": {"n": 3, "m": 3, "algorithms": {"Alg": dict(cell)}}},
        }

    def test_identical_snapshots_have_no_diffs(self):
        assert compare_snapshots(self._snapshot(), self._snapshot()) == []

    def test_count_compares_exactly(self):
        diffs = compare_snapshots(self._snapshot(count=1), self._snapshot(count=2))
        assert [d.key for d in diffs] == [("fx", "Alg", "count")]
        assert (diffs[0].golden, diffs[0].current) == (1, 2)

    def test_floats_compare_within_tolerance(self):
        golden = self._snapshot(glr=100.0)
        assert compare_snapshots(golden, self._snapshot(glr=100.0 * (1 + 1e-8))) == []
        drifted = compare_snapshots(golden, self._snapshot(glr=100.1))
        assert [d.key[-1] for d in drifted] == ["global_load_requests"]

    def test_missing_algorithm_is_a_diff(self):
        current = self._snapshot()
        current["fixtures"]["fx"]["algorithms"] = {}
        diffs = compare_snapshots(self._snapshot(), current)
        assert [d.key for d in diffs] == [("fx", "Alg")]
        assert diffs[0].current is None

    def test_missing_fixture_is_a_diff(self):
        current = self._snapshot()
        current["fixtures"] = {}
        diffs = compare_snapshots(self._snapshot(), current)
        assert [d.key for d in diffs] == [("fx",)]
        assert diffs[0].current is None

    def test_every_key_compares_not_only_metrics(self):
        """The leaf walk also checks the header and the fixture sizes."""
        golden = {**self._snapshot(), "device": "sim-v100"}
        current = {**self._snapshot(), "device": "sim-rtx4090"}
        current["fixtures"]["fx"]["m"] = 4
        diffs = compare_snapshots(golden, current)
        assert [d.key for d in diffs] == [("device",), ("fx", "m")]

    def test_str_names_the_path_without_container_keys(self):
        diffs = compare_snapshots(self._snapshot(), self._snapshot(glr=100.1))
        assert str(diffs[0]) == (
            "fx / Alg / global_load_requests: golden=100.0 current=100.1"
        )
        cell = GoldenDiff(
            ("fixtures", "fx", "algorithms", "Polak", "edge1d", "devices=2",
             "partitions", 1, "sim_time_s"),
            1e-5, None,
        )
        assert str(cell) == (
            "fx / Polak / edge1d / devices=2 / partitions[1] / sim_time_s: "
            "golden=1e-05 current=<missing>"
        )


def test_load_rejects_schema_mismatch(tmp_path):
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"schema": GOLDEN_SCHEMA + 1, "fixtures": {}}))
    with pytest.raises(ValueError, match="golden --update"):
        load_goldens(stale)
