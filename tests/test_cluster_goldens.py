"""Scale-out golden baselines: drift detection and regeneration flow."""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest

from repro.gpu.engine import event_oracle
from repro.verify.cli import main as verify_main
from repro.verify.fixtures import GOLDEN_DEVICES
from repro.verify.goldens import (
    GOLDEN_SCHEMA,
    check_device,
    compare_snapshots,
    golden_path,
    load_goldens,
    record_cluster_device,
    write_goldens,
)


@pytest.fixture(scope="module")
def snapshot():
    """One freshly recorded sim-v100 matrix, shared across this module."""
    return record_cluster_device("sim-v100")


class TestCommittedGoldens:
    @pytest.mark.parametrize("device", GOLDEN_DEVICES)
    def test_committed_snapshots_exist(self, device):
        assert golden_path(device, kind="cluster").exists()

    @pytest.mark.parametrize("device", GOLDEN_DEVICES)
    def test_no_drift_from_committed(self, device):
        diffs = check_device(device, kind="cluster")
        assert diffs == [], "\n".join(map(str, diffs))

    def test_update_reproduces_committed_bytes(self, snapshot, tmp_path):
        """--update is deterministic down to the byte: regenerating must
        reproduce the committed file exactly (sorted keys, 10-sig-digit
        floats, trailing newline)."""
        path = write_goldens(snapshot, tmp_path / "cluster_sim-v100.json")
        assert path.read_bytes() == golden_path("sim-v100", kind="cluster").read_bytes()

    @pytest.mark.parametrize("engine", ("vectorized", "event"))
    def test_engines_agree_byte_for_byte(self, engine, tmp_path):
        with event_oracle() if engine == "event" else nullcontext():
            snap = record_cluster_device("sim-v100")
        path = write_goldens(snap, tmp_path / "snap.json")
        assert path.read_bytes() == golden_path("sim-v100", kind="cluster").read_bytes()


class TestSnapshotMechanics:
    def test_snapshot_shape(self, snapshot):
        assert snapshot["schema"] == GOLDEN_SCHEMA
        fixture = snapshot["fixtures"]["powerlaw-120"]
        cells = fixture["algorithms"]["TRUST"]["hash2d"]
        assert set(cells) == {"devices=1", "devices=2", "devices=4"}
        one = cells["devices=1"]
        assert one["speedup"] == 1.0 and one["exchange_bytes"] == 0
        counts = {cells[k]["count"] for k in cells}
        assert len(counts) == 1  # conservation inside the snapshot itself

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "cluster_sim-v100.json"
        bad.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema mismatch"):
            load_goldens(bad)

    def test_compare_reports_both_missing_sides(self):
        golden = {"a": 1, "b": 2.0}
        current = {"b": 2.0, "c": 3}
        diffs = compare_snapshots(golden, current)
        assert any("current=<missing>" in str(d) for d in diffs)
        assert any("golden=<missing>" in str(d) for d in diffs)

    def test_compare_tolerates_float_noise(self):
        golden = {"x": 1.0}
        assert compare_snapshots(golden, {"x": 1.0 + 1e-9}) == []
        assert compare_snapshots(golden, {"x": 1.01}) != []

    def test_compare_counts_exactly(self):
        assert compare_snapshots({"count": 7}, {"count": 8}) != []


class TestVerifyCli:
    def test_update_then_check_round_trip(self, snapshot, tmp_path, capsys):
        write_goldens(snapshot, tmp_path / "cluster_sim-v100.json")
        code = verify_main(
            ["cluster", "--check", "--root", str(tmp_path), "--devices", "sim-v100"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "ok" in out

    def test_missing_snapshot_fails(self, tmp_path, capsys):
        code = verify_main(
            ["cluster", "--check", "--root", str(tmp_path), "--devices", "sim-v100"]
        )
        out = capsys.readouterr().out
        assert code == 1 and "MISSING" in out

    def test_drift_is_reported(self, snapshot, tmp_path, capsys):
        doctored = json.loads(json.dumps(snapshot))
        cell = doctored["fixtures"]["clique-12"]["algorithms"]["Polak"]["edge1d"]
        cell["devices=2"]["count"] += 1
        write_goldens(doctored, tmp_path / "cluster_sim-v100.json")
        code = verify_main(
            ["cluster", "--check", "--root", str(tmp_path), "--devices", "sim-v100"]
        )
        out = capsys.readouterr().out
        assert code == 1 and "drifted" in out and "count" in out
