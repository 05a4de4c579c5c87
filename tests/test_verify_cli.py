"""End-to-end CLI behaviour of ``python -m repro.verify``: exit codes,
named-diff output, the ``--update`` round trip, and artifact placement."""

import json

import pytest

from repro.algorithms import get_algorithm
from repro.verify.cli import main
from repro.verify.goldens import golden_path, load_goldens, write_goldens


class TestGoldenCommand:
    def test_check_passes_on_main(self, capsys):
        assert main(["golden", "--check", "--devices", "sim-v100"]) == 0
        out = capsys.readouterr().out
        assert "sim-v100: ok" in out

    def test_missing_snapshot_fails(self, tmp_path, capsys):
        code = main(["golden", "--check", "--devices", "sim-v100", "--root", str(tmp_path)])
        assert code == 1
        assert "MISSING" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, prefix", [("golden", ""), ("cluster", "cluster_")],
                             ids=["golden", "cluster"])
    def test_update_then_check_round_trip(self, kind, prefix, tmp_path, capsys):
        """Both snapshot kinds: ``--update`` rewrites the checked-in bytes
        exactly, and ``--check`` passes on what it wrote."""
        assert main([kind, "--update", "--devices", "sim-v100", "--root", str(tmp_path)]) == 0
        written = tmp_path / f"{prefix}sim-v100.json"
        assert written.exists()
        assert written.read_bytes() == golden_path("sim-v100", kind=kind).read_bytes()
        assert main([kind, "--check", "--devices", "sim-v100", "--root", str(tmp_path)]) == 0

    def test_tampered_golden_fails_with_named_metric(self, tmp_path, capsys):
        """Simulates cost-model drift: a snapshot whose ``sim_time_s`` no
        longer matches the code must fail the check naming that metric."""
        snapshot = load_goldens(golden_path("sim-v100"))
        cell = snapshot["fixtures"]["wheel-24"]["algorithms"]["Polak"]
        cell["sim_time_s"] = cell["sim_time_s"] * 1.01
        write_goldens(snapshot, tmp_path / "sim-v100.json")
        code = main(["golden", "--check", "--devices", "sim-v100", "--root", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "wheel-24 / Polak / sim_time_s" in out


class TestFuzzCommand:
    def test_clean_batch_exits_zero(self, tmp_path, capsys):
        code = main([
            "fuzz", "--seeds", "3", "--max-edges", "60",
            "--artifact-root", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 seeds, 0 disagreement(s)" in out

    def test_start_seed_windows_the_seed_space(self, tmp_path, capsys):
        code = main([
            "fuzz", "--seeds", "2", "--start-seed", "3", "--max-edges", "60",
            "--artifact-root", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed    3" in out and "seed    4" in out
        assert "seed    0" not in out

    def test_disagreement_exits_nonzero_with_artifact(self, tmp_path, capsys, monkeypatch):
        polak = type(get_algorithm("Polak"))
        orig = polak.count
        monkeypatch.setattr(polak, "count", lambda self, csr: orig(self, csr) + 1)
        code = main([
            "fuzz", "--seeds", "1", "--max-edges", "60",
            "--artifact-root", str(tmp_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "DISAGREEMENT" in out
        report = json.loads((tmp_path / "0" / "report.json").read_text())
        assert any(k.startswith("Polak/") for k in report["findings"])


class TestInvariantsCommand:
    def test_catalogue_passes(self, capsys):
        assert main(["invariants", "--seeds", "2", "--skip-parallel"]) == 0
        out = capsys.readouterr().out
        assert "9/9 invariants hold" in out

    def test_failure_exits_nonzero(self, capsys, monkeypatch):
        fox = type(get_algorithm("Fox"))
        orig = fox.count
        monkeypatch.setattr(fox, "count", lambda self, csr: orig(self, csr) + 1)
        assert main(["invariants", "--seeds", "2", "--skip-parallel"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])
