"""Differential fuzzer: strategies, ddmin shrinking, and the bug drill.

The drill tests are the ones that justify the subsystem: an off-by-one
injected into a single algorithm must be caught, delta-debugged to a tiny
edge list, and persisted as a self-contained repro artifact.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.gpu.kernel as kernel_mod
from repro.algorithms import get_algorithm
from repro.algorithms.polak import _polak_thread
from repro.graph.generators import wheel
from repro.verify.differential import (
    BASELINE,
    CRASH,
    count_all,
    disagreements,
    fuzz_one,
    run_fuzz,
    write_artifact,
)
from repro.verify.engines import ENGINES
from repro.verify.shrink import ddmin
from repro.verify.strategies import STRATEGIES, generate_case, strategy_names


class TestStrategies:
    def test_generation_is_deterministic(self):
        for seed in range(10):
            a = generate_case(seed, max_edges=200)
            b = generate_case(seed, max_edges=200)
            assert a.strategy == b.strategy
            assert np.array_equal(a.edges, b.edges)

    def test_round_robin_covers_every_family(self):
        seen = {generate_case(seed).strategy for seed in range(len(STRATEGIES))}
        assert seen == set(strategy_names())

    @pytest.mark.parametrize("max_edges", [1, 17, 400])
    def test_edge_budget_and_shape(self, max_edges):
        for seed in range(len(STRATEGIES)):
            edges = generate_case(seed, max_edges=max_edges).edges
            assert edges.ndim == 2 and edges.shape[1] == 2
            assert edges.dtype == np.int64
            assert edges.shape[0] <= max_edges


class TestDdmin:
    def test_shrinks_to_single_culprit_edge(self):
        rng = np.random.default_rng(7)
        edges = np.concatenate(
            [rng.integers(0, 20, size=(50, 2)), np.array([[5, 77]])], axis=0
        ).astype(np.int64)

        def has_culprit(candidate):
            return bool(((candidate[:, 0] == 5) & (candidate[:, 1] == 77)).any())

        shrunk = ddmin(edges, has_culprit)
        assert shrunk.shape == (1, 2)
        assert shrunk.tolist() == [[5, 77]]

    def test_result_is_1_minimal(self):
        edges = np.stack(
            [np.zeros(30, dtype=np.int64), np.arange(30, dtype=np.int64)], axis=1
        )

        def at_least_three_hub_edges(candidate):
            return int((candidate[:, 0] == 0).sum()) >= 3

        shrunk = ddmin(edges, at_least_three_hub_edges)
        assert shrunk.shape[0] == 3
        for i in range(shrunk.shape[0]):
            reduced = np.delete(shrunk, i, axis=0)
            assert not at_least_three_hub_edges(reduced)

    def test_rejects_passing_input(self):
        edges = np.array([[0, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="predicate does not hold"):
            ddmin(edges, lambda c: False)

    def test_predicate_calls_are_memoised(self):
        edges = np.arange(40, dtype=np.int64).reshape(20, 2)
        seen = []

        def predicate(candidate):
            seen.append(candidate.tobytes())
            return candidate.shape[0] >= 2

        ddmin(edges, predicate)
        assert len(seen) == len(set(seen)), "predicate re-evaluated a cached candidate"


class TestCountAll:
    def test_all_paths_agree_on_wheel(self):
        results = count_all(wheel(24))
        assert results[BASELINE] == 24
        assert not disagreements(results)
        # Every independent family must actually be present on a small graph.
        keys = set(results)
        assert {"matrix", "node-iterator", "oriented-ref/degree", "oriented-ref/id"} <= keys
        assert {"Polak/degree", "Polak/id", "Polak/structural", "Polak/device"} <= keys

    def test_size_gates_skip_expensive_paths(self):
        edges = np.stack(
            [np.zeros(80, dtype=np.int64), np.arange(1, 81, dtype=np.int64)], axis=1
        )
        results = count_all(edges, structural_limit=64, device_limit=64)
        assert "Polak/degree" in results
        assert "Polak/structural" not in results
        assert "Polak/device" not in results

    def test_restrict_lifts_gates_and_prunes(self):
        edges = np.stack(
            [np.zeros(80, dtype=np.int64), np.arange(1, 81, dtype=np.int64)], axis=1
        )
        results = count_all(
            edges, structural_limit=64, device_limit=64, restrict={"Polak/structural"}
        )
        assert set(results) == {BASELINE, "Polak/structural"}


def test_fuzz_smoke_is_clean(tmp_path):
    """One full round-robin of strategies finds no disagreement on main."""
    reports = run_fuzz(range(len(STRATEGIES)), max_edges=120, artifact_root=tmp_path)
    assert all(r.ok for r in reports), [r.seed for r in reports if not r.ok]
    assert not any(tmp_path.iterdir()), "clean run must write no artifacts"


@pytest.mark.slow
def test_fuzz_acceptance_batch_is_clean(tmp_path):
    """The acceptance command: 25 seeds at the full 400-edge budget."""
    reports = run_fuzz(range(25), max_edges=400, artifact_root=tmp_path)
    assert all(r.ok for r in reports), [r.seed for r in reports if not r.ok]


class TestInjectedBugDrill:
    def test_global_off_by_one_caught_and_shrunk(self, tmp_path, monkeypatch):
        polak = type(get_algorithm("Polak"))
        orig = polak.count
        monkeypatch.setattr(polak, "count", lambda self, csr: orig(self, csr) + 1)

        report = fuzz_one(0, max_edges=200, artifact_root=tmp_path)
        assert not report.ok
        assert any(key.startswith("Polak/") for key in report.findings)
        assert report.shrunk_edges is not None
        assert report.shrunk_edges.shape[0] <= 12

        artifact = report.artifact_dir
        assert artifact is not None and artifact.parent == tmp_path
        for name in ("edges.txt", "shrunk.txt", "report.json", "test_regression.py"):
            assert (artifact / name).exists(), name
        payload = json.loads((artifact / "report.json").read_text())
        assert payload["seed"] == 0
        assert payload["findings"]

    def test_a_crash_while_shrinking_is_a_finding(self, tmp_path, monkeypatch):
        """Polak's count raises below 5 edges and adds 1 above: the
        shrinker keeps crashing candidates, so it ends on a crashing
        graph.  The crash is a finding naming the exception and the
        suspects, and the bundle is written."""
        polak = type(get_algorithm("Polak"))
        orig = polak.count

        def count(self, csr):
            if csr.m < 5:
                raise RuntimeError("injected crash")
            return orig(self, csr) + 1

        monkeypatch.setattr(polak, "count", count)
        report = fuzz_one(0, max_edges=60, artifact_root=tmp_path)
        assert report.findings and all(key.startswith("Polak/") for key in report.findings)
        crash = report.shrunk_findings[CRASH]
        assert "RuntimeError: injected crash" in crash and "Polak/degree" in crash
        assert report.shrunk_edges.shape[0] < 5
        payload = json.loads((report.artifact_dir / "report.json").read_text())
        assert payload["shrunk_findings"] == {CRASH: crash}

    def test_a_crash_on_the_generated_graph_is_a_finding(self, tmp_path, monkeypatch):
        polak = type(get_algorithm("Polak"))

        def count(self, csr):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(polak, "count", count)
        report = fuzz_one(0, max_edges=60, artifact_root=tmp_path)
        assert list(report.findings) == [CRASH]
        assert "RuntimeError: injected crash (checking every path)" == report.findings[CRASH]
        assert CRASH in report.shrunk_findings
        for name in ("edges.txt", "shrunk.txt", "report.json", "test_regression.py"):
            assert (report.artifact_dir / name).exists(), name

    def test_data_dependent_bug_shrinks_to_minimal_triangle(self, tmp_path, monkeypatch):
        """A bug that only fires on graphs with triangles must shrink to a
        1-minimal witness — a single triangle, far under the 12-edge bar."""
        hindex = type(get_algorithm("H-INDEX"))
        orig = hindex.count_structural
        monkeypatch.setattr(
            hindex, "count_structural", lambda self, csr: max(orig(self, csr) - 1, 0)
        )

        failing = None
        for seed in range(20):
            probe = fuzz_one(seed, max_edges=60, shrink=False, artifact_root=tmp_path)
            if not probe.ok:
                failing = seed
                break
        assert failing is not None, "no seed under 60 edges produced a triangle"

        report = fuzz_one(failing, max_edges=60, artifact_root=tmp_path)
        assert set(report.findings) == {"H-INDEX/structural"}
        assert report.shrunk_edges is not None
        assert report.shrunk_edges.shape[0] == 3, "minimal witness is one triangle"
        # The shrunk graph still reproduces through the restricted checker.
        shrunk_results = count_all(report.shrunk_edges, restrict={"H-INDEX/structural"})
        assert disagreements(shrunk_results)

    def test_regression_file_is_valid_and_passes_once_fixed(self, tmp_path):
        """The generated pytest must compile, import, and pass on main
        (i.e. once the injected bug is gone)."""
        case = generate_case(3, max_edges=60)
        report_stub = fuzz_one(3, max_edges=60, artifact_root=tmp_path)
        assert report_stub.ok  # main is clean; fabricate the artifact directly
        from repro.verify.differential import FuzzReport

        artifact = write_artifact(
            FuzzReport(3, case.strategy, case.edges, {"fake": 1}), tmp_path
        )
        source = (artifact / "test_regression.py").read_text()
        namespace: dict = {}
        exec(compile(source, "test_regression.py", "exec"), namespace)
        namespace["test_fuzz_seed_3_regression"]()  # must not raise on fixed code

    def test_engine_side_counter_bug_caught_shrunk_and_persisted(self, tmp_path, monkeypatch):
        """The engine-parity oracle under the same fuzz loop: one counter
        bumped on the vectorised side only must be named as an
        ``<algorithm>/<metric>`` mismatch, shrunk, persisted, and the
        generated regression must pass once the bug is gone."""
        vectorized = kernel_mod.simulate_vectorized

        def bumped(device, program, **launch):
            local = vectorized(device, program, **launch)
            if program is _polak_thread:
                local = dataclasses.replace(
                    local, global_load_requests=local.global_load_requests + 1
                )
            return local

        monkeypatch.setattr(kernel_mod, "simulate_vectorized", bumped)
        report = fuzz_one(0, oracle=ENGINES, max_edges=40, artifact_root=tmp_path)
        assert not report.ok
        assert "Polak/global_load_requests" in report.findings
        assert all(key.startswith("Polak/") for key in report.findings)
        assert report.shrunk_edges is not None
        assert report.shrunk_edges.shape[0] < report.edges.shape[0]
        assert "Polak/global_load_requests" in report.shrunk_findings

        artifact = report.artifact_dir
        assert artifact == tmp_path / "0"
        for name in ("edges.txt", "shrunk.txt", "report.json", "test_regression.py"):
            assert (artifact / name).exists(), name
        payload = json.loads((artifact / "report.json").read_text())
        assert payload["oracle"] == "engines" and payload["seed"] == 0
        assert payload["findings"]["Polak/global_load_requests"]["vectorized"] == (
            payload["findings"]["Polak/global_load_requests"]["event"] + 1
        )

        monkeypatch.undo()
        source = (artifact / "test_regression.py").read_text()
        namespace: dict = {}
        exec(compile(source, "test_regression.py", "exec"), namespace)
        namespace["test_engines_seed_0_regression"]()  # must not raise on fixed code
