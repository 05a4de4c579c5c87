"""Multi-GPU scale-out layer: partitioners, conservation, executor, CLI.

The tier-1 gate of this file is ``TestConservation``: for every
registered algorithm × fixture × partitioner × device count, the sum of
per-partition triangle counts must equal the single-device golden — the
cluster layer neither loses nor double-counts triangles.  The injected
bug drill proves the check actually fires when a partition drops an edge.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.cpu_reference import count_triangles_oriented
from repro.framework.cli import main as cli_main
from repro.framework.cluster import (
    DEVICE_COUNTS,
    cluster_to_run_record,
    run_cluster,
    run_cluster_matrix,
    scaleout_curve,
)
from repro.framework.report import render_cluster, render_scaleout
from repro.framework.resilience import RunJournal, record_from_dict, record_to_dict
from repro.framework.scheduler import CellJob, JobScheduler
from repro.gpu.cluster import (
    ENTRY_BYTES,
    build_plan,
    edge1d_owners,
    hash2d_owners,
    hash_grid,
    vertex_hash,
)
from repro.gpu.device import SIM_V100
from repro.graph import clean_edges, oriented_csr
from repro.graph.generators import complete_graph
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.tracer import BufferSink, Tracer, set_tracer
from repro.verify.fixtures import fixture_csr
from repro.verify.invariants import check_cluster_conservation

BLOCKS = 4
PARTS = (1, 2, 3, 4, 8, 16)


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    """Journal and cache writes land in an isolated directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    return tmp_path


@pytest.fixture
def tracer_buf():
    buf = BufferSink()
    old = set_tracer(Tracer([buf]))
    yield buf
    set_tracer(old)


@pytest.fixture(scope="module")
def powerlaw():
    return fixture_csr("powerlaw-120", "degree")


# -- partitioners ------------------------------------------------------------


class TestPartitioners:
    @pytest.mark.parametrize("parts", PARTS)
    def test_every_edge_owned_exactly_once(self, powerlaw, parts):
        for owners in (
            edge1d_owners(powerlaw, parts),
            hash2d_owners(powerlaw, parts, seed=0),
        ):
            assert owners.shape == (powerlaw.m,)
            assert owners.min(initial=0) >= 0
            assert owners.max(initial=0) < parts
            # each CSR entry has exactly one owner by construction; the sum
            # of per-partition owned counts is therefore exactly m.
            assert int(np.bincount(owners, minlength=parts).sum()) == powerlaw.m

    @pytest.mark.parametrize("parts", PARTS)
    def test_hash_grid_factorizes(self, parts):
        a, b = hash_grid(parts)
        assert a * b == parts
        assert 1 <= a <= b

    def test_edge1d_contiguous_and_balanced(self, powerlaw):
        owners = edge1d_owners(powerlaw, 4)
        assert np.all(np.diff(owners) >= 0)  # contiguous CSR chunks
        counts = np.bincount(owners, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_hash2d_deterministic_and_seed_sensitive(self, powerlaw):
        a = hash2d_owners(powerlaw, 4, seed=11)
        b = hash2d_owners(powerlaw, 4, seed=11)
        c = hash2d_owners(powerlaw, 4, seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_vertex_hash_is_a_pure_function_of_seed_and_salt(self):
        ids = np.arange(64, dtype=np.int64)
        np.testing.assert_array_equal(vertex_hash(ids, 3, "row"), vertex_hash(ids, 3, "row"))
        assert not np.array_equal(vertex_hash(ids, 3, "row"), vertex_hash(ids, 3, "col"))
        assert not np.array_equal(vertex_hash(ids, 3, "row"), vertex_hash(ids, 4, "row"))

    @pytest.mark.parametrize("partitioner", ("edge1d", "hash2d"))
    @pytest.mark.parametrize("parts", PARTS)
    def test_plan_owned_edges_partition_the_graph(self, powerlaw, partitioner, parts):
        plan = build_plan(powerlaw, parts, partitioner=partitioner, seed=0)
        assert len(plan.partitions) == parts
        assert sum(p.owned_edges for p in plan.partitions) == powerlaw.m
        per_owner = np.bincount(plan.owner, minlength=parts)
        for p in plan.partitions:
            assert p.owned_edges == int(per_owner[p.index])

    def test_single_device_plan_is_the_identity(self, powerlaw):
        plan = build_plan(powerlaw, 1, partitioner="hash2d", seed=7)
        (only,) = plan.partitions
        assert only.csr.n == powerlaw.n and only.csr.m == powerlaw.m
        np.testing.assert_array_equal(only.csr.row_ptr, powerlaw.row_ptr)
        np.testing.assert_array_equal(only.csr.col, powerlaw.col)
        assert only.exchange_bytes == 0 and only.peers == 0
        assert plan.total_exchange_bytes == 0

    def test_more_partitions_than_edges_yields_empty_devices(self):
        csr = oriented_csr(clean_edges(complete_graph(3)), ordering="degree")
        plan = build_plan(csr, 8, partitioner="edge1d", seed=0)
        assert plan.nonempty_parts < 8
        assert any(p.empty for p in plan.partitions)
        record = run_cluster("Polak", csr, devices=8, partitioner="edge1d",
                             max_blocks_simulated=BLOCKS)
        assert record.ok and record.triangles == 1
        assert sum(1 for p in record.partitions if p.status == "empty") >= 5

    @pytest.mark.parametrize("partitioner", ("edge1d", "hash2d"))
    def test_exchange_accounting(self, powerlaw, partitioner):
        plan = build_plan(powerlaw, 4, partitioner=partitioner, seed=0)
        for p in plan.partitions:
            assert p.exchange_bytes == ENTRY_BYTES * p.remote_entries
            assert 0 <= p.peers < 4
            # locally owned entries never count towards exchange
            assert p.local_entries + p.remote_entries >= p.owned_edges
        assert plan.total_exchange_bytes == sum(p.exchange_bytes for p in plan.partitions)

    def test_empty_graph(self):
        csr = oriented_csr(clean_edges(np.empty((0, 2), dtype=np.int64)))
        for partitioner in ("edge1d", "hash2d"):
            plan = build_plan(csr, 4, partitioner=partitioner)
            assert all(p.empty for p in plan.partitions)
        record = run_cluster("TRUST", csr, devices=4, max_blocks_simulated=BLOCKS)
        assert record.ok and record.triangles == 0 and record.cluster_time_s == 0.0

    def test_unknown_partitioner_rejected(self, powerlaw):
        with pytest.raises(ValueError, match="partitioner"):
            build_plan(powerlaw, 2, partitioner="metis")


# -- conservation: the tier-1 gate -------------------------------------------


class TestConservation:
    def test_counts_conserved_for_every_algorithm_fixture_and_partitioner(self):
        """Σ per-partition counts == single-device golden, for all 9
        algorithms × 6 fixtures × both partitioners × 2/4/8 devices."""
        result = check_cluster_conservation(parts=(2, 4, 8))
        assert result.passed, result.detail

    def test_conservation_holds_under_nonzero_hash_seed(self):
        result = check_cluster_conservation(parts=(3,), seed=41)
        assert result.passed, result.detail

    def test_injected_bug_drill_fires(self):
        """Dropping one seeded edge from a partition must break the check —
        proof the invariant can actually detect lost data."""
        result = check_cluster_conservation(parts=(2,), tamper_seed=123)
        assert not result.passed
        assert "partitions sum to" in result.detail


# -- executor ----------------------------------------------------------------


class TestRunCluster:
    def test_one_device_equals_plain_simulation(self, powerlaw):
        """The identity plan anchors S(1)=1: same count, same sim time."""
        alg = get_algorithm("Polak")
        single = alg.profile(powerlaw, device=SIM_V100, max_blocks_simulated=BLOCKS)
        record = run_cluster("Polak", powerlaw, devices=1, max_blocks_simulated=BLOCKS)
        assert record.ok
        assert record.triangles == single.triangles
        assert record.cluster_time_s == single.sim_time_s
        assert record.total_exchange_bytes == 0

    @pytest.mark.parametrize("partitioner", ("edge1d", "hash2d"))
    def test_multi_device_count_matches_reference(self, powerlaw, partitioner):
        expect = count_triangles_oriented(powerlaw)
        record = run_cluster("TRUST", powerlaw, devices=4, partitioner=partitioner,
                             max_blocks_simulated=BLOCKS)
        assert record.ok and record.triangles == expect

    def test_parallel_fanout_equals_serial(self, powerlaw):
        """Same record at jobs=1 and jobs=2, and the workers' launch counts
        reach the parent registry exactly once."""

        def run(jobs):
            registry = MetricsRegistry()
            old = set_metrics(registry)
            try:
                record = run_cluster("Polak", powerlaw, devices=4,
                                     max_blocks_simulated=BLOCKS, jobs=jobs)
            finally:
                set_metrics(old)
            return record, registry.get("sim_launches")

        serial, serial_launches = run(1)
        fanned, fanned_launches = run(2)
        assert fanned == serial
        assert serial_launches > 0
        assert fanned_launches == serial_launches

    def test_failed_partition_marks_whole_record(self, powerlaw, monkeypatch):
        def boom(name):
            raise RuntimeError("device fell off the bus")

        monkeypatch.setattr("repro.framework.cluster.get_algorithm", boom)
        record = run_cluster(get_algorithm("Polak"), powerlaw, devices=2,
                             max_blocks_simulated=BLOCKS)
        assert record.status == "failed"
        assert record.triangles is None
        assert "RuntimeError" in (record.error or "")
        assert all(p.status == "failed" for p in record.partitions if p.status != "empty")

    def test_counters_are_partition_sums(self, powerlaw):
        record = run_cluster("Polak", powerlaw, devices=4, max_blocks_simulated=BLOCKS)
        total = sum(p.counters["global_load_requests"] for p in record.partitions)
        assert record.counters["global_load_requests"] == pytest.approx(total)
        assert 0.0 < record.counters["warp_execution_efficiency"] <= 1.0

    def test_makespan_is_slowest_device(self, powerlaw):
        record = run_cluster("Polak", powerlaw, devices=4, max_blocks_simulated=BLOCKS)
        assert record.cluster_time_s == max(p.device_time_s for p in record.partitions)
        for p in record.partitions:
            assert p.device_time_s == pytest.approx(p.exchange_time_s + p.sim_time_s)

    def test_scaleout_curve_shape(self, powerlaw):
        points = scaleout_curve("Polak", powerlaw, device_counts=(1, 2, 4),
                                max_blocks_simulated=BLOCKS)
        assert [pt.devices for pt in points] == [1, 2, 4]
        assert points[0].speedup == pytest.approx(1.0)
        for pt in points:
            assert pt.efficiency == pytest.approx(pt.speedup / pt.devices)

    def test_curve_baseline_computed_even_without_one(self, powerlaw):
        points = scaleout_curve("Polak", powerlaw, device_counts=(2, 4),
                                max_blocks_simulated=BLOCKS)
        assert [pt.devices for pt in points] == [2, 4]
        assert all(pt.speedup > 0 for pt in points)

    def test_default_device_counts(self):
        assert DEVICE_COUNTS == (1, 2, 4, 8, 16)


# -- records, reports, journal round-trips -----------------------------------


class TestRecords:
    def test_run_record_journal_round_trip(self, powerlaw):
        """extra["cluster"] is JSON-native: a journal round-trip preserves
        record equality (the property --resume leans on)."""
        rec = cluster_to_run_record(
            run_cluster("TRUST", powerlaw, devices=2, max_blocks_simulated=BLOCKS)
        )
        assert rec.device.endswith(" x2")
        assert rec.extra["cluster"]["devices"] == 2
        assert record_from_dict(record_to_dict(rec)) == rec

    def test_render_cluster(self, powerlaw):
        record = run_cluster("Polak", powerlaw, devices=2, max_blocks_simulated=BLOCKS)
        out = render_cluster(record)
        assert "triangles" in out
        assert str(record.triangles) in out

    def test_render_scaleout(self, powerlaw):
        points = scaleout_curve("Polak", powerlaw, device_counts=(1, 2),
                                max_blocks_simulated=BLOCKS)
        out = render_scaleout(points, title="demo")
        assert "speedup" in out and "efficiency" in out


# -- scheduler and matrix integration ----------------------------------------


class TestSchedulerIntegration:
    def test_cluster_override_routes_to_cluster_executor(self, tmp_cache):
        sched = JobScheduler(workers=1, max_blocks_simulated=BLOCKS)
        try:
            job = CellJob("Polak", "As-Caida",
                          overrides={"cluster": {"devices": 2, "partitioner": "edge1d",
                                                 "seed": 3}})
            handle = sched.submit(job)
            assert sched.drain(timeout=120.0)
            record = handle.record
            assert record is not None and record.status == "ok"
            assert record.device.endswith(" x2")
            assert record.extra["cluster"]["partitioner"] == "edge1d"
            assert record.extra["cluster"]["seed"] == 3
        finally:
            sched.shutdown()


class TestMatrixResume:
    ALGS = ("Polak", "TRUST")

    def test_resume_equals_uninterrupted(self, tmp_cache):
        kwargs = dict(devices=2, partitioner="hash2d", seed=5,
                      max_blocks_simulated=BLOCKS)
        baseline = run_cluster_matrix(self.ALGS, ("As-Caida",), **kwargs)
        first = run_cluster_matrix(self.ALGS, ("As-Caida",), run_id="cl-resume", **kwargs)
        assert first.records == baseline.records

        journal = RunJournal("cl-resume")
        lines_before = journal.path.read_text().count("\n")
        resumed = run_cluster_matrix(self.ALGS, ("As-Caida",), run_id="cl-resume",
                                     resume=True, **kwargs)
        assert resumed.records == baseline.records
        # every cell was already journaled: nothing re-runs, nothing re-appends
        assert journal.path.read_text().count("\n") == lines_before

    @pytest.mark.parametrize("stored", [None, "", "event"])
    def test_resume_of_journal_that_pinned_an_engine(self, tmp_cache, stored):
        """Cluster journals from before the engine stopped being a run
        option pin ``"engine": ""`` in meta.json; they still resume."""
        kwargs = dict(devices=2, partitioner="hash2d", seed=5,
                      max_blocks_simulated=BLOCKS)
        baseline = run_cluster_matrix(self.ALGS, ("As-Caida",), **kwargs)
        rid = f"cl-engine-{stored}"
        run_cluster_matrix(self.ALGS, ("As-Caida",), run_id=rid, **kwargs)
        journal = RunJournal(rid)
        meta = json.loads(journal.meta_path.read_text())
        journal.meta_path.write_text(json.dumps({**meta, "engine": stored}))
        first = journal.path.read_text().splitlines()[0]
        journal.path.write_text(first + "\n")  # interrupted after one cell
        resumed = run_cluster_matrix(self.ALGS, ("As-Caida",), run_id=rid,
                                     resume=True, **kwargs)
        assert resumed.records == baseline.records
        assert len(journal.load()) == len(self.ALGS)

    def test_meta_pins_partitioning_config(self, tmp_cache):
        kwargs = dict(devices=2, partitioner="hash2d", seed=5,
                      max_blocks_simulated=BLOCKS)
        run_cluster_matrix(self.ALGS, ("As-Caida",), run_id="cl-meta", **kwargs)
        with pytest.raises(ValueError, match="mismatch"):
            run_cluster_matrix(self.ALGS, ("As-Caida",), run_id="cl-meta",
                               resume=True, devices=4, partitioner="hash2d",
                               seed=5, max_blocks_simulated=BLOCKS)

    def test_matrix_requires_datasets(self):
        with pytest.raises(ValueError, match="dataset"):
            run_cluster_matrix(("Polak",), ())


# -- observability -----------------------------------------------------------


class TestObservability:
    def test_cluster_span_and_partition_events(self, powerlaw, tracer_buf):
        record = run_cluster("Polak", powerlaw, devices=4, max_blocks_simulated=BLOCKS)
        events = tracer_buf.events
        spans = [e for e in events if e.get("event") == "span_begin"
                 and e.get("name") == "cluster"]
        assert len(spans) == 1
        parts = [e for e in events if e.get("msg") == "cluster_partition"]
        assert len(parts) == 4
        assert sum(e["triangles"] for e in parts) == record.triangles
        total_gld = sum(e["global_load_requests"] for e in parts)
        assert record.counters["global_load_requests"] == pytest.approx(total_gld)


# -- CLI ---------------------------------------------------------------------


class TestCli:
    def test_single_count_breakdown(self, tmp_cache, capsys):
        code = cli_main(["--blocks", str(BLOCKS), "cluster", "Polak", "As-Caida",
                         "--devices", "2", "--partitioner", "edge1d"])
        out = capsys.readouterr().out
        assert code == 0
        assert "triangles" in out and "exchange" in out

    def test_efficiency_curve(self, tmp_cache, capsys):
        code = cli_main(["--blocks", str(BLOCKS), "cluster", "Polak", "As-Caida",
                         "--counts", "1,2,4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out and "efficiency" in out
        assert out.count("\n") >= 4  # header + three curve rows
