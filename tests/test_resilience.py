"""Resilience layer: chaos harness, journal, degrading retries, quarantine.

Covers the acceptance paths of the resilient matrix executor:

* a run killed mid-flight resumes via ``run_matrix(resume=...)`` and yields
  a record set equal to an uninterrupted run;
* a cell exceeding its wall-clock budget retries at a reduced block budget
  and lands as ``status="degraded"`` — never as a silent ``ok``;
* an injected flipped triangle count is quarantined as ``status="invalid"``
  by the cpu_reference cross-check and never reaches ``winners()``;
* a corrupted cache bundle reads as a miss and is regenerated.
"""

import json
import os

import numpy as np
import pytest

from repro.framework import (
    ChaosSpec,
    RetryPolicy,
    RunJournal,
    RunRecord,
    parse_chaos,
    run_matrix,
    validate_record,
)
from repro.framework.resilience import (
    CHAOS_ENV,
    CHAOS_SEED_ENV,
    HANG_SECONDS_ENV,
    KILL_MIDJOB_DELAY_ENV,
    SLOW_SCALE_ENV,
    ChaosInjected,
    chaos_from_env,
    chaos_kill_budget_path,
    chaos_pre_run,
    corrupt_cached_bundle,
    execute_cell,
    new_run_id,
    record_from_dict,
    record_to_dict,
    set_chaos_kill_budget,
)
from repro.framework.scheduler import CellJob, JobScheduler
from repro.graph import io as gio
from repro.graph.datasets import load_edges, load_oriented, load_undirected
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.tracer import BufferSink, Tracer, set_tracer
from repro.serve import JobJournal

ALGS = ("Polak", "TRUST")
DS = "As-Caida"

ALL_CHAOS_VARS = (CHAOS_ENV, CHAOS_SEED_ENV, HANG_SECONDS_ENV, SLOW_SCALE_ENV, KILL_MIDJOB_DELAY_ENV)

#: CI's chaos job matrixes REPRO_CHAOS_SEED over several values; capture it
#: before the autouse fixture scrubs the environment so the probabilistic
#: tests run under whichever seed the job selected (default: 3).
AMBIENT_SEED = int(os.environ.get(CHAOS_SEED_ENV) or 3)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Chaos must be opt-in per test; ambient env would poison everything."""
    for var in ALL_CHAOS_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    """Journals (and any cache writes) land in an isolated directory.

    The in-process replica lru_caches stay warm, so graph loads never touch
    this directory — only journals and freshly written bundles do.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    return tmp_path


def _ok_record(algorithm="Polak", dataset=DS, **over):
    base = dict(
        algorithm=algorithm,
        dataset=dataset,
        device="sim",
        status="ok",
        triangles=42,
        sim_time_s=1e-3,
        warp_execution_efficiency=0.5,
        size_class="small",
        extra={"l1_hit_rate": 0.25},
    )
    base.update(over)
    return RunRecord(**base)


class TestChaosParse:
    def test_targeted(self):
        (spec,) = parse_chaos("exit:TRUST/As-Caida")
        assert spec == ChaosSpec("exit", "TRUST", "As-Caida", 1.0, 0)

    def test_probability_and_seed(self):
        (spec,) = parse_chaos("hang:p=0.25", seed=9)
        assert spec.mode == "hang"
        assert spec.probability == 0.25
        assert spec.seed == 9
        assert spec.algorithm == "" and spec.dataset == ""

    def test_multi_spec(self):
        specs = parse_chaos("exit:TRUST/As-Caida; flip:*/Com-Dblp:p=0.5")
        assert [s.mode for s in specs] == ["exit", "flip"]
        assert specs[1].algorithm == ""  # '*' wildcard
        assert specs[1].dataset == "Com-Dblp"

    def test_legacy_bare_cell_means_raise(self):
        (spec,) = parse_chaos("TRUST/As-Caida")
        assert spec.mode == "raise"
        assert (spec.algorithm, spec.dataset) == ("TRUST", "As-Caida")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosSpec("explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            ChaosSpec("exit", probability=1.5)

    def test_bad_field_rejected(self):
        with pytest.raises(ValueError, match="bad chaos field"):
            parse_chaos("exit:nonsense")

    def test_from_env_combines_specs(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:p=0.1;TRUST/As-Caida")
        monkeypatch.setenv(CHAOS_SEED_ENV, "7")
        specs = chaos_from_env()
        assert {s.mode for s in specs} == {"hang", "raise"}
        assert all(s.seed == 7 for s in specs)


class TestChaosTriggers:
    def test_targeting(self):
        spec = ChaosSpec("exit", "TRUST", "As-Caida")
        assert spec.triggers("TRUST", "As-Caida")
        assert not spec.triggers("Polak", "As-Caida")
        assert not spec.triggers("TRUST", "Com-Dblp")

    def test_probability_bounds(self):
        cells = [("A", f"ds{i}") for i in range(64)]
        always = ChaosSpec("flip", probability=1.0)
        never = ChaosSpec("flip", probability=0.0)
        assert all(always.triggers(*c) for c in cells)
        assert not any(never.triggers(*c) for c in cells)

    def test_seeded_and_deterministic(self):
        cells = [("A", f"ds{i}") for i in range(128)]
        a = [ChaosSpec("flip", probability=0.5, seed=1).triggers(*c) for c in cells]
        b = [ChaosSpec("flip", probability=0.5, seed=1).triggers(*c) for c in cells]
        other = [ChaosSpec("flip", probability=0.5, seed=2).triggers(*c) for c in cells]
        assert a == b  # same seed: same faults
        assert a != other  # different seed: different faults
        assert 0 < sum(a) < len(cells)  # p=0.5 hits some cells, not all

    def test_raise_mode(self):
        with pytest.raises(ChaosInjected, match="injected crash"):
            chaos_pre_run("Polak", DS, specs=parse_chaos("raise:Polak/As-Caida"))

    def test_execute_cell_captures_injected_crash(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "raise:Polak/As-Caida")
        rec = execute_cell("Polak", DS, max_blocks_simulated=4)
        assert rec.status == "failed"
        assert "injected crash" in rec.error


class TestJournal:
    def test_roundtrip(self, tmp_path):
        journal = RunJournal("r1", root=tmp_path)
        records = [_ok_record("Polak"), _ok_record("TRUST", status="failed", triangles=None)]
        for r in records:
            journal.append(r)
        loaded = journal.load()
        assert loaded[("Polak", DS)] == records[0]
        assert loaded[("TRUST", DS)] == records[1]

    def test_numpy_payloads_survive(self, tmp_path):
        journal = RunJournal("r1", root=tmp_path)
        journal.append(
            _ok_record(triangles=np.int64(42), sim_time_s=np.float64(1e-3))
        )
        back = journal.load()[("Polak", DS)]
        assert back.triangles == 42
        assert back.sim_time_s == 1e-3

    def test_later_lines_win(self, tmp_path):
        journal = RunJournal("r1", root=tmp_path)
        journal.append(_ok_record(status="failed", triangles=None))
        journal.append(_ok_record())
        assert journal.load()[("Polak", DS)].status == "ok"

    @pytest.mark.parametrize("journal_type", [RunJournal, JobJournal])
    def test_torn_tail_skipped(self, tmp_path, journal_type):
        """A torn final line is skipped, and the next append still lands."""
        journal = journal_type("r1", root=tmp_path)
        if journal_type is RunJournal:
            def append(alg):
                journal.append(_ok_record(alg))

            def keys():
                return {alg for alg, _ in journal.load()}
        else:
            def append(alg):
                journal.accepted(alg, {"algorithm": alg, "dataset": DS})

            def keys():
                return set(journal.load()[0])
        append("Polak")
        append("TRUST")
        with journal.path.open("a") as fh:
            fh.write('{"algorithm": "GroupTC", "data')  # torn final line
        assert keys() == {"Polak", "TRUST"}
        append("Hu")
        assert keys() == {"Polak", "TRUST", "Hu"}
        assert journal_type("r1", root=tmp_path).load() == journal.load()

    def test_completed_excludes_failed(self, tmp_path):
        journal = RunJournal("r1", root=tmp_path)
        for status in ("ok", "degraded", "invalid", "failed"):
            journal.append(_ok_record(algorithm=status.upper(), status=status))
        done = journal.completed()
        assert set(a for a, _ in done) == {"OK", "DEGRADED", "INVALID"}

    def test_meta_pinned_and_checked(self, tmp_path):
        journal = RunJournal("r1", root=tmp_path)
        journal.check_or_write_meta({"blocks": 4, "algs": ["Polak"]})
        journal.check_or_write_meta({"blocks": 4, "algs": ["Polak"]})  # match: fine
        with pytest.raises(ValueError, match="mismatch"):
            journal.check_or_write_meta({"blocks": 8, "algs": ["Polak"]})

    def test_bad_run_ids_rejected(self, tmp_path):
        for bad in ("", "a/b", ".", ".."):
            with pytest.raises(ValueError):
                RunJournal(bad, root=tmp_path)

    def test_new_run_id_is_filesystem_safe(self):
        rid = new_run_id()
        assert rid and "/" not in rid
        assert rid != new_run_id()

    def test_record_dict_ignores_unknown_keys(self):
        data = record_to_dict(_ok_record())
        data["added_by_future_version"] = 123
        assert record_from_dict(data) == _ok_record()


class TestValidation:
    def test_correct_count_passes(self):
        rec = execute_cell("Polak", DS, max_blocks_simulated=4, validate=True)
        assert rec.status == "ok"

    def test_flipped_count_quarantined(self):
        good = execute_cell("Polak", DS, max_blocks_simulated=4)
        bad = validate_record(
            RunRecord(**{**record_to_dict(good), "triangles": good.triangles ^ 1})
        )
        assert bad.status == "invalid"
        assert not bad.usable
        assert "mismatch" in bad.error
        assert bad.extra["reported_triangles"] == good.triangles ^ 1
        assert bad.extra["expected_triangles"] == good.triangles

    def test_non_ok_records_pass_through(self):
        failed = _ok_record(status="failed", triangles=None)
        assert validate_record(failed) is failed

    def test_large_cells_exempt(self):
        rec = _ok_record(triangles=1)  # wrong, but exempted by max_edges=0
        assert validate_record(rec, max_edges=0) is rec


def run_supervised(policy=None, *, blocks):
    """Polak on ``DS`` as one job of a one-worker scheduler."""
    sched = JobScheduler(
        workers=1, policy=policy, max_blocks_simulated=blocks, validate=False,
    )
    try:
        return sched.submit(CellJob("Polak", DS)).result(timeout=120.0)
    finally:
        sched.shutdown(wait=False)


class TestDegradingRetries:
    def test_timeout_degrades_then_succeeds(self, monkeypatch):
        """The acceptance path: over-budget cell is killed, retried at a
        reduced block budget, and lands as degraded — never a silent ok."""
        monkeypatch.setenv(CHAOS_ENV, f"slow:Polak/{DS}")
        monkeypatch.setenv(SLOW_SCALE_ENV, "0.2")  # sleep 0.2 s per block
        policy = RetryPolicy(
            cell_timeout_s=2.0, max_attempts=3, backoff_base_s=0.01, degrade_factor=0.25
        )
        rec = run_supervised(policy, blocks=16)
        assert rec.status == "degraded"
        assert rec.usable and not rec.ok
        deg = rec.extra["degradation"]
        assert deg["initial_blocks"] == 16
        assert deg["final_blocks"] < 16
        assert deg["timeouts"] >= 1
        assert rec.triangles is not None

    def test_timeout_exhaustion_fails(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"hang:Polak/{DS}")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        policy = RetryPolicy(cell_timeout_s=0.4, max_attempts=2, backoff_base_s=0.01)
        rec = run_supervised(policy, blocks=4)
        assert rec.status == "failed"
        assert "timed out on all 2 attempts" in rec.error
        assert rec.extra["timeouts"] == 2

    def test_no_timeout_is_plain_ok(self):
        rec = run_supervised(RetryPolicy(cell_timeout_s=60.0), blocks=4)
        assert rec.status == "ok"
        assert "degradation" not in rec.extra

    def test_worker_death_is_failed_record(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"exit:Polak/{DS}")
        rec = run_supervised(RetryPolicy(max_worker_deaths=1), blocks=4)
        assert rec.status == "failed"
        assert "exit code" in rec.error
        assert rec.extra["circuit_open"] is True

    def test_policy_degradation_schedule(self):
        policy = RetryPolicy(cell_timeout_s=1.0, degrade_factor=0.5, min_blocks=2)
        assert policy.next_blocks(16) == 8
        assert policy.next_blocks(3) == 2  # floor at min_blocks
        assert policy.next_blocks(None) == 16  # unlimited degrades to default
        # jitter=0 restores the exact legacy exponential schedule
        exact = RetryPolicy(cell_timeout_s=1.0, jitter=0.0)
        assert exact.backoff_s(1) == pytest.approx(exact.backoff_base_s * 2)

    def test_backoff_jitter_bounded_seeded_and_decorrelated(self):
        """Regression pin for the retry-stampede fix: backoffs are jittered.

        The jittered sleep must stay within ``±jitter`` of the exponential
        base value, be *identical* across calls for the same (seed, cell,
        attempt) — a resumed chaos run sleeps the same schedule — and
        *differ* across cells so simultaneous timeouts don't retry in
        lockstep.
        """
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25)
        for attempt in range(4):
            base = 0.1 * 2.0**attempt
            got = policy.backoff_s(attempt, key="Polak/As-Caida")
            assert base * 0.75 <= got <= base * 1.25
            # deterministic: same cell, same attempt, same sleep
            assert got == policy.backoff_s(attempt, key="Polak/As-Caida")
        # decorrelated: different cells draw different jitter
        sleeps = {policy.backoff_s(2, key=f"Alg{i}/DS{i}") for i in range(8)}
        assert len(sleeps) > 1
        # a different seed re-rolls the whole schedule
        reseeded = RetryPolicy(backoff_base_s=0.1, jitter=0.25, jitter_seed=7)
        assert reseeded.backoff_s(2, key="Polak/As-Caida") != policy.backoff_s(
            2, key="Polak/As-Caida"
        )

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(degrade_factor=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestResume:
    DATASETS = (DS, "P2p-Gnutella31")

    def test_killed_run_resumes_to_identical_records(self, tmp_cache, monkeypatch):
        """The headline acceptance test: a matrix run with a chaos-killed
        worker, resumed after the fault clears, must produce exactly the
        record set of an uninterrupted run."""
        baseline = run_matrix(ALGS, self.DATASETS, max_blocks_simulated=4)

        monkeypatch.setenv(CHAOS_ENV, f"exit:TRUST/{DS}")
        rid = "resume-test"
        crashed = run_matrix(ALGS, self.DATASETS, max_blocks_simulated=4, run_id=rid)
        assert crashed.cell("TRUST", DS).status == "failed"
        ok_cells = [r for r in crashed.records if r.status == "ok"]
        assert len(ok_cells) == 3

        journal = RunJournal(rid)
        assert len(journal.load()) == 4  # every cell journaled, even the failure
        assert len(journal.completed()) == 3  # the failed one will be replayed

        monkeypatch.delenv(CHAOS_ENV)
        resumed = run_matrix(ALGS, self.DATASETS, max_blocks_simulated=4, resume=rid)
        assert resumed.records == baseline.records
        assert resumed.failures() == []

    def test_second_resume_skips_every_cell(self, tmp_cache):
        rid = "skip-test"
        run_matrix(ALGS, (DS,), max_blocks_simulated=4, run_id=rid)
        journal = RunJournal(rid)
        lines_before = journal.path.read_text().count("\n")

        seen = []
        resumed = run_matrix(
            ALGS, (DS,), max_blocks_simulated=4, resume=rid,
            progress_callback=lambda rec, done, total: seen.append(done),
        )
        assert len(resumed.records) == 2
        assert seen == [1, 2]  # progress still fires for skipped cells
        assert journal.path.read_text().count("\n") == lines_before  # nothing re-journaled

    def test_resume_config_mismatch_rejected(self, tmp_cache):
        rid = "meta-test"
        run_matrix(ALGS, (DS,), max_blocks_simulated=4, run_id=rid)
        with pytest.raises(ValueError, match="mismatch"):
            run_matrix(ALGS, (DS,), max_blocks_simulated=8, resume=rid)

    @pytest.mark.parametrize("stored", [None, "", "event"])
    def test_resume_of_journal_that_pinned_an_engine(self, tmp_cache, stored):
        """Journals from before the engine stopped being a run option pin
        ``engine`` in meta.json; resuming one must still equal an
        uninterrupted run."""
        baseline = run_matrix(ALGS, (DS,), max_blocks_simulated=4)
        rid = f"engine-meta-{stored}"
        run_matrix(ALGS, (DS,), max_blocks_simulated=4, run_id=rid)
        journal = RunJournal(rid)
        meta = json.loads(journal.meta_path.read_text())
        journal.meta_path.write_text(json.dumps({**meta, "engine": stored}))
        # interrupted after the first cell
        first = journal.path.read_text().splitlines()[0]
        journal.path.write_text(first + "\n")
        resumed = run_matrix(ALGS, (DS,), max_blocks_simulated=4, resume=rid)
        assert resumed.records == baseline.records
        assert len(journal.load()) == len(ALGS)

    def test_conflicting_ids_rejected(self, tmp_cache):
        with pytest.raises(ValueError, match="run_id or resume"):
            run_matrix(ALGS, (DS,), max_blocks_simulated=4, run_id="a", resume="b")

    def test_parallel_resilient_equals_serial(self, tmp_cache):
        serial = run_matrix(ALGS, self.DATASETS, max_blocks_simulated=4, run_id="s1")
        parallel = run_matrix(
            ALGS, self.DATASETS, max_blocks_simulated=4, run_id="p1", jobs=2
        )
        assert parallel.records == serial.records

    #: a worker killed mid-cell (restarted within budget) and a crashing cell
    FAULTS = f"worker_kill_midjob:TRUST/{DS};raise:Polak/P2p-Gnutella31"

    def _faulted(self, monkeypatch, **kw):
        monkeypatch.setenv(CHAOS_ENV, self.FAULTS)
        monkeypatch.setenv(KILL_MIDJOB_DELAY_ENV, "0.01")
        set_chaos_kill_budget(1)
        try:
            return run_matrix(ALGS, self.DATASETS, max_blocks_simulated=4, **kw)
        finally:
            monkeypatch.delenv(CHAOS_ENV)

    def test_parallel_equals_serial_under_faults(self, tmp_cache, monkeypatch):
        serial = self._faulted(monkeypatch, run_id="fs1")
        assert serial.cell("Polak", "P2p-Gnutella31").status == "failed"
        assert [r.status for r in serial.records].count("ok") == 3
        assert self._faulted(monkeypatch, run_id="fp1", jobs=2).records == serial.records

    def test_resume_under_faults_equals_uninterrupted(self, tmp_cache, monkeypatch):
        uninterrupted = self._faulted(monkeypatch, run_id="fu")
        rid = "fr"
        self._faulted(monkeypatch, run_id=rid)
        journal = RunJournal(rid)
        first = journal.path.read_text().splitlines()[0]
        journal.path.write_text(first + "\n")  # interrupted after one cell
        resumed = self._faulted(monkeypatch, resume=rid)
        assert resumed.records == uninterrupted.records


class TestQuarantineMatrix:
    def test_flipped_count_never_reaches_winners(self, tmp_cache, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"flip:TRUST/{DS}")
        m = run_matrix(ALGS, (DS,), max_blocks_simulated=4, validate=True)
        bad = m.cell("TRUST", DS)
        assert bad.status == "invalid"
        assert "mismatch" in bad.error
        assert [r.algorithm for r in m.quarantined()] == ["TRUST"]
        assert m.failures() == []
        winners = m.winners("sim_time_s")
        assert winners == {DS: "Polak"}  # quarantined cell excluded
        assert None in m.series("sim_time_s")["TRUST"]

    def test_probabilistic_chaos_keeps_full_shape(self, tmp_cache, monkeypatch):
        """Whatever a seed decides, the matrix always completes its shape."""
        monkeypatch.setenv(CHAOS_ENV, "flip:p=0.5")
        monkeypatch.setenv(CHAOS_SEED_ENV, str(AMBIENT_SEED))
        m = run_matrix(ALGS, (DS, "P2p-Gnutella31"), max_blocks_simulated=4, validate=True)
        assert len(m.records) == 4
        assert all(r.status in ("ok", "invalid") for r in m.records)


class TestCorruptCacheRecovery:
    @pytest.fixture(autouse=True)
    def _fresh_caches(self, tmp_cache):
        """Point the disk cache at an empty directory and drop the warm
        in-process caches so loads genuinely exercise the disk path."""
        load_edges.cache_clear()
        load_oriented.cache_clear()
        load_undirected.cache_clear()
        yield
        # The tmp dir vanishes after the test; later tests must regenerate
        # (or re-read the repo cache) rather than hold entries bound to it.
        load_edges.cache_clear()
        load_oriented.cache_clear()
        load_undirected.cache_clear()

    def test_corrupt_bundle_regenerated(self, tmp_cache):
        before = load_oriented(DS)
        corrupt_cached_bundle(DS)
        load_edges.cache_clear()
        load_oriented.cache_clear()
        after = load_oriented(DS)
        assert np.array_equal(before.row_ptr, after.row_ptr)
        assert np.array_equal(before.col, after.col)

    def test_structurally_invalid_bundle_regenerated(self, tmp_cache):
        good = load_oriented(DS)
        spec_key = gio.cache_key("csr", DS, ordering="degree", seed=11)
        row_ptr = np.array(good.row_ptr)
        row_ptr[1] = -5  # break indptr monotonicity; checksum stays valid
        gio.store_cached_arrays(spec_key, row_ptr=row_ptr, col=np.array(good.col))
        load_oriented.cache_clear()
        again = load_oriented(DS)
        assert np.array_equal(good.row_ptr, again.row_ptr)

    def test_unoriented_bundle_rejected_for_oriented_key(self, tmp_cache):
        good = load_oriented(DS)
        und = load_undirected(DS)  # valid CSR, but violates the u < v contract
        spec_key = gio.cache_key("csr", DS, ordering="degree", seed=11)
        gio.store_cached_arrays(
            spec_key, row_ptr=np.array(und.row_ptr), col=np.array(und.col)
        )
        load_oriented.cache_clear()
        again = load_oriented(DS)
        assert again.is_oriented()
        assert np.array_equal(good.col, again.col)

    def test_chaos_corrupt_mode_heals_in_matrix(self, tmp_cache, monkeypatch):
        load_oriented(DS)  # populate the tmp disk cache so there is a bundle
        monkeypatch.setenv(CHAOS_ENV, f"corrupt:Polak/{DS}")
        load_edges.cache_clear()
        load_oriented.cache_clear()
        m = run_matrix(ALGS, (DS,), max_blocks_simulated=4, validate=True)
        assert all(r.status == "ok" for r in m.records)
        assert len({r.triangles for r in m.records}) == 1
        # The matrix warmed the replica before the drill, so its cells ran on
        # the intact graph in memory.  The next process to load the replica
        # reads the damaged bundles: it must drop and rewrite both.
        keys = (
            gio.cache_key("csr", DS, ordering="degree", seed=11),
            gio.cache_key("edges", DS, seed=11),
        )
        dropped = []
        drop = gio.drop_cached_arrays
        monkeypatch.setattr(gio, "drop_cached_arrays", lambda key: (dropped.append(key), drop(key)))
        monkeypatch.delenv(CHAOS_ENV)
        load_edges.cache_clear()
        load_oriented.cache_clear()
        again = run_matrix(ALGS, (DS,), max_blocks_simulated=4, validate=True)
        assert [r.status for r in again.records] == ["ok"] * len(ALGS)
        assert [r.triangles for r in again.records] == [r.triangles for r in m.records]
        assert set(keys) <= set(dropped)
        for key in keys:
            assert gio.load_cached_arrays(key) is not None, key

    def test_corrupt_drill_loads_nothing_into_the_process(self, tmp_cache):
        load_oriented(DS)  # populate the tmp disk cache so there is a bundle
        load_edges.cache_clear()
        load_oriented.cache_clear()
        corrupt_cached_bundle(DS)
        # A cell run after the drill in this process must read the damage.
        assert load_oriented.cache_info().currsize == 0
        assert load_edges.cache_info().currsize == 0


class TestSlotWorker:
    """Each scheduler thread runs its attempts in one long-lived process,
    replaced after a timeout or a death and whenever the ``REPRO_*``
    environment changes."""

    @pytest.fixture
    def scheduler(self):
        load_oriented(DS)  # forked workers inherit the replica
        made = []

        def make(**policy) -> JobScheduler:
            policy = {"jitter": 0.0, "backoff_base_s": 0.01, **policy}
            made.append(JobScheduler(workers=1, policy=RetryPolicy(**policy)))
            return made[-1]

        yield make
        for sched in made:
            sched.shutdown(wait=False)

    @staticmethod
    def job(sched, algorithm="TRUST", dataset=DS, blocks=4):
        """The job's record and the pid of the slot's worker after it."""
        over = {} if blocks is None else {"blocks": blocks}
        record = sched.submit(CellJob(algorithm, dataset, overrides=over)).result(timeout=120.0)
        proc = sched._slots[0].proc
        return record, None if proc is None else proc.pid

    def test_one_worker_serves_consecutive_attempts(self, scheduler):
        sched = scheduler()
        outcomes = [self.job(sched, alg) for alg in ("TRUST", "Polak", "GroupTC", "TRUST")]
        assert [r.status for r, _ in outcomes] == ["ok"] * 4
        pids = {pid for _, pid in outcomes}
        assert len(pids) == 1 and os.getpid() not in pids

    @pytest.mark.parametrize("fault, policy", [
        ("hang", {"cell_timeout_s": 1.0, "max_attempts": 1}),
        ("exit", {"max_worker_deaths": 1}),
        ("worker_kill_midjob", {"max_worker_deaths": 1}),
    ])
    def test_fault_replaces_the_worker(self, scheduler, tmp_cache, monkeypatch, fault, policy):
        monkeypatch.setenv(CHAOS_ENV, f"{fault}:Polak/{DS}")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        monkeypatch.setenv(KILL_MIDJOB_DELAY_ENV, "0.01")
        sched = scheduler(**policy)
        before, pid = self.job(sched)
        faulted, gone = self.job(sched, "Polak")
        after, new_pid = self.job(sched)
        assert (before.status, faulted.status, after.status) == ("ok", "failed", "ok")
        assert gone is None  # the faulted worker was reaped, not kept
        assert new_pid != pid

    def test_chaos_change_between_jobs_takes_effect(self, scheduler, monkeypatch):
        sched = scheduler()
        assert self.job(sched, "Polak")[0].status == "ok"
        monkeypatch.setenv(CHAOS_ENV, f"raise:Polak/{DS}")
        crashed, _ = self.job(sched, "Polak")
        assert crashed.status == "failed" and "ChaosInjected" in crashed.error
        monkeypatch.delenv(CHAOS_ENV)
        assert self.job(sched, "Polak")[0].status == "ok"

    def test_kill_budget_drill_drains(self, scheduler, tmp_cache, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"worker_kill_midjob:Polak/{DS}")
        monkeypatch.setenv(KILL_MIDJOB_DELAY_ENV, "0.01")
        set_chaos_kill_budget(2)
        old = set_metrics(MetricsRegistry())
        try:
            sched = scheduler(max_worker_deaths=3)
            first, pid = self.job(sched, "Polak")
            second, same = self.job(sched, "Polak")
            deaths = get_metrics().get("sched_worker_deaths")
        finally:
            set_metrics(old)
        assert first.status == second.status == "ok"
        assert deaths == 2
        assert chaos_kill_budget_path().read_text() == "0"
        assert same == pid  # the drained budget kills no more workers

    def test_no_sink_or_metrics_delta_leaks_between_attempts(self, scheduler):
        sink = BufferSink(level="info")
        old_tracer, old_registry = set_tracer(Tracer([sink])), set_metrics(MetricsRegistry())
        try:
            sched = scheduler()
            launches, pids = [], set()
            for _ in range(3):
                record, pid = self.job(sched)
                assert record.status == "ok"
                launches.append(get_metrics().get("sim_launches"))
                pids.add(pid)
        finally:
            set_tracer(old_tracer)
            set_metrics(old_registry)
        assert len(pids) == 1
        assert launches[0] > 0
        assert launches == [launches[0] * k for k in (1, 2, 3)]
        cells = [e for e in sink.events if e["event"] == "span_end" and e["name"] == "cell"]
        assert len(cells) == 3
        assert all(e.get("forwarded") and e["pid"] in pids for e in cells)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc")
    def test_worker_memory_is_flat_across_rounds(self, scheduler):
        """The 27 matrix-small cells leave the worker about as large as its
        first cell did, and a second round grows it by no more than a small
        slack: the trace layer is dropped per attempt, every other memo is
        full after the first round."""
        from repro.algorithms import algorithm_names

        cells = [(a, d) for d in (DS, "P2p-Gnutella31", "Email-EuAll") for a in algorithm_names()]
        sched = scheduler()

        def rss_kb(pid):
            with open(f"/proc/{pid}/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

        rss = []
        for round_cells in (cells[:1], cells[1:], cells):
            for algorithm, dataset in round_cells:
                record, pid = self.job(sched, algorithm, dataset, blocks=None)
                assert record.status == "ok", record.error
            rss.append(rss_kb(pid))
        # kB: the trace layer alone would add about 50 MB over the 27 cells
        assert rss[2] <= rss[1] + 8 * 1024, rss
        assert max(rss) <= rss[0] + 16 * 1024, rss
