"""Parallel comparison-matrix executor (repro.framework.parallel)."""

import subprocess
import sys

from repro.framework import run_matrix
from repro.framework.parallel import default_jobs, parallel_starmap, run_cells
from repro.framework.resilience import CHAOS_ENV
from repro.obs.tracer import BufferSink, Tracer, set_tracer

ALGS = ("Polak", "TRUST", "GroupTC")
SMALL = ("As-Caida", "P2p-Gnutella31", "Email-EuAll", "Soc-Slashdot0922")


class TestEquivalence:
    def test_parallel_equals_serial(self):
        """jobs=N must be an implementation detail: identical records, same order."""
        serial = run_matrix(ALGS, SMALL, max_blocks_simulated=4, jobs=1)
        parallel = run_matrix(ALGS, SMALL, max_blocks_simulated=4, jobs=2)
        assert parallel.records == serial.records
        assert parallel.algorithms == serial.algorithms
        assert parallel.datasets == serial.datasets

    def test_record_order_is_dataset_major(self):
        m = run_matrix(ALGS, SMALL[:2], max_blocks_simulated=4, jobs=2)
        expected = [(alg, ds) for ds in SMALL[:2] for alg in ALGS]
        assert [(r.algorithm, r.dataset) for r in m.records] == expected

    def test_injected_fault_is_identical_at_any_jobs(self, monkeypatch):
        """jobs=1 runs the same cell body as the pool: a chaos fault fails
        the same cell, and every cell opens exactly one ``cell`` span."""
        monkeypatch.setenv(CHAOS_ENV, "raise:Polak/As-Caida")
        monkeypatch.setenv("REPRO_LOG", "info")
        out = {}
        for jobs in (1, 2):
            buf = BufferSink()
            old = set_tracer(Tracer([buf]))
            try:
                m = run_matrix(["Polak", "TRUST"], ["As-Caida"], max_blocks_simulated=4, jobs=jobs)
            finally:
                set_tracer(old)
            spans = [
                (e["algorithm"], e["dataset"]) for e in buf.events
                if e.get("event") == "span_end" and e.get("name") == "cell"
            ]
            assert sorted(spans) == [("Polak", "As-Caida"), ("TRUST", "As-Caida")]
            out[jobs] = m.records
        assert out[1] == out[2]
        assert [r.status for r in out[1]] == ["failed", "ok"]
        assert "injected crash" in out[1][0].error

    def test_jobs_zero_means_auto(self):
        m = run_matrix(ALGS[:2], SMALL[:2], max_blocks_simulated=4, jobs=0)
        assert len(m.records) == 4
        assert all(r.ok for r in m.records)


class TestRunCells:
    def test_empty(self):
        assert run_cells([]) == []

    def test_serial_fallback_single_cell(self):
        records = run_cells([("Polak", "As-Caida")], jobs=8, max_blocks_simulated=4)
        assert len(records) == 1
        assert records[0].ok

    def test_duplicate_cells_keep_positions(self):
        cells = [("Polak", "As-Caida"), ("Polak", "As-Caida")]
        records = run_cells(cells, jobs=2, max_blocks_simulated=4)
        assert len(records) == 2
        assert records[0] == records[1]

    def test_unknown_dataset_is_failed_cell(self):
        records = run_cells(
            [("Polak", "No-Such-Graph"), ("Polak", "As-Caida")],
            jobs=2,
            max_blocks_simulated=4,
        )
        assert records[0].status == "failed"
        assert "No-Such-Graph" in records[0].error or "unknown" in records[0].error
        assert records[1].ok


class TestProgress:
    def test_callback_sees_every_cell(self):
        seen = []
        run_cells(
            [(alg, ds) for ds in SMALL[:2] for alg in ALGS],
            jobs=2,
            max_blocks_simulated=4,
            progress_callback=lambda rec, done, total: seen.append((rec, done, total)),
        )
        assert len(seen) == 6
        assert [done for _, done, _ in seen] == list(range(1, 7))
        assert all(total == 6 for _, _, total in seen)

    def test_run_matrix_threads_callback(self):
        counts = []
        run_matrix(
            ALGS[:2],
            SMALL[:2],
            max_blocks_simulated=4,
            jobs=2,
            progress_callback=lambda rec, done, total: counts.append(done),
        )
        assert counts == [1, 2, 3, 4]


class TestCrashCapture:
    def test_worker_exception_becomes_failed_record(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "TRUST/As-Caida")
        m = run_matrix(ALGS, SMALL[:2], max_blocks_simulated=4, jobs=2)
        bad = m.cell("TRUST", "As-Caida")
        assert bad.status == "failed"
        assert "injected crash" in bad.error
        others = [r for r in m.records if (r.algorithm, r.dataset) != ("TRUST", "As-Caida")]
        assert all(r.ok for r in others)

    def test_hard_worker_death_never_aborts_matrix(self, monkeypatch):
        """A worker process dying outright (the BrokenProcessPool path) fails
        only its own cell: collateral cells stranded on the broken pool are
        retried in isolation, and the matrix completes with full shape."""
        monkeypatch.setenv(CHAOS_ENV, "exit:TRUST/As-Caida")
        m = run_matrix(ALGS, SMALL[:2], max_blocks_simulated=4, jobs=2)
        assert len(m.records) == 6
        bad = m.cell("TRUST", "As-Caida")
        assert bad.status == "failed"
        assert "Broken" in bad.error or "abruptly" in bad.error
        others = [r for r in m.records if (r.algorithm, r.dataset) != ("TRUST", "As-Caida")]
        assert all(r.ok for r in others)

    def test_serial_path_also_captures(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "Polak/As-Caida")
        records = run_cells([("Polak", "As-Caida")], jobs=1, max_blocks_simulated=4)
        assert records[0].status == "failed"


class TestHelpers:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_parallel_starmap_preserves_order(self):
        args = [(i, i + 1) for i in range(10)]
        assert parallel_starmap(_add, args, jobs=3) == [i + i + 1 for i in range(10)]

    def test_parallel_starmap_serial_equals_parallel(self):
        args = [(i, 2) for i in range(5)]
        assert parallel_starmap(_add, args, jobs=1) == parallel_starmap(_add, args, jobs=2)

    def test_pool_workers_inherit_numpy_ma_and_code_digest(self):
        """Workers fork with ``numpy.ma`` imported and the code digest
        computed, so no worker pays for either itself."""
        script = (
            "import sys\n"
            "from repro.framework.parallel import parallel_starmap\n"
            "from repro.graph import io\n"
            "def probe(_):\n"
            "    return 'numpy.ma' in sys.modules, io.code_digest.cache_info().currsize\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "print(parallel_starmap(probe, [(0,), (1,)], jobs=2))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[(True, 1), (True, 1)]"


def _add(a, b):
    return a + b
