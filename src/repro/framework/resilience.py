"""Resilient matrix execution: checkpoint/resume, timeouts, validation, chaos.

The paper's headline artefacts (Figures 11-13 and 15) come from a 9x19
comparison matrix whose long-running cells used to die with the process: a
crash, hang, or corrupt cache bundle forfeited every completed cell, and
nothing cross-checked that a "successful" cell's triangle count was even
correct.  This module is the layer around :func:`~repro.framework.parallel.
run_cells` / :func:`~repro.framework.compare.run_matrix` that makes a full
run survivable and trustworthy end to end:

* **journaled checkpoint/resume** — every completed :class:`RunRecord` is
  appended atomically to a JSONL journal under ``.cache/runs/<run_id>/``;
  ``run_matrix(resume=run_id)`` skips completed cells and replays only
  missing or failed ones, so a run killed mid-flight loses nothing;
* **per-cell wall-clock timeouts with degrading retries** — each attempt
  runs in its own killable subprocess (:func:`_attempt_cell`), and the
  scheduler's one supervision loop retries an attempt that exceeds its
  budget with exponential backoff at a halved ``max_blocks_simulated``,
  bottoming out at a ``status="degraded"`` record that carries the reduced
  fidelity in ``extra`` instead of passing a sampled run off as a full one;
* **validation & quarantine** — small/medium cells are cross-checked
  against :mod:`repro.algorithms.cpu_reference`; a mismatching cell is
  quarantined as ``status="invalid"`` and never reaches ``winners()`` or
  the figure series (CSR structural invariants and cache-bundle checksums
  are enforced one layer down, in :mod:`repro.graph.io` / ``datasets``);
* **chaos harness** — a seeded fault-injection API (worker crash, hard
  exit, hang, slow-down, corrupt cache bundle, flipped triangle count)
  driven by ``REPRO_CHAOS`` / ``REPRO_CHAOS_SEED``, used by the test suite
  and CI to prove each recovery path actually recovers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing as mp
import os
import threading
import time
import uuid
import zlib
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..algorithms.cpu_reference import count_triangles_oriented
from ..gpu.costmodel import CostModel
from ..gpu.device import SIM_V100, TESLA_V100, DeviceSpec
from ..graph import io as gio
from ..graph.datasets import get_spec, load_oriented, size_class, warm_cache
from ..graph.csr import CSRGraph
from ..graph.facts import facts_key
from ..obs.flightrec import maybe_dump
from ..obs.metrics import get_metrics
from ..obs.tracer import absorb_forwarded, get_tracer, run_forwarded
from .runner import DEFAULT_MAX_BLOCKS, RunRecord, run_one_safe

__all__ = [
    "CHAOS_ENV",
    "CHAOS_SEED_ENV",
    "CHAOS_MODES",
    "CellTimeout",
    "ChaosInjected",
    "ChaosSpec",
    "AppendLog",
    "RetryPolicy",
    "RunJournal",
    "chaos_from_env",
    "corrupt_cached_bundle",
    "default_jobs",
    "execute_cell",
    "expected_triangles",
    "new_run_id",
    "parse_chaos",
    "prepare_fork",
    "record_from_dict",
    "record_to_dict",
    "run_cells_resilient",
    "runs_root",
    "seeded_jitter",
    "set_chaos_kill_budget",
    "validate_record",
    "WorkerDied",
    "DEFAULT_VALIDATE_MAX_EDGES",
    "SERVE_CHAOS_MODES",
]

# --------------------------------------------------------------------------
# chaos harness
# --------------------------------------------------------------------------

#: Fault-injection spec list (``;``-separated, see :func:`parse_chaos`).
CHAOS_ENV = "REPRO_CHAOS"
#: Seed for probabilistic specs — CI matrixes this over several values.
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"
#: Hang duration (seconds) for the ``hang`` mode; default one hour.
HANG_SECONDS_ENV = "REPRO_CHAOS_HANG_S"
#: Seconds of sleep *per simulated block* for the ``slow`` mode — shrinking
#: ``max_blocks_simulated`` therefore genuinely speeds the cell up, which is
#: what lets tests exercise the timeout -> degrade -> succeed path.
SLOW_SCALE_ENV = "REPRO_CHAOS_SLOW_SCALE"

CHAOS_MODES = (
    "raise", "exit", "hang", "slow", "flip", "corrupt",
    # server-shaped faults (PR 7): the first two are applied by the serve
    # connection layer (repro.serve.server), not by chaos_pre_run;
    # worker_kill_midjob fires inside the cell worker, partway through.
    "conn_drop", "slow_client", "worker_kill_midjob",
)

#: Chaos modes the *serve* layer applies at the connection boundary;
#: :func:`chaos_pre_run` ignores them so cell workers stay unaffected.
SERVE_CHAOS_MODES = ("conn_drop", "slow_client")

#: Exit code used by the ``exit`` mode — simulates a segfault/OOM-kill.
CHAOS_EXIT_CODE = 17

#: Seconds a ``worker_kill_midjob`` worker runs before dying, so the kill
#: lands mid-cell rather than degenerating into the pre-run ``exit`` mode.
KILL_MIDJOB_DELAY_ENV = "REPRO_CHAOS_KILL_DELAY_S"


class ChaosInjected(RuntimeError):
    """Raised by the ``raise`` chaos mode inside a worker."""


@dataclass(frozen=True)
class ChaosSpec:
    """One fault to inject, optionally targeted and/or probabilistic.

    ``algorithm`` / ``dataset`` empty (or ``"*"`` in the string form) match
    any cell.  ``probability < 1`` makes the decision *seeded and
    deterministic per cell*: the same ``(seed, mode, algorithm, dataset)``
    always decides the same way, so a chaos run is reproducible and a
    resumed chaos run re-injects the same faults.
    """

    mode: str
    algorithm: str = ""
    dataset: str = ""
    probability: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ValueError(f"unknown chaos mode {self.mode!r}; known: {CHAOS_MODES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"chaos probability must be in [0, 1], got {self.probability}")

    def triggers(self, algorithm: str, dataset: str) -> bool:
        """Deterministic per-cell decision for this spec."""
        if self.algorithm and self.algorithm != algorithm:
            return False
        if self.dataset and self.dataset != dataset:
            return False
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        draw = zlib.crc32(
            f"{self.seed}|{self.mode}|{algorithm}|{dataset}".encode()
        ) / 0xFFFFFFFF
        return draw < self.probability


def _parse_one_chaos(part: str, seed: int) -> ChaosSpec:
    mode, algorithm, dataset, probability = "raise", "", "", 1.0
    fields = part.split(":")
    if fields and fields[0] in CHAOS_MODES:
        mode = fields.pop(0)
    for f in fields:
        f = f.strip()
        if not f:
            continue
        if f.startswith("p="):
            probability = float(f[2:])
        elif "/" in f:
            algorithm, _, dataset = f.partition("/")
        else:
            raise ValueError(f"bad chaos field {f!r} in spec {part!r}")
    algorithm = "" if algorithm == "*" else algorithm
    dataset = "" if dataset == "*" else dataset
    return ChaosSpec(mode, algorithm, dataset, probability, seed)


def parse_chaos(spec: str, *, seed: int = 0) -> tuple[ChaosSpec, ...]:
    """Parse a ``;``-separated chaos spec string.

    Each entry is ``mode[:ALG/DS][:p=P]`` — e.g. ``"exit:TRUST/As-Caida"``,
    ``"hang:p=0.1"``, ``"flip:*/As-Caida"``.  A bare ``"ALG/DS"`` means
    ``raise`` on that cell.
    """
    return tuple(
        _parse_one_chaos(part.strip(), seed) for part in spec.split(";") if part.strip()
    )


def chaos_from_env() -> tuple[ChaosSpec, ...]:
    """Active chaos specs from :data:`CHAOS_ENV`."""
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return ()
    return parse_chaos(raw, seed=int(os.environ.get(CHAOS_SEED_ENV) or 0))


def corrupt_cached_bundle(dataset: str, *, ordering: str = "degree") -> None:
    """Flip bytes in the middle of a dataset's store files: its edges, its
    oriented CSR and that CSR's facts (:mod:`repro.graph.facts`).

    The injection half of the corrupt-cache recovery path: the loaders must
    detect the damage (digest mismatch), treat the file as a miss, and
    regenerate — never compute on garbage.  The damaged copy replaces the
    file rather than overwriting it in place, as bit rot found by the next
    reader would: a process that already maps the intact file keeps it.
    """
    try:
        spec = get_spec(dataset)
    except KeyError:
        return
    csr_key = gio.cache_key("csr", spec.name, ordering=ordering, seed=spec.seed)
    keys = [csr_key, gio.cache_key("edges", spec.name, seed=spec.seed)]
    # The facts key needs the graph's digest.  Read it from the intact
    # bundle, not through ``load_oriented``: that would memoise the graph
    # in this process, and an in-process cell would never read the damage.
    intact = gio.load_cached_arrays(csr_key)
    if intact is not None:
        keys.append(facts_key(CSRGraph(row_ptr=intact["row_ptr"], col=intact["col"])))
    for key in keys:
        path = gio.store_path(key)
        if not path.exists():
            continue
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        for i in range(mid, min(mid + 64, len(data))):
            data[i] ^= 0xFF
        damaged = path.with_name(f".{path.stem}.damaged.tmp")
        damaged.write_bytes(bytes(data))
        os.replace(damaged, path)


def chaos_kill_budget_path() -> Path:
    """Countdown file bounding ``worker_kill_midjob`` deaths (shared across
    worker processes through the cache directory)."""
    return gio.cache_dir() / "chaos_kill_budget"


def set_chaos_kill_budget(n: int) -> None:
    """Allow the next ``n`` triggered ``worker_kill_midjob`` faults to kill.

    Without a budget file the mode kills unconditionally (circuit-breaker
    drills); with one, each kill decrements it, so a job under worker-pool
    supervision survives once the budget drains (restart-recovery drills).
    """
    chaos_kill_budget_path().write_text(str(int(n)))


def _consume_kill_token() -> bool:
    """True when this triggered kill may proceed (and one token is spent)."""
    path = chaos_kill_budget_path()
    try:
        remaining = int(path.read_text().strip() or 0)
    except (OSError, ValueError):
        return True  # no budget file: unlimited kills
    if remaining <= 0:
        return False
    try:
        path.write_text(str(remaining - 1))
    except OSError:  # pragma: no cover - cache dir vanished mid-run
        pass
    return True


def chaos_pre_run(
    algorithm: str,
    dataset: str,
    *,
    ordering: str = "degree",
    blocks: int | None = None,
    specs: Sequence[ChaosSpec] | None = None,
) -> None:
    """Apply pre-run faults (crash / exit / hang / slow / corrupt-cache)."""
    if specs is None:
        specs = chaos_from_env()
    for spec in specs:
        if not spec.triggers(algorithm, dataset):
            continue
        if spec.mode in SERVE_CHAOS_MODES:
            continue  # connection-level faults; the serve layer applies them
        if spec.mode == "exit":
            os._exit(CHAOS_EXIT_CODE)  # simulate a hard worker death
        elif spec.mode == "worker_kill_midjob":
            # Let the cell get genuinely under way, then die like a segfault
            # would: no cleanup, no record shipped back.  The parent sees a
            # dead worker and the supervision path has to recover.
            if _consume_kill_token():
                time.sleep(float(os.environ.get(KILL_MIDJOB_DELAY_ENV) or 0.05))
                os._exit(CHAOS_EXIT_CODE)
        elif spec.mode == "hang":
            time.sleep(float(os.environ.get(HANG_SECONDS_ENV) or 3600.0))
        elif spec.mode == "slow":
            scale = float(os.environ.get(SLOW_SCALE_ENV) or 0.1)
            time.sleep(scale * (blocks if blocks else DEFAULT_MAX_BLOCKS))
        elif spec.mode == "corrupt":
            corrupt_cached_bundle(dataset, ordering=ordering)
        elif spec.mode == "raise":
            raise ChaosInjected(f"injected crash for cell ({algorithm}, {dataset})")


def chaos_post_run(
    record: RunRecord, *, specs: Sequence[ChaosSpec] | None = None
) -> RunRecord:
    """Apply post-run faults (``flip``: corrupt the reported triangle count)."""
    if specs is None:
        specs = chaos_from_env()
    for spec in specs:
        if (
            spec.mode == "flip"
            and record.triangles is not None
            and spec.triggers(record.algorithm, record.dataset)
        ):
            return dataclasses.replace(record, triangles=int(record.triangles) ^ 1)
    return record


# --------------------------------------------------------------------------
# shared cell-execution helpers (also used by repro.framework.parallel)
# --------------------------------------------------------------------------


def default_jobs() -> int:
    """Worker count used when ``jobs`` is 0/None: one per CPU core."""
    return max(1, os.cpu_count() or 1)


def _resolve_jobs(jobs: int | None, n_items: int) -> int:
    if not jobs:
        jobs = default_jobs()
    return max(1, min(int(jobs), n_items)) if n_items else 1


def _algorithm_name(algorithm) -> str:
    return algorithm if isinstance(algorithm, str) else getattr(algorithm, "name", str(algorithm))


def _safe_size_class(dataset: str) -> str:
    try:
        return size_class(dataset)
    except KeyError:
        return ""


def _failed_record(algorithm, dataset: str, device: DeviceSpec, exc: BaseException) -> RunRecord:
    return RunRecord(
        algorithm=_algorithm_name(algorithm),
        dataset=dataset,
        device=getattr(device, "name", str(device)),
        status="failed",
        error=f"{type(exc).__name__}: {exc}",
        size_class=_safe_size_class(dataset),
    )


def execute_cell(
    algorithm,
    dataset: str,
    *,
    device: DeviceSpec = SIM_V100,
    capacity_device: DeviceSpec = TESLA_V100,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    cost_model: CostModel | None = None,
    validate: bool = False,
) -> RunRecord:
    """One matrix cell with chaos hooks and optional validation; never raises.

    This is the shared cell body: :func:`repro.framework.parallel.run_cells`
    (in-process at jobs=1, pool workers otherwise) and the resilient
    per-cell subprocesses both run cells through here, so fault injection
    and quarantine behave identically on every execution path.  Telemetry
    crosses a process boundary in the caller's wrapper
    (:func:`repro.obs.tracer.run_forwarded`), never on the record.
    """
    specs = chaos_from_env()
    with get_tracer().span(
        "cell",
        level="info",
        algorithm=_algorithm_name(algorithm),
        dataset=dataset,
        blocks=max_blocks_simulated,
    ) as span:
        try:
            chaos_pre_run(
                _algorithm_name(algorithm),
                dataset,
                ordering=ordering,
                blocks=max_blocks_simulated,
                specs=specs,
            )
            record = run_one_safe(
                algorithm,
                dataset,
                device=device,
                capacity_device=capacity_device,
                ordering=ordering,
                max_blocks_simulated=max_blocks_simulated,
                cost_model=cost_model,
            )
            record = chaos_post_run(record, specs=specs)
        except Exception as exc:
            # run_one_safe already captures algorithm errors; this catches
            # the chaos hooks and anything raised before run_one_safe.
            record = _failed_record(algorithm, dataset, device, exc)
        if validate and record.status == "ok":
            record = validate_record(record, ordering=ordering)
        span.set(status=record.status)
        if record.status == "failed":
            get_tracer().warning(
                "cell_failed",
                algorithm=record.algorithm,
                dataset=record.dataset,
                error=record.error or "",
            )
    return record


# --------------------------------------------------------------------------
# validation & quarantine
# --------------------------------------------------------------------------

#: Replica CSR-entry ceiling for the cpu_reference cross-check.  Covers all
#: small and medium Table II replicas; only the few largest (Twitter,
#: Com-Friendster scale) are exempt, where an O(m) exact recount per cell
#: would rival the simulation itself.
DEFAULT_VALIDATE_MAX_EDGES = 200_000


@functools.lru_cache(maxsize=None)
def expected_triangles(dataset: str, ordering: str = "degree") -> int:
    """Memoised exact triangle count of a replica (cpu_reference)."""
    return int(count_triangles_oriented(load_oriented(dataset, ordering)))


def validate_record(
    record: RunRecord,
    *,
    ordering: str = "degree",
    max_edges: int = DEFAULT_VALIDATE_MAX_EDGES,
) -> RunRecord:
    """Cross-check an ``ok`` record against the exact CPU reference count.

    A mismatch is quarantined as ``status="invalid"`` — the cell is kept
    (with both counts in ``extra``) so the failure is diagnosable, but it
    never poisons ``winners()``, the figure series, or speedup tables.
    Cells above ``max_edges`` replica entries are passed through unchecked.
    """
    if record.status != "ok" or record.triangles is None:
        return record
    try:
        csr = load_oriented(record.dataset, ordering)
    except (KeyError, ValueError):
        return record
    if csr.m > max_edges:
        return record
    want = expected_triangles(record.dataset, ordering)
    if int(record.triangles) != want:
        get_tracer().warning(
            "cell_quarantined",
            algorithm=record.algorithm,
            dataset=record.dataset,
            reported=int(record.triangles),
            expected=want,
        )
        get_metrics().inc("cells_quarantined")
        maybe_dump(
            "cell_quarantined",
            error=f"{record.algorithm}/{record.dataset}: reported "
                  f"{int(record.triangles)}, expected {want}",
        )
        return dataclasses.replace(
            record,
            status="invalid",
            error=(
                f"triangle count mismatch: {record.algorithm} reported "
                f"{record.triangles} on {record.dataset}, cpu_reference counts {want}"
            ),
            extra={
                **record.extra,
                "reported_triangles": int(record.triangles),
                "expected_triangles": want,
            },
        )
    return record


# --------------------------------------------------------------------------
# run journal: checkpoint / resume
# --------------------------------------------------------------------------


def runs_root() -> Path:
    """Directory holding one subdirectory per journaled run."""
    path = gio.cache_dir() / "runs"
    path.mkdir(parents=True, exist_ok=True)
    return path


def new_run_id() -> str:
    """Fresh, filesystem-safe, roughly sortable run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:8]


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def record_to_dict(record: RunRecord) -> dict:
    """JSON-ready dict form of a record."""
    return dataclasses.asdict(record)


def record_from_dict(data: Mapping) -> RunRecord:
    """Rebuild a record from :func:`record_to_dict` output.

    Unknown keys are ignored so journals survive schema growth: a journal
    written by a newer build still resumes under an older one.
    """
    names = {f.name for f in dataclasses.fields(RunRecord)}
    return RunRecord(**{k: v for k, v in data.items() if k in names})


class AppendLog:
    """Append-only, fsync'd JSONL file: the primitive under both journals.

    Each append is one ``write()`` flushed and fsynced, so a crash can tear
    at most the final line.  :meth:`entries` skips unparsable lines, and an
    append after a torn tail ends the fragment with a newline first:
    otherwise the new line would be glued onto the fragment and lost with
    it.  Used by :class:`RunJournal` and :class:`repro.serve.JobJournal`.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._lock = threading.Lock()

    def append(self, entry: Mapping) -> None:
        line = (json.dumps(entry, default=_json_default) + "\n").encode()
        with self._lock, self.path.open("a+b") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def entries(self):
        """Parsed JSON objects in file order; blank, torn or garbage lines skipped."""
        if not self.path.exists():
            return
        with self.path.open(errors="replace") as fh:
            for line in fh:
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(entry, dict):
                    yield entry


class RunJournal:
    """Append-only JSONL journal of one matrix run.

    Lives under ``<cache>/runs/<run_id>/journal.jsonl``; each line is one
    completed :class:`RunRecord`, written through :class:`AppendLog`, so
    a torn tail costs "one cell to replay" instead of a lost run.
    ``meta.json`` pins the matrix configuration so a resume with
    mismatched parameters fails loudly instead of silently mixing
    incompatible records.
    """

    def __init__(self, run_id: str, root: Path | str | None = None) -> None:
        if not run_id or "/" in run_id or run_id in (".", ".."):
            raise ValueError(f"bad run id {run_id!r}")
        self.run_id = run_id
        self.dir = (Path(root) if root is not None else runs_root()) / run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / "journal.jsonl"
        self.meta_path = self.dir / "meta.json"
        self._log = AppendLog(self.path)

    def append(self, record: RunRecord) -> None:
        """Atomically append one completed record."""
        self._log.append(record_to_dict(record))

    def load(self) -> dict[tuple[str, str], RunRecord]:
        """All journaled records, keyed by ``(algorithm, dataset)``.

        Later lines win for duplicate cells (a replayed cell supersedes its
        earlier attempt); torn or garbage lines are skipped.
        """
        out: dict[tuple[str, str], RunRecord] = {}
        for entry in self._log.entries():
            try:
                record = record_from_dict(entry)
            except (TypeError, ValueError):
                continue
            out[(record.algorithm, record.dataset)] = record
        return out

    def completed(self) -> dict[tuple[str, str], RunRecord]:
        """Cells a resume may skip: everything except ``failed`` ones.

        ``ok``, ``degraded``, and ``invalid`` records are terminal — they
        describe the cell truthfully.  ``failed`` cells (crash, timeout
        exhaustion, OOM) are replayed: the failure may have been transient,
        and a deterministic one simply fails again.
        """
        return {k: r for k, r in self.load().items() if r.status != "failed"}

    def read_meta(self) -> dict | None:
        try:
            return json.loads(self.meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def check_or_write_meta(self, meta: Mapping) -> None:
        """Pin the run configuration, or verify it matches on resume.

        Journals from before the simulator engine stopped being a run
        option pin an ``engine`` key; engines are result-identical by
        contract, so any stored value is dropped before comparing.
        """
        normalized = json.loads(json.dumps(meta, default=_json_default))
        existing = self.read_meta()
        if existing is not None:
            existing.pop("engine", None)
        if existing is None:
            tmp = self.meta_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(normalized, indent=2, sort_keys=True))
            os.replace(tmp, self.meta_path)
        elif existing != normalized:
            raise ValueError(
                f"resume configuration mismatch for run {self.run_id!r}: "
                f"journal was recorded with {existing}, resume requested {normalized}"
            )


# --------------------------------------------------------------------------
# timeouts, worker deaths and the policy that retries both
# --------------------------------------------------------------------------


class CellTimeout(Exception):
    """A cell attempt exceeded its wall-clock budget and was killed."""


class WorkerDied(RuntimeError):
    """A cell attempt's worker process exited without reporting a record."""


def seeded_jitter(seed: int, key: str, attempt: int) -> float:
    """Deterministic jitter draw in ``[-1, 1)`` for one backoff decision.

    Seeded the same way the chaos harness seeds fault placement: the draw
    depends only on ``(seed, key, attempt)``, so a retried run sleeps the
    same jittered backoffs (reproducibility) while different cells sleep
    *different* ones (no retry stampede).
    """
    draw = zlib.crc32(f"{seed}|{key}|{attempt}".encode()) / 0xFFFFFFFF
    return 2.0 * draw - 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """Wall-clock, retry and restart budget for one matrix cell.

    :meth:`repro.framework.scheduler.JobScheduler._execute_supervised`
    applies it to each attempt's outcome.  Every timeout kills the
    attempt's subprocess, sleeps an exponential backoff, and retries at
    ``degrade_factor`` of the previous block budget (an unlimited ``None``
    budget degrades to :data:`~repro.framework.runner.DEFAULT_MAX_BLOCKS`
    first), never below ``min_blocks``.  A success at reduced fidelity is
    recorded as ``status="degraded"``; exhausting ``max_attempts`` yields
    ``status="failed"`` with a timeout error.  A worker that dies without
    reporting is restarted at the same block budget after the same
    backoff; the ``max_worker_deaths``-th death opens the job's circuit
    (``status="failed"``, ``extra["circuit_open"]``).  Timeouts and deaths
    draw on separate budgets.

    Backoffs are *jittered*: a deterministic schedule makes every cell that
    timed out in the same scheduling wave retry in the same instant, which
    is exactly the stampede that caused the wave in the first place.  The
    multiplicative ``jitter`` spreads retries over ``±jitter`` of the
    exponential base value, seeded per ``(jitter_seed, key, attempt)`` via
    :func:`seeded_jitter` so runs stay reproducible.  ``jitter=0`` restores
    the exact legacy schedule.
    """

    cell_timeout_s: float | None = None
    max_attempts: int = 4
    max_worker_deaths: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    degrade_factor: float = 0.5
    min_blocks: int = 1
    jitter: float = 0.25
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_worker_deaths < 1:
            raise ValueError("max_worker_deaths must be >= 1")
        if not 0.0 < self.degrade_factor < 1.0:
            raise ValueError("degrade_factor must be in (0, 1)")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def next_blocks(self, blocks: int | None) -> int:
        """Block budget for the retry after a timeout at ``blocks``."""
        if blocks is None:
            return DEFAULT_MAX_BLOCKS
        return max(self.min_blocks, int(blocks * self.degrade_factor))

    def backoff_s(self, attempt: int, key: str = "") -> float:
        """Sleep after the ``attempt + 1``-th timeout, or after the
        ``attempt + 1``-th worker death (``attempt`` is 0-based).

        ``key`` identifies the retrying entity (the scheduler passes
        ``"ALG/DS"``) so simultaneous retries of different cells
        decorrelate while repeat runs of the same cell reproduce exactly.
        """
        base = self.backoff_base_s * self.backoff_factor**attempt
        if not self.jitter:
            return base
        return base * (1.0 + self.jitter * seeded_jitter(self.jitter_seed, key, attempt))


def prepare_fork() -> None:
    """Load in the parent what every forked worker would otherwise load alone.

    ``np.unique`` imports ``numpy.ma`` on its first call (13-18 ms), and
    every launch fingerprint and facts key needs the code digest; a pool
    worker or per-attempt child forked after this inherits both.
    """
    import numpy.ma  # noqa: F401

    gio.code_digest()


@functools.lru_cache(maxsize=1)
def _mp_context():
    """Prefer ``fork`` (workers inherit warm replica caches) when available."""
    prepare_fork()
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context()


def _cell_worker(conn, algorithm, dataset, device, capacity_device, ordering,
                 blocks, cost_model, validate) -> None:
    """Subprocess entry point: run one cell attempt, ship ``(record,
    events, metrics_delta)`` back (:func:`repro.obs.tracer.run_forwarded`)."""
    try:
        conn.send(run_forwarded(
            execute_cell,
            algorithm,
            dataset,
            device=device,
            capacity_device=capacity_device,
            ordering=ordering,
            max_blocks_simulated=blocks,
            cost_model=cost_model,
            validate=validate,
        ))
    finally:
        conn.close()


def _kill(proc) -> None:
    proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM almost always suffices
        proc.kill()
        proc.join(timeout=2.0)


def _attempt_cell(
    algorithm,
    dataset: str,
    *,
    device: DeviceSpec,
    capacity_device: DeviceSpec,
    ordering: str,
    blocks: int | None,
    cost_model: CostModel | None,
    validate: bool,
    timeout_s: float | None,
) -> RunRecord:
    """One attempt in a dedicated, killable subprocess.

    Returns the worker's record, its telemetry already folded into this
    process; a worker that dies without reporting (hard exit, segfault)
    raises :class:`WorkerDied`, and one that outlives ``timeout_s`` is
    killed and raises :class:`CellTimeout`.
    """
    ctx = _mp_context()
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_cell_worker,
        args=(send, algorithm, dataset, device, capacity_device, ordering,
              blocks, cost_model, validate),
        daemon=True,
    )
    proc.start()
    send.close()
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    try:
        while True:
            if recv.poll(0.02):
                try:
                    record, events, metrics_delta = recv.recv()
                except (EOFError, OSError):
                    record = None
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - lingering worker
                    _kill(proc)
                if record is not None:
                    absorb_forwarded(events, metrics_delta)
                    return record
                raise WorkerDied(f"worker pipe closed unexpectedly (exit code {proc.exitcode})")
            if not proc.is_alive():
                if recv.poll(0):  # result raced with process exit
                    continue
                proc.join()
                raise WorkerDied(f"worker process died with exit code {proc.exitcode}")
            if deadline is not None and time.monotonic() >= deadline:
                _kill(proc)
                raise CellTimeout(
                    f"cell ({_algorithm_name(algorithm)}, {dataset}) exceeded "
                    f"{timeout_s:.3g}s wall clock at {blocks if blocks else 'full'} blocks"
                )
    finally:
        recv.close()


# --------------------------------------------------------------------------
# resilient matrix executor
# --------------------------------------------------------------------------


def run_cells_resilient(
    cells: Sequence[tuple[str, str]],
    *,
    jobs: int | None = None,
    device: DeviceSpec = SIM_V100,
    capacity_device: DeviceSpec = TESLA_V100,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    cost_model: CostModel | None = None,
    policy: RetryPolicy | None = None,
    validate: bool = True,
    journal: RunJournal | None = None,
    completed: Mapping[tuple[str, str], RunRecord] | None = None,
    progress_callback: Callable[[RunRecord, int, int], None] | None = None,
) -> list[RunRecord]:
    """Resilient analogue of :func:`repro.framework.parallel.run_cells`.

    Each pending cell runs in its own killable subprocess under the
    timeout/degrading-retry ``policy``; ``jobs`` worker *threads* drive the
    subprocesses concurrently.  Cells present in ``completed`` (typically
    ``journal.completed()`` on resume) are emitted as-is without re-running;
    every freshly executed record is appended to ``journal`` the moment it
    finishes, so progress survives a parent-process death.  The returned
    list is in ``cells`` order regardless of completion order, and the call
    never raises for a cell failure.
    """
    cells = list(cells)
    total = len(cells)
    if total == 0:
        return []
    completed = dict(completed or {})
    policy = policy or RetryPolicy()

    results: list[RunRecord | None] = [None] * total
    pending: list[int] = []
    for i, (algorithm, ds) in enumerate(cells):
        prior = completed.get((_algorithm_name(algorithm), ds))
        if prior is not None:
            results[i] = prior
        else:
            pending.append(i)

    if len(pending) < total:
        get_tracer().info(
            "resume_skip", skipped=total - len(pending), pending=len(pending), total=total
        )

    done = 0
    lock = threading.Lock()

    def _finish(i: int, record: RunRecord, *, fresh: bool) -> None:
        nonlocal done
        with lock:
            results[i] = record
            done += 1
            if fresh and journal is not None:
                journal.append(record)
            if progress_callback is not None:
                progress_callback(record, done, total)

    for i in range(total):
        if results[i] is not None:
            _finish(i, results[i], fresh=False)

    if pending:
        # Generate every replica once in the parent: forked attempt
        # subprocesses inherit the warm memory cache, spawned ones hit the
        # disk cache, as in parallel.run_cells.
        warm_cache(
            sorted({cells[i][1] for i in pending}), orderings=(ordering,), strict=False
        )
        workers = _resolve_jobs(jobs, len(pending))

        # The batch path and the serve daemon drive the same scheduler
        # (scheduler/executor split): submit every pending cell, let the
        # worker threads drain the queue, journal each record as its
        # completion callback fires.  Late import: scheduler.py imports
        # this module's executor primitives.
        from .scheduler import CellJob, JobScheduler

        scheduler = JobScheduler(
            workers=workers,
            policy=policy,
            device=device,
            capacity_device=capacity_device,
            ordering=ordering,
            max_blocks_simulated=max_blocks_simulated,
            cost_model=cost_model,
            validate=validate,
        )
        try:
            handles = []
            for i in pending:
                algorithm, ds = cells[i]
                job = CellJob(_algorithm_name(algorithm), ds)
                handles.append((i, scheduler.submit(
                    job, on_done=lambda h, i=i: _finish(i, h.record, fresh=True),
                )))
            for _, handle in handles:
                handle.result()
        finally:
            scheduler.shutdown(wait=False)
    return [r for r in results if r is not None]
