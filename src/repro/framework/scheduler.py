"""Job scheduler: the queueing half of the scheduler/executor split.

Until PR 7 the framework had exactly one way to run many cells — hand the
full list to an executor and wait.  A long-running service needs the
missing half: a component that *owns a queue* and decides, continuously,
which cell to run next, with what fidelity, and under which wall-clock
budget.  :class:`JobScheduler` is that component, and it is deliberately
transport-agnostic: :func:`repro.framework.resilience.run_cells_resilient`
(and through it ``run_matrix``) submits a fixed batch and drains it, while
:mod:`repro.serve.server` keeps one scheduler alive for days and feeds it
jobs from sockets.  Both drive the same code path, so every robustness
property below is exercised by the ordinary test matrix, not just by the
daemon:

* **priority queue** — higher ``priority`` runs first; ties run FIFO in
  submission order, so a batch submit degenerates to the legacy ordering;
* **deadlines** — a job's wall-clock deadline clamps every attempt's
  timeout (the attempt subprocess is killed when the deadline passes, not
  merely noticed late), and a job that is already past its deadline when
  popped, or before a retry, terminals immediately as ``failed`` with a
  ``DeadlineExpired`` error and ``extra["deadline_expired"]`` instead of
  wasting a worker;
* **graceful degradation** — a job admitted at ``shed_level > 0`` runs at
  ``max_blocks >> shed_level`` (the same halving ladder the timeout
  degradation uses), trading sampled-grid precision for queue drain
  before any job has to be rejected outright;
* **one supervision loop** — :meth:`JobScheduler._execute_supervised`
  runs each attempt in its worker thread's killable slot process
  (:func:`~repro.framework.resilience._attempt_cell`) and retries it under
  one :class:`~repro.framework.resilience.RetryPolicy`: a timeout
  (:class:`~repro.framework.resilience.CellTimeout`) degrades the block
  budget and backs off; a worker that dies without reporting
  (segfault-style ``os._exit``, the ``worker_kill_midjob`` chaos mode,
  :class:`~repro.framework.resilience.WorkerDied`) is restarted at the
  same budget under the same jittered backoff, and after
  ``max_worker_deaths`` deaths the job is *circuit-broken*: terminal
  ``failed`` with ``extra["circuit_open"]`` so a poisoned input can't eat
  the pool.  Timeouts and deaths keep separate budgets.

Every terminal outcome is a plain :class:`~repro.framework.runner.
RunRecord`; the scheduler never raises for a job failure.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
import time
import uuid
from collections.abc import Callable
from dataclasses import dataclass, field

from ..gpu.costmodel import CostModel
from ..gpu.device import SIM_V100, TESLA_V100, DeviceSpec
from ..obs.flightrec import maybe_dump
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from .resilience import (
    CellTimeout,
    RetryPolicy,
    SlotWorker,
    WorkerDied,
    _algorithm_name,
    _attempt_cell,
    _failed_record,
    _safe_size_class,
)
from .runner import DEFAULT_MAX_BLOCKS, RunRecord

__all__ = [
    "CellJob",
    "JobHandle",
    "JobScheduler",
    "new_job_id",
    "shed_blocks",
]


def new_job_id() -> str:
    """Fresh, filesystem-safe job identifier."""
    return "job-" + uuid.uuid4().hex[:12]


def shed_blocks(blocks: int | None, shed_level: int, *, min_blocks: int = 1) -> int | None:
    """Block budget after ``shed_level`` halvings (the degradation ladder).

    An unlimited (``None``) budget sheds to :data:`DEFAULT_MAX_BLOCKS`
    first — precision shedding must actually bound work to mean anything.
    """
    if shed_level <= 0:
        return blocks
    base = DEFAULT_MAX_BLOCKS if blocks is None else blocks
    return max(min_blocks, base >> shed_level)


@dataclass
class CellJob:
    """One schedulable unit of work: a matrix cell plus service metadata."""

    algorithm: str
    dataset: str
    job_id: str = field(default_factory=new_job_id)
    priority: int = 0
    #: absolute :func:`time.monotonic` deadline (``None``: unbounded).
    deadline: float | None = None
    shed_level: int = 0
    client: str = ""
    #: per-job execution overrides (``ordering`` / ``blocks`` /
    #: ``validate``); anything absent falls back to scheduler defaults.
    overrides: dict = field(default_factory=dict)

    def remaining_s(self, now: float | None = None) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - (time.monotonic() if now is None else now)


class JobHandle:
    """Caller-side view of one submitted job."""

    def __init__(self, job: CellJob) -> None:
        self.job = job
        self.state = "queued"  # queued -> running -> done | cancelled
        self.record: RunRecord | None = None
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._cancelled = False

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self) -> bool:
        """Cancel a still-queued job (a running job is past cancelling).

        Returns True when the cancellation took; the job then terminals
        with a ``failed`` record whose error names the cancellation.
        """
        with self._lock:
            if self.state != "queued" or self._done.is_set():
                return False
            self._cancelled = True
            return True

    def result(self, timeout: float | None = None) -> RunRecord:
        """Block for the terminal record (raises TimeoutError on timeout)."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job.job_id} not done after {timeout}s")
        assert self.record is not None
        return self.record


class JobScheduler:
    """Bounded pool of worker threads draining a priority job queue.

    ``on_event(name, job, payload)`` fires on every lifecycle transition
    (``job_queued`` / ``job_started`` / ``job_worker_restart`` /
    ``job_done``) from whichever thread made the transition; the serve
    layer streams these to clients as telemetry-shaped events.  Per-job
    ``on_done(handle)`` callbacks fire after the terminal record is set.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        device: DeviceSpec = SIM_V100,
        capacity_device: DeviceSpec = TESLA_V100,
        ordering: str = "degree",
        max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
        cost_model: CostModel | None = None,
        validate: bool = False,
        on_event: Callable[[str, CellJob, dict], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.policy = policy or RetryPolicy()
        self.defaults = dict(
            device=device,
            capacity_device=capacity_device,
            ordering=ordering,
            max_blocks_simulated=max_blocks_simulated,
            cost_model=cost_model,
            validate=validate,
        )
        self._on_event = on_event
        self._heap: list[tuple[int, int, JobHandle]] = []
        self._seq = itertools.count()
        self._cv = threading.Condition()
        self._closed = False
        self._running = 0
        self._completed = 0
        #: one attempt process per worker thread (forked at its first attempt)
        self._slots = [SlotWorker() for _ in range(workers)]
        self._threads = [
            threading.Thread(target=self._loop, args=(slot,), name=f"repro-sched-{i}", daemon=True)
            for i, slot in enumerate(self._slots)
        ]
        for t in self._threads:
            t.start()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        job: CellJob,
        *,
        on_done: Callable[[JobHandle], None] | None = None,
    ) -> JobHandle:
        """Enqueue one job; returns immediately with its handle."""
        handle = JobHandle(job)
        handle._on_done = on_done  # type: ignore[attr-defined]
        with self._cv:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            heapq.heappush(self._heap, (-job.priority, next(self._seq), handle))
            self._cv.notify()
        self._emit("job_queued", job, {"priority": job.priority, "shed_level": job.shed_level})
        registry = get_metrics()
        registry.inc("sched_jobs_submitted")
        registry.gauge("sched_queue_depth", self.queue_depth())
        return handle

    def queue_depth(self) -> int:
        with self._cv:
            return len(self._heap)

    def stats(self) -> dict:
        with self._cv:
            return {
                "queue_depth": len(self._heap),
                "running": self._running,
                "completed": self._completed,
                "workers": len(self._threads),
            }

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and no job is running."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._heap or self._running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(timeout=remaining)
        return True

    def shutdown(self, *, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting jobs; optionally drain what is already queued.
        Each thread stops its slot worker as it exits (a busy one after its attempt)."""
        if wait:
            self.drain(timeout=timeout)
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)

    # -- worker loop -------------------------------------------------------

    def _emit(self, name: str, job: CellJob, payload: dict) -> None:
        if self._on_event is not None:
            try:
                self._on_event(name, job, payload)
            except Exception:  # pragma: no cover - observer must not kill workers
                pass

    def _pop(self) -> JobHandle | None:
        with self._cv:
            while not self._heap and not self._closed:
                self._cv.wait()
            if self._heap:
                _, _, handle = heapq.heappop(self._heap)
                self._running += 1
                return handle
            return None

    def _loop(self, worker: SlotWorker) -> None:
        while True:
            handle = self._pop()
            if handle is None:
                worker.stop()
                return
            try:
                record = self._run_handle(handle, worker)
            except Exception as exc:  # pragma: no cover - defensive
                record = _failed_record(
                    handle.job.algorithm, handle.job.dataset,
                    self.defaults["device"], exc,
                )
            self._finish(handle, record)

    def _run_handle(self, handle: JobHandle, worker: SlotWorker) -> RunRecord:
        job = handle.job
        with handle._lock:
            if handle._cancelled:
                handle.state = "cancelled"
                return self._terminal_failed(job, "Cancelled: cancelled while queued")
            handle.state = "running"
            handle.started_at = time.monotonic()
        if job.deadline is not None and time.monotonic() >= job.deadline:
            return self._terminal_failed(
                job, "DeadlineExpired: deadline passed while queued", deadline_expired=True,
            )
        self._emit("job_started", job, {
            "queue_wait_s": round(handle.started_at - handle.submitted_at, 6),
            "shed_level": job.shed_level,
        })
        registry = get_metrics()
        registry.inc("sched_jobs_started")
        registry.observe("sched_queue_wait_s", handle.started_at - handle.submitted_at)
        registry.gauge("sched_queue_depth", self.queue_depth())
        return self._execute_supervised(handle, worker)

    def _terminal_failed(self, job: CellJob, error: str, **extra) -> RunRecord:
        return RunRecord(
            algorithm=_algorithm_name(job.algorithm),
            dataset=job.dataset,
            device=self.defaults["device"].name,
            status="failed",
            error=error,
            size_class=_safe_size_class(job.dataset),
            extra=extra,
        )

    def _execute_supervised(self, handle: JobHandle, worker: SlotWorker) -> RunRecord:
        """Run one job to a terminal record; the only loop that retries an
        attempt.

        Each attempt is one :func:`~repro.framework.resilience._attempt_cell`
        on this slot's ``worker`` process under ``cell_timeout_s`` clamped
        to the job's remaining deadline, and its outcome decides the next
        step: a record is terminal (``degraded`` when a timeout cut its
        block budget); a :class:`CellTimeout` halves the budget and backs
        off until ``max_attempts`` timeouts exhaust the job; a
        :class:`WorkerDied` restarts at the same budget and backs off until
        ``max_worker_deaths`` deaths open the circuit.
        """
        job = handle.job
        over = job.overrides
        policy = self.policy
        initial = shed_blocks(
            over.get("blocks", self.defaults["max_blocks_simulated"]),
            job.shed_level,
            min_blocks=policy.min_blocks,
        )
        cluster = over.get("cluster")
        if cluster:
            return self._execute_cluster(job, cluster, initial)
        algorithm = _algorithm_name(job.algorithm)
        key = f"{algorithm}/{job.dataset}"
        blocks = initial
        timeouts = deaths = 0
        while True:
            timeout_s = policy.cell_timeout_s
            remaining = job.remaining_s()
            if remaining is not None:
                if remaining <= 0:
                    return self._terminal_failed(
                        job, "DeadlineExpired: deadline passed before attempt",
                        deadline_expired=True,
                    )
                timeout_s = remaining if timeout_s is None else min(timeout_s, remaining)
            try:
                record = _attempt_cell(
                    job.algorithm,
                    job.dataset,
                    device=self.defaults["device"],
                    capacity_device=self.defaults["capacity_device"],
                    ordering=over.get("ordering", self.defaults["ordering"]),
                    blocks=blocks,
                    cost_model=self.defaults["cost_model"],
                    validate=over.get("validate", self.defaults["validate"]),
                    timeout_s=timeout_s,
                    worker=worker,
                )
                break
            except CellTimeout as exc:
                timeouts += 1
                get_tracer().warning(
                    "cell_timeout", algorithm=algorithm, dataset=job.dataset,
                    attempt=timeouts + deaths, blocks=blocks, timeout_s=timeout_s,
                )
                if timeouts >= policy.max_attempts:
                    get_tracer().error(
                        "cell_exhausted", algorithm=algorithm, dataset=job.dataset,
                        attempts=policy.max_attempts, timeouts=timeouts, final_blocks=blocks,
                    )
                    record = self._terminal_failed(
                        job, f"timed out on all {timeouts} attempts: {exc}",
                        attempts=timeouts + deaths, timeouts=timeouts,
                        final_blocks=blocks, cell_timeout_s=timeout_s,
                    )
                    break
                time.sleep(policy.backoff_s(timeouts - 1, key=key))
                blocks = policy.next_blocks(blocks)
            except WorkerDied as exc:
                deaths += 1
                get_tracer().warning(
                    "job_worker_death", job=job.job_id, algorithm=algorithm,
                    dataset=job.dataset, deaths=deaths,
                )
                get_metrics().inc("sched_worker_deaths")
                maybe_dump(
                    "worker_death",
                    error=f"job {job.job_id} ({key}) worker died ({deaths} deaths)",
                )
                if deaths >= policy.max_worker_deaths:
                    self._emit("job_circuit_open", job, {"worker_deaths": deaths})
                    get_metrics().inc("sched_circuit_opens")
                    return self._terminal_failed(
                        # the error text a death has always left in journals
                        job, f"circuit open after {deaths} worker deaths: RuntimeError: {exc}",
                        circuit_open=True, worker_deaths=deaths,
                    )
                self._emit("job_worker_restart", job, {"deaths": deaths})
                time.sleep(policy.backoff_s(deaths - 1, key=key))
        if timeouts and record.status == "ok" and blocks != initial:
            get_tracer().warning(
                "cell_degraded", algorithm=algorithm, dataset=job.dataset,
                initial_blocks=initial, final_blocks=blocks, timeouts=timeouts,
            )
            record = dataclasses.replace(record, status="degraded", extra={
                **record.extra,
                "degradation": {
                    "initial_blocks": initial,
                    "final_blocks": blocks,
                    "attempts": timeouts + deaths + 1,
                    "timeouts": timeouts,
                    "cell_timeout_s": timeout_s,
                },
            })
        if job.shed_level > 0:
            record = dataclasses.replace(
                record,
                extra={**record.extra, "shed_level": job.shed_level, "shed_blocks": initial},
            )
        return record

    def _execute_cluster(self, job: CellJob, cluster: dict, blocks: int | None) -> RunRecord:
        """Fan one job out over simulated cluster devices.

        ``overrides["cluster"]`` carries ``{"devices": N, "partitioner":
        ..., "seed": ..., "jobs": ...}``; the partition fan-out happens
        inside :func:`repro.framework.cluster.run_cluster`, sharing the
        scheduler's shed-block budget and per-job ordering override.
        Cluster cells run in-process (the partition workers are the
        supervised processes), so any setup error is captured here rather
        than looping the worker-death supervisor.
        """
        from .cluster import cluster_to_run_record, run_cluster  # local: avoids import cycle

        over = job.overrides
        try:
            record = cluster_to_run_record(
                run_cluster(
                    job.algorithm,
                    job.dataset,
                    devices=int(cluster.get("devices", 2)),
                    partitioner=cluster.get("partitioner", "hash2d"),
                    seed=int(cluster.get("seed", 0)),
                    device=self.defaults["device"],
                    ordering=over.get("ordering", self.defaults["ordering"]),
                    max_blocks_simulated=blocks,
                    cost_model=self.defaults["cost_model"],
                    jobs=cluster.get("jobs", 1),
                )
            )
        except Exception as exc:
            return _failed_record(job.algorithm, job.dataset, self.defaults["device"], exc)
        if job.shed_level > 0:
            record = dataclasses.replace(
                record,
                extra={**record.extra, "shed_level": job.shed_level, "shed_blocks": blocks},
            )
        return record

    def _finish(self, handle: JobHandle, record: RunRecord) -> None:
        with handle._lock:
            if handle.state != "cancelled":
                handle.state = "done"
            handle.record = record
            handle.finished_at = time.monotonic()
        self._emit("job_done", handle.job, {
            "status": record.status,
            "duration_s": round(handle.finished_at - (handle.started_at or handle.finished_at), 6),
        })
        registry = get_metrics()
        registry.inc(f"sched_jobs_{record.status}")
        registry.observe(
            "sched_job_duration_s",
            handle.finished_at - (handle.started_at or handle.finished_at),
        )
        registry.gauge("sched_queue_depth", self.queue_depth())
        with self._cv:
            self._running -= 1
            self._completed += 1
            self._cv.notify_all()
        handle._done.set()
        on_done = getattr(handle, "_on_done", None)
        if on_done is not None:
            try:
                on_done(handle)
            except Exception:  # pragma: no cover - observer must not kill workers
                pass
