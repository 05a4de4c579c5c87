"""The ``repro serve`` daemon: sockets in front, one job scheduler behind.

Architecture::

    client ──conn──▶ reader thread ──▶ admission ──▶ JobScheduler (threads)
                        │                  │               │ killable
                        ▼                  ▼               ▼ subprocesses
                    writer thread ◀── outbound queue ◀── completion hooks
                                           │
                                    JobJournal (fsync'd accepted/terminal)

Every client connection gets a reader thread (frame parsing, dispatch)
and a writer thread draining a *bounded* outbound queue — a client that
stops reading fills its queue and is disconnected (backpressure) instead
of blocking a scheduler completion hook.  All jobs from all connections
multiplex onto one :class:`~repro.framework.scheduler.JobScheduler`, so
the replica and trace caches are shared across clients by construction
(the scheduler's forked workers inherit the parent's warm caches).

Failure semantics (the contract the README table documents):

* admission reject → ``rejected`` frame with ``retry_after_s``; the job
  never existed;
* accepted → journaled *before* the accept frame is sent; from then on
  the job reaches exactly one terminal journal entry, crash or not;
* deadline exceeded → typed ``error`` frame (``deadline_expired``) and a
  terminal ``failed`` record;
* worker deaths → restarts under backoff, then circuit-break: terminal
  ``failed`` with ``circuit_open`` in ``extra``;
* overload between the watermarks → accepted at ``shed_level > 0``
  (halved block budget per level), visible in the result frame;
* daemon killed → restart with the same ``--server-id`` replays the
  journal and resubmits every non-terminal accepted job.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from ..algorithms.base import get_algorithm
from ..framework.resilience import (
    RetryPolicy,
    SERVE_CHAOS_MODES,
    chaos_from_env,
    record_to_dict,
)
from ..framework.runner import DEFAULT_MAX_BLOCKS, RunRecord
from ..framework.scheduler import CellJob, JobHandle, JobScheduler
from ..graph.datasets import get_spec
from ..obs.metrics import get_metrics
from ..obs.tracer import TELEMETRY_SCHEMA, get_tracer
from .admission import AdmissionController, AdmissionPolicy, estimate_cost
from .journal import JobJournal
from . import protocol as proto

__all__ = ["TriangleServer", "new_server_id"]

#: Seconds a chaos-triggered ``slow_client`` handler stalls per frame.
SLOW_CLIENT_ENV = "REPRO_CHAOS_SLOW_CLIENT_S"

#: Outbound frames buffered per connection before backpressure disconnects.
OUTBOUND_QUEUE_FRAMES = 512

_RECV_BYTES = 65536


def new_server_id() -> str:
    """Fresh, filesystem-safe server identifier."""
    return "srv-" + time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


class _Conn:
    """One client connection: socket + bounded outbound queue + writer."""

    def __init__(self, sock: socket.socket, peer: str, server: "TriangleServer") -> None:
        self.sock = sock
        self.peer = peer
        self.server = server
        self.alive = True
        self._outq: queue.Queue = queue.Queue(maxsize=OUTBOUND_QUEUE_FRAMES)
        self._writer = threading.Thread(
            target=self._write_loop, name=f"serve-w-{peer}", daemon=True
        )
        self._writer.start()

    def send(self, frame: dict) -> bool:
        """Enqueue one frame; False (and disconnect) when the client is
        too far behind — backpressure must never block the caller."""
        if not self.alive:
            return False
        try:
            self._outq.put_nowait(frame)
            return True
        except queue.Full:
            self.server.metrics.inc("serve_conn_backpressure_drops")
            self.close()
            return False

    def _write_loop(self) -> None:
        while True:
            frame = self._outq.get()
            if frame is None or not self.alive:
                return
            try:
                self.sock.sendall(proto.encode_frame(frame))
            except OSError:
                self.close()
                return

    def close(self) -> None:
        if not self.alive:
            return
        self.alive = False
        try:
            self._outq.put_nowait(None)
        except queue.Full:
            pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self.server._forget_conn(self)


@dataclass
class _JobState:
    """Server-side bookkeeping for one accepted job."""

    job_id: str
    request: dict
    cost: float
    shed_level: int
    accepted_at: float
    handle: JobHandle | None = None
    terminal: dict | None = None        # record dict once terminal
    terminal_status: str = ""
    #: connections streaming progress events for this job.
    stream_subs: list = field(default_factory=list)
    #: ``(conn, tag)`` pairs awaiting the terminal result frame — the tag
    #: is echoed into the frame so clients can route it to the request
    #: (submit or wait) that subscribed.
    result_subs: list = field(default_factory=list)


class TriangleServer:
    """Fault-tolerant triangle-counting job service over LDJSON frames."""

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        port: int | None = None,
        host: str = "127.0.0.1",
        server_id: str | None = None,
        workers: int = 2,
        admission: AdmissionPolicy | None = None,
        retry_policy: RetryPolicy | None = None,
        default_deadline_s: float | None = 60.0,
        default_blocks: int | None = DEFAULT_MAX_BLOCKS,
        validate: bool = False,
        drain_timeout_s: float = 30.0,
        terminal_ttl_s: float = 900.0,
        max_terminal_jobs: int = 1024,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.server_id = server_id or new_server_id()
        self.workers = workers
        self.default_deadline_s = default_deadline_s
        self.default_blocks = default_blocks
        self.drain_timeout_s = drain_timeout_s
        #: how long (and how many) terminal job states stay queryable in
        #: memory before eviction — the journal remains the durable
        #: fallback, so eviction bounds memory without losing results.
        self.terminal_ttl_s = terminal_ttl_s
        self.max_terminal_jobs = max_terminal_jobs
        # The process-wide registry is the server's only counter store.  Its
        # ``serve_*`` counters and gauges, prefix stripped, are the stats
        # frame's top-level wire names (see _stats_frame); scheduler workers'
        # deltas merge into it on the forwarding path.
        self.metrics = get_metrics()
        self.admission = AdmissionController(admission)
        self.journal = JobJournal(self.server_id)
        self._chaos = chaos_from_env()
        self._lock = threading.Lock()
        self._jobs: dict[str, _JobState] = {}
        #: terminal job ids in completion order, for TTL/count eviction.
        self._terminal_order: deque[tuple[str, float]] = deque()
        #: bounded LRU of terminal journal entries (id -> entry or None),
        #: so status/wait on evicted/unknown ids does not re-parse the
        #: whole journal file per call.
        self._terminal_cache: OrderedDict[str, dict | None] = OrderedDict()
        self._queued_cost = 0.0
        self._conns: set[_Conn] = set()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._shutting_down = False
        self._stopped = threading.Event()
        self._job_seq = 0
        #: stats watchers: conn -> [interval_s, next_due (monotonic)].
        self._watchers: dict[_Conn, list[float]] = {}
        self._push_stop = threading.Event()
        self._push_thread: threading.Thread | None = None
        #: cadence of metrics_snapshot telemetry events (0 disables).
        self.snapshot_interval_s = 10.0
        self.scheduler = JobScheduler(
            workers=workers,
            policy=retry_policy or RetryPolicy(cell_timeout_s=None),
            validate=validate,
            on_event=self._on_scheduler_event,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Replay the journal, bind the socket, start accepting."""
        self._replay_journal()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a crash
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(self.socket_path)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port or 0))
            self.port = sock.getsockname()[1]
        sock.listen(128)
        self._listener = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._push_thread = threading.Thread(
            target=self._push_loop, name="serve-stats-push", daemon=True
        )
        self._push_thread.start()
        get_tracer().info(
            "serve_listening", server_id=self.server_id,
            address=self.address, workers=self.workers,
        )

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully shut down."""
        return self._stopped.wait(timeout)

    def shutdown(self, *, drain: bool = True) -> None:
        """Graceful stop: refuse new jobs, drain the queue, close conns.

        Jobs still queued when ``drain_timeout_s`` runs out stay pending
        in the journal and resume on the next boot with this server id.
        """
        with self._lock:
            if self._shutting_down:
                return
            self._shutting_down = True
        self._push_stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if drain:
            self.scheduler.drain(timeout=self.drain_timeout_s)
        self.scheduler.shutdown(wait=False)
        for conn in list(self._conns):
            conn.close()
        get_tracer().info("serve_stopped", server_id=self.server_id)
        self._stopped.set()

    def _forget_conn(self, conn: _Conn) -> None:
        with self._lock:
            self._conns.discard(conn)
            self._watchers.pop(conn, None)
            for state in self._jobs.values():
                if conn in state.stream_subs:
                    state.stream_subs.remove(conn)
                state.result_subs[:] = [
                    (c, tag) for c, tag in state.result_subs if c is not conn
                ]

    # -- journal replay ----------------------------------------------------

    def _replay_journal(self) -> None:
        """Resubmit accepted-but-not-terminal jobs from a previous life."""
        pending = self.journal.pending()
        if not pending:
            return
        get_tracer().info(
            "serve_replay", server_id=self.server_id, pending=len(pending)
        )
        self.metrics.inc("serve_journal_replayed_jobs", len(pending))
        for job_id, entry in sorted(pending.items(), key=lambda kv: kv[1].get("ts", 0)):
            request = entry.get("request", {})
            deadline_s = request.get("deadline_s")
            remaining = None
            if deadline_s is not None:
                remaining = entry.get("ts", time.time()) + deadline_s - time.time()
                if remaining <= 0:
                    # The deadline died with the old process; the job still
                    # must reach a terminal state exactly once.
                    record = self._expired_record(request, job_id)
                    self._record_terminal(job_id, record, replay=True)
                    continue
            cost = float(entry.get("cost") or 0.0)
            if not cost:
                # Pre-cost journal entry: recompute so the queued-cost
                # admission ceiling does not under-count after restart.
                try:
                    cost = estimate_cost(
                        str(request.get("algorithm", "")),
                        str(request.get("dataset", "")),
                        request.get("blocks"),
                    )
                except KeyError:
                    cost = 0.0
            state = _JobState(
                job_id=job_id, request=request, cost=cost,
                shed_level=int(entry.get("shed_level", 0)),
                accepted_at=time.monotonic(),
            )
            with self._lock:
                self._jobs[job_id] = state
                self._queued_cost += state.cost
            self._submit_to_scheduler(state, remaining_s=remaining)

    def _expired_record(self, request: dict, job_id: str) -> RunRecord:
        return RunRecord(
            algorithm=str(request.get("algorithm", "?")),
            dataset=str(request.get("dataset", "?")),
            device="", status="failed",
            error="DeadlineExpired: deadline passed before restart replay",
            extra={"deadline_expired": True},
        )

    # -- accept loop & connection handling ---------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            if sock.family == socket.AF_INET:
                # Frames are small and answer each other: without this,
                # Nagle holds a reply until the peer's delayed ACK.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = f"{addr}" if addr else "unix"
            conn = _Conn(sock, peer, self)
            with self._lock:
                shutting_down = self._shutting_down
                if not shutting_down:
                    self._conns.add(conn)
            if shutting_down:
                # send/close strictly OUTSIDE the lock: close() calls
                # _forget_conn() which re-acquires it (non-reentrant), and
                # send() can reach close() via a full outbound queue — a
                # self-deadlock that would wedge the accept thread while
                # holding the global lock.
                conn.send(proto.error_frame("shutting_down", "server is draining"))
                time.sleep(0.01)  # let the writer flush the refusal
                conn.close()
                continue
            threading.Thread(
                target=self._read_loop, args=(conn,),
                name=f"serve-r-{peer}", daemon=True,
            ).start()

    def _read_loop(self, conn: _Conn) -> None:
        reader = proto.FrameReader()
        try:
            while conn.alive:
                try:
                    data = conn.sock.recv(_RECV_BYTES)
                except OSError:
                    break
                if not data:
                    break
                try:
                    lines = reader.feed(data)
                except proto.FrameError as exc:
                    self.metrics.inc(f"serve_frame_errors_{exc.code}")
                    conn.send(proto.error_frame(exc.code, exc.message))
                    break  # framing is gone; the connection is unusable
                for line in lines:
                    self._handle_line(conn, line)
                try:
                    reader.raise_if_poisoned()
                except proto.FrameError as exc:
                    self.metrics.inc(f"serve_frame_errors_{exc.code}")
                    conn.send(proto.error_frame(exc.code, exc.message))
                    break
        finally:
            # Give the writer a beat to flush any error frame, then drop.
            time.sleep(0.01)
            conn.close()

    def _handle_line(self, conn: _Conn, line: bytes) -> None:
        """Parse and dispatch one frame; never lets a client fault escape."""
        try:
            frame = proto.decode_frame(line)
            request = proto.parse_request(frame)
        except proto.FrameError as exc:
            self.metrics.inc(f"serve_frame_errors_{exc.code}")
            conn.send(proto.error_frame(exc.code, exc.message))
            return
        except proto.RequestError as exc:
            self.metrics.inc("serve_bad_requests")
            conn.send(proto.error_frame(exc.code, exc.message, tag=_tag(frame)))
            return
        try:
            self._dispatch(conn, request)
        except proto.RequestError as exc:
            self.metrics.inc("serve_bad_requests")
            conn.send(proto.error_frame(exc.code, exc.message, tag=_tag(request)))
        except Exception as exc:  # pragma: no cover - last-resort guard
            get_tracer().error("serve_dispatch_error", error=f"{type(exc).__name__}: {exc}")
            conn.send(proto.error_frame("bad_request", f"internal dispatch error: {exc}",
                                        tag=_tag(request)))

    def _dispatch(self, conn: _Conn, request: dict) -> None:
        op = request["op"]
        if op == "ping":
            conn.send({"type": "pong", "schema": proto.PROTOCOL_SCHEMA,
                       "server_id": self.server_id, "tag": _tag(request)})
        elif op == "stats":
            if request.get("watch"):
                interval = float(request.get("interval_s") or 2.0)
                with self._lock:
                    self._watchers[conn] = [interval, time.monotonic() + interval]
                self.metrics.inc("serve_stats_watchers")
            conn.send({**self._stats_frame(), "tag": _tag(request)})
        elif op == "submit":
            self._handle_submit(conn, request)
        elif op == "status":
            self._handle_status(conn, request["job"], tag=_tag(request))
        elif op == "wait":
            self._handle_wait(conn, request["job"], tag=_tag(request))
        elif op == "cancel":
            self._handle_cancel(conn, request["job"], tag=_tag(request))
        elif op == "shutdown":
            conn.send({"type": "shutting_down", "schema": proto.PROTOCOL_SCHEMA,
                       "server_id": self.server_id, "tag": _tag(request)})
            threading.Thread(target=self.shutdown, name="serve-shutdown",
                             daemon=True).start()
        else:  # pragma: no cover - parse_request already rejected it
            raise proto.RequestError("unknown_op", f"unhandled op {op!r}")

    # -- submit path -------------------------------------------------------

    def _chaos_for(self, algorithm: str, dataset: str) -> set[str]:
        """Serve-level chaos modes triggered for this job's cell."""
        return {
            spec.mode
            for spec in self._chaos
            if spec.mode in SERVE_CHAOS_MODES and spec.triggers(algorithm, dataset)
        }

    def _handle_submit(self, conn: _Conn, frame: dict) -> None:
        t0 = time.perf_counter()
        submit = proto.parse_submit(frame)
        chaos = self._chaos_for(submit.algorithm, submit.dataset)
        if "slow_client" in chaos:
            # A stalled/byte-dribbling client ties up its own handler
            # thread; everyone else's decision latency must not care.
            time.sleep(float(os.environ.get(SLOW_CLIENT_ENV) or 0.25))
        with self._lock:
            shutting_down = self._shutting_down
        if shutting_down:
            conn.send(proto.error_frame("shutting_down", "server is draining",
                                        tag=submit.tag))
            return
        try:
            get_algorithm(submit.algorithm)
        except KeyError:
            raise proto.RequestError(
                "bad_request", f"unknown algorithm {submit.algorithm!r}") from None
        try:
            get_spec(submit.dataset)
        except KeyError:
            raise proto.RequestError(
                "bad_request", f"unknown dataset {submit.dataset!r}") from None

        blocks = submit.blocks if submit.blocks is not None else self.default_blocks
        cost = estimate_cost(submit.algorithm, submit.dataset, blocks)
        with self._lock:
            queued_cost = self._queued_cost
        decision = self.admission.decide(
            client=submit.client or conn.peer,
            cost=cost,
            queue_depth=self.scheduler.queue_depth(),
            queued_cost=queued_cost,
            workers=self.workers,
        )
        if not decision.admitted:
            self.metrics.inc("serve_rejected")
            self.metrics.inc(f"serve_rejected_{decision.code}")
            if decision.retry_after_s:
                self.metrics.observe("serve_retry_after_s", decision.retry_after_s)
            get_tracer().info(
                "serve_reject", code=decision.code, algorithm=submit.algorithm,
                dataset=submit.dataset, retry_after_s=decision.retry_after_s,
            )
            conn.send(proto.rejected_frame(
                decision.code, decision.message, decision.retry_after_s,
                tag=submit.tag, cost=round(cost, 1),
            ))
            return

        deadline_s = submit.deadline_s if submit.deadline_s is not None \
            else self.default_deadline_s
        with self._lock:
            self._job_seq += 1
            job_id = f"{self.server_id}-{self._job_seq:06d}"
        request_doc = {
            "algorithm": submit.algorithm, "dataset": submit.dataset,
            "blocks": blocks, "priority": submit.priority,
            "deadline_s": deadline_s, "ordering": submit.ordering,
            "validate": submit.validate,
            "client": submit.client, "tag": submit.tag,
        }
        state = _JobState(
            job_id=job_id, request=request_doc, cost=cost,
            shed_level=decision.shed_level, accepted_at=time.monotonic(),
        )
        if submit.stream:
            state.stream_subs.append(conn)
        state.result_subs.append((conn, submit.tag))
        with self._lock:
            self._jobs[job_id] = state
            self._queued_cost += cost
        # Journal BEFORE answering: a client-held acceptance receipt must
        # imply a journal entry, or exactly-once is unverifiable.
        self.journal.accepted(
            job_id, request_doc, client=submit.client,
            shed_level=decision.shed_level, cost=cost,
        )
        self.metrics.inc("serve_accepted")
        self.metrics.observe("serve_decision_ms", (time.perf_counter() - t0) * 1e3)
        self.metrics.gauge("serve_shed_level", decision.shed_level)
        if decision.shed_level > 0:
            self.metrics.inc("serve_shed_jobs")
            self.metrics.gauge("serve_last_shed_level", decision.shed_level)
        if "conn_drop" in chaos:
            # Chaos: the wire dies right after acceptance was journaled.
            # The client sees EOF; the job still runs to a terminal state.
            self.metrics.inc("serve_chaos_conn_drops")
            conn.close()
        else:
            conn.send(proto.accepted_frame(
                job_id, tag=submit.tag, cost=round(cost, 1),
                shed_level=decision.shed_level,
                queue_depth=self.scheduler.queue_depth(),
                decision_ms=round((time.perf_counter() - t0) * 1e3, 3),
            ))
        self._submit_to_scheduler(state, remaining_s=deadline_s)

    def _submit_to_scheduler(self, state: _JobState, *, remaining_s: float | None) -> None:
        request = state.request
        job = CellJob(
            algorithm=request["algorithm"],
            dataset=request["dataset"],
            job_id=state.job_id,
            priority=int(request.get("priority") or 0),
            deadline=None if remaining_s is None else time.monotonic() + remaining_s,
            shed_level=state.shed_level,
            client=str(request.get("client") or ""),
            overrides={
                "blocks": request.get("blocks"),
                "ordering": request.get("ordering") or "degree",
                "validate": bool(request.get("validate")),
            },
        )
        try:
            state.handle = self.scheduler.submit(job, on_done=self._on_job_done)
        except RuntimeError:
            # Shutdown closed the scheduler between journaling this job as
            # accepted and queuing it.  The client holds an acceptance
            # receipt, so the job must still reach exactly one terminal
            # state in this process life — not wait for a reboot replay.
            self.metrics.inc("serve_shutdown_race_failures")
            self._record_terminal(state.job_id, RunRecord(
                algorithm=request["algorithm"], dataset=request["dataset"],
                device="", status="failed",
                error="ShuttingDown: server began draining before the job "
                      "could be queued; resubmit elsewhere",
                extra={"shutting_down": True},
            ))
            return
        self._update_gauges()

    # -- completion & streaming --------------------------------------------

    def _on_scheduler_event(self, name: str, job: CellJob, payload: dict) -> None:
        """Fan a scheduler lifecycle event out to the job's stream subscribers."""
        if name == "job_worker_restart":
            self.metrics.inc("serve_worker_restarts")
        elif name == "job_circuit_open":
            self.metrics.inc("serve_circuit_opens")
        event = {
            "schema": TELEMETRY_SCHEMA, "ts": time.time(), "event": "log",
            "name": name, "job": job.job_id, **payload,
        }
        with self._lock:
            state = self._jobs.get(job.job_id)
            subs = list(state.stream_subs) if state is not None else []
        for conn in subs:
            conn.send(proto.event_frame(job.job_id, event))
        self._update_gauges()

    def _on_job_done(self, handle: JobHandle) -> None:
        record = handle.record
        assert record is not None
        self._record_terminal(handle.job.job_id, record)

    def _record_terminal(self, job_id: str, record: RunRecord, *, replay: bool = False) -> None:
        rec_dict = record_to_dict(record)
        # Journal BEFORE delivering: the result a client sees must already
        # be durable, or a crash between the two loses it.
        self.journal.terminal(job_id, record.status, rec_dict)
        with self._lock:
            state = self._jobs.get(job_id)
            if state is not None:
                self._queued_cost = max(0.0, self._queued_cost - state.cost)
                state.terminal = rec_dict
                state.terminal_status = record.status
                result_subs = list(state.result_subs)
                state.result_subs.clear()
                state.stream_subs.clear()
                duration = time.monotonic() - state.accepted_at
                self._terminal_order.append((job_id, time.monotonic()))
            else:  # replay-expired job with no live state
                result_subs = []
                duration = None
            self._cache_terminal_locked(
                job_id, {"status": record.status, "record": rec_dict}
            )
            self._evict_terminals_locked()
        self.metrics.inc(f"serve_jobs_{record.status}")
        self.metrics.inc("serve_jobs_terminal")
        if duration is not None:
            self.metrics.observe("serve_job_latency_s", duration)
        if record.extra.get("deadline_expired"):
            self.metrics.inc("serve_deadline_expired")
        if duration is not None and record.status in ("ok", "degraded"):
            self.admission.observe_completion(duration)
        for conn, tag in result_subs:
            conn.send(self._terminal_frame(job_id, record.status, rec_dict, tag=tag))
        self._update_gauges()

    def _cache_terminal_locked(self, job_id: str, entry: dict | None) -> None:
        """LRU-insert one terminal lookup result (``None`` = known-absent).

        Negative entries cannot go stale: any job that later terminals in
        this process overwrites them here, and live jobs are found in
        ``_jobs`` before this cache is ever consulted.
        """
        cache = self._terminal_cache
        cache[job_id] = entry
        cache.move_to_end(job_id)
        limit = max(self.max_terminal_jobs, 64)
        while len(cache) > limit:
            cache.popitem(last=False)

    def _evict_terminals_locked(self) -> None:
        """Drop terminal job states past the TTL/count retention bounds.

        The journal (via :meth:`_journal_terminal`) keeps evicted results
        queryable, so this bounds daemon memory without losing anything.
        """
        now = time.monotonic()
        order = self._terminal_order
        while order and (
            len(order) > self.max_terminal_jobs
            or now - order[0][1] > self.terminal_ttl_s
        ):
            job_id, _ = order.popleft()
            state = self._jobs.get(job_id)
            if state is not None and state.terminal is not None:
                del self._jobs[job_id]

    def _journal_terminal(self, job_id: str) -> dict | None:
        """Terminal outcome for a job with no live state, cache-first.

        Falls back to parsing the journal file (a previous process life,
        or a state evicted past retention) and caches what it finds.
        """
        with self._lock:
            if job_id in self._terminal_cache:
                self._terminal_cache.move_to_end(job_id)
                return self._terminal_cache[job_id]
        _, terminals = self.journal.load()
        lines = terminals.get(job_id)
        entry = None
        if lines:
            entry = {"status": lines[-1].get("status", ""),
                     "record": lines[-1].get("record") or {}}
        with self._lock:
            self._cache_terminal_locked(job_id, entry)
        return entry

    def _terminal_frame(self, job_id: str, status: str, rec_dict: dict, *, tag: str = "") -> dict:
        if rec_dict.get("extra", {}).get("deadline_expired"):
            return proto.error_frame(
                "deadline_expired", rec_dict.get("error") or "deadline expired",
                job=job_id, record=rec_dict, tag=tag,
            )
        return proto.result_frame(
            job_id, rec_dict, status=status,
            shed_level=rec_dict.get("extra", {}).get("shed_level", 0), tag=tag,
        )

    # -- small ops ---------------------------------------------------------

    def _lookup(self, job_id: str) -> _JobState | None:
        with self._lock:
            return self._jobs.get(job_id)

    def _handle_status(self, conn: _Conn, job_id: str, *, tag: str) -> None:
        state = self._lookup(job_id)
        if state is None:
            # Not live — terminal from a previous process life, or evicted
            # past the in-memory retention bounds.
            entry = self._journal_terminal(job_id)
            if entry is not None:
                conn.send({"type": "status", "schema": proto.PROTOCOL_SCHEMA,
                           "job": job_id, "state": "done",
                           "status": entry.get("status"),
                           "record": entry.get("record"), "tag": tag})
                return
            raise proto.RequestError("unknown_job", f"unknown job {job_id!r}")
        handle = state.handle
        conn.send({
            "type": "status", "schema": proto.PROTOCOL_SCHEMA, "job": job_id,
            "state": handle.state if handle is not None else "queued",
            "status": state.terminal_status,
            "record": state.terminal, "tag": tag,
        })

    def _handle_wait(self, conn: _Conn, job_id: str, *, tag: str) -> None:
        state = self._lookup(job_id)
        if state is None:
            entry = self._journal_terminal(job_id)
            if entry is not None:
                conn.send(self._terminal_frame(
                    job_id, entry.get("status", ""), entry.get("record") or {}, tag=tag
                ))
                return
            raise proto.RequestError("unknown_job", f"unknown job {job_id!r}")
        with self._lock:
            if state.terminal is not None:
                terminal, status = state.terminal, state.terminal_status
            else:
                # Subscribe WITH the request tag: the terminal frame must
                # answer this wait request, not arrive untagged (clients
                # route responses by tag and would otherwise time out).
                terminal = None
                state.result_subs.append((conn, tag))
        if terminal is not None:
            conn.send(self._terminal_frame(job_id, status, terminal, tag=tag))

    def _handle_cancel(self, conn: _Conn, job_id: str, *, tag: str) -> None:
        state = self._lookup(job_id)
        if state is None or state.handle is None:
            raise proto.RequestError("unknown_job", f"unknown job {job_id!r}")
        ok = state.handle.cancel()
        if ok:
            self.metrics.inc("serve_cancelled")
        conn.send({"type": "cancelled", "schema": proto.PROTOCOL_SCHEMA,
                   "job": job_id, "ok": ok, "tag": tag})

    def _stats_frame(self) -> dict:
        sched = self.scheduler.stats()
        with self._lock:
            queued_cost = self._queued_cost
            live_jobs = len(self._jobs)
        snap = self.metrics.snapshot()
        return {
            "type": "stats", "schema": proto.PROTOCOL_SCHEMA,
            "server_id": self.server_id,
            "scheduler": sched,
            "queued_cost": round(queued_cost, 1),
            "live_jobs": live_jobs,
            "service_time_s": round(self.admission.service_time_s(), 4),
            "metrics": snap,
            # The pre-registry wire names: serve_* without the prefix.
            "counters": {
                name.removeprefix("serve_"): int(v)
                for name, v in snap["counters"].items() if name.startswith("serve_")
            },
            "gauges": {
                name.removeprefix("serve_"): v
                for name, v in snap["gauges"].items() if name.startswith("serve_")
            },
        }

    def _update_gauges(self) -> None:
        depth = self.scheduler.queue_depth()
        self.metrics.gauge("serve_queue_depth", depth)
        with self._lock:
            queued_cost = round(self._queued_cost, 1)
        self.metrics.gauge("serve_queued_cost", queued_cost)

    # -- stats push ---------------------------------------------------------

    def _push_loop(self) -> None:
        """Deliver periodic untagged stats frames to registered watchers.

        Push frames carry ``"push": True`` and no tag, so they route to the
        client's unrouted-frame stash (:meth:`ServeClient.take_unrouted`)
        instead of racing tagged request/response pairs.  Also emits a
        ``metrics_snapshot`` telemetry event every ``snapshot_interval_s``
        so a telemetry dir alone supports ``repro stats --dir``.
        """
        next_snapshot = time.monotonic() + self.snapshot_interval_s
        while not self._push_stop.wait(0.25):
            now = time.monotonic()
            with self._lock:
                due = [
                    (conn, entry) for conn, entry in self._watchers.items()
                    if now >= entry[1]
                ]
            if due:
                frame = {**self._stats_frame(), "push": True}
                for conn, entry in due:
                    entry[1] = now + entry[0]
                    if not conn.send(frame):
                        self._forget_conn(conn)
            if self.snapshot_interval_s and now >= next_snapshot:
                next_snapshot = now + self.snapshot_interval_s
                tracer = get_tracer()
                if tracer.enabled("info"):
                    tracer.event(
                        "metrics_snapshot", level="info",
                        server_id=self.server_id,
                        metrics=self.metrics.snapshot(),
                    )


def _tag(frame: dict) -> str:
    tag = frame.get("tag", "")
    return tag if isinstance(tag, str) else ""
