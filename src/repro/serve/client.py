"""Blocking client for the ``repro serve`` daemon.

One :class:`ServeClient` owns one connection plus a background reader
thread that demultiplexes incoming frames:

* frames carrying the ``tag`` of an outstanding request answer that
  request (submit/status/wait/cancel/stats/ping/shutdown);
* ``event`` frames append to the matching :class:`JobReceipt`;
* ``result`` frames (and terminal ``error`` frames such as
  ``deadline_expired``) complete the matching receipt.

A dropped connection (the server's ``conn_drop`` chaos mode, a crash, or
backpressure disconnect) surfaces as :class:`ServeConnectionClosed` on
every outstanding request and receipt — never as a hang.  The receipt a
client holds after ``accepted`` is durable server-side: a fresh client
can always recover the outcome via ``status``/``wait`` on the job id,
even across a server restart.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from collections import deque

from . import protocol as proto

__all__ = ["JobReceipt", "ServeClient", "ServeConnectionClosed", "ServeTimeout"]

#: Bound on stashed unrouted frames (server pushes, unknown types).  A
#: client that never drains the stash must not grow without limit; the
#: newest frames win because pushes supersede older ones.
UNROUTED_MAX = 256


class ServeConnectionClosed(ConnectionError):
    """The server closed the connection with this exchange outstanding."""


class ServeTimeout(TimeoutError):
    """No response within the client-side timeout."""


_CLOSED = object()  # sentinel pushed to waiters when the reader dies


class JobReceipt:
    """Client-side view of one submit: the response, events, terminal."""

    def __init__(self, response: dict) -> None:
        self.response = response
        self.accepted = response.get("type") == "accepted"
        self.job_id: str | None = response.get("job")
        self.reject_code: str = response.get("code", "")
        self.retry_after_s: float | None = response.get("retry_after_s")
        self.shed_level: int = int(response.get("shed_level") or 0)
        self.decision_ms: float | None = response.get("decision_ms")
        self.events: list[dict] = []
        self.terminal: dict | None = None
        self._done = threading.Event()
        self._conn_lost = False
        if not self.accepted:
            self._done.set()

    def result(self, timeout: float | None = None) -> dict:
        """Block for the terminal frame (``result`` or terminal ``error``)."""
        if not self.accepted:
            raise RuntimeError(f"job was not accepted: {self.response}")
        if not self._done.wait(timeout):
            raise ServeTimeout(f"no result for {self.job_id} after {timeout}s")
        if self.terminal is None:
            raise ServeConnectionClosed(
                f"connection lost before result for {self.job_id}"
            )
        return self.terminal


class ServeClient:
    """Thread-safe blocking client over one server connection."""

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        client_id: str = "",
        timeout: float = 60.0,
        connect_timeout: float = 5.0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        self.client_id = client_id
        self.timeout = timeout
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(connect_timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection((host, port), timeout=connect_timeout)
            # small request/reply frames: no Nagle wait for a delayed ACK
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        self._lock = threading.Lock()          # guards writes + registries
        self._tags = itertools.count(1)
        self._waiters: dict[str, queue.Queue] = {}
        self._receipts: dict[str, JobReceipt] = {}
        #: job frames that raced ahead of their receipt registration (the
        #: server may stream events before submit() returns to the caller).
        self._orphans: dict[str, list[dict]] = {}
        #: bounded stash of frames matching no waiter/receipt — server
        #: pushes (periodic stats) and unknown frame types land here
        #: instead of being silently dropped; drain via take_unrouted().
        self._unrouted: deque[dict] = deque(maxlen=UNROUTED_MAX)
        self.closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="serve-client-reader", daemon=True
        )
        self._reader.start()

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _send(self, frame: dict) -> None:
        data = proto.encode_frame(frame)
        with self._lock:
            if self.closed:
                raise ServeConnectionClosed("client is closed")
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise ServeConnectionClosed(f"send failed: {exc}") from None

    def _read_loop(self) -> None:
        reader = proto.FrameReader()
        try:
            while True:
                data = self._sock.recv(65536)
                if not data:
                    break
                for line in reader.feed(data):
                    try:
                        self._route(proto.decode_frame(line))
                    except proto.FrameError:
                        return self._reader_died()
        except (OSError, proto.FrameError):
            pass
        self._reader_died()

    def _reader_died(self) -> None:
        """Fail every outstanding exchange instead of letting it hang."""
        with self._lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
            receipts = [r for r in self._receipts.values() if not r._done.is_set()]
        for w in waiters:
            w.put(_CLOSED)
        for r in receipts:
            r._conn_lost = True
            r._done.set()
        self.close()

    def _route(self, frame: dict) -> None:
        tag = frame.get("tag")
        job = frame.get("job")
        ftype = frame.get("type")
        with self._lock:
            waiter = self._waiters.pop(tag, None) if tag else None
            receipt = self._receipts.get(job) if job else None
            if (waiter is None and receipt is None and job
                    and ftype in ("event", "result", "error")):
                self._orphans.setdefault(job, []).append(frame)
                return
            if waiter is None and receipt is None:
                # Server pushes (periodic stats) and unknown frame types:
                # stash rather than drop, so callers can observe them.
                self._unrouted.append(frame)
                return
        if waiter is not None:
            waiter.put(frame)
            return
        self._deliver(receipt, frame)

    @staticmethod
    def _deliver(receipt: JobReceipt, frame: dict) -> None:
        ftype = frame.get("type")
        if ftype == "event":
            receipt.events.append(frame.get("event") or {})
        elif ftype in ("result", "error"):
            receipt.terminal = frame
            receipt._done.set()

    def _request(self, frame: dict) -> dict:
        tag = f"t{next(self._tags)}"
        frame = {**frame, "tag": tag}
        waiter: queue.Queue = queue.Queue(maxsize=1)
        with self._lock:
            self._waiters[tag] = waiter
        try:
            self._send(frame)
            try:
                response = waiter.get(timeout=self.timeout)
            except queue.Empty:
                raise ServeTimeout(
                    f"no response to {frame.get('op')!r} within {self.timeout}s"
                ) from None
        finally:
            with self._lock:
                self._waiters.pop(tag, None)
        if response is _CLOSED:
            raise ServeConnectionClosed(
                f"connection closed awaiting {frame.get('op')!r} response"
            )
        return response

    # -- ops ---------------------------------------------------------------

    def submit(
        self,
        algorithm: str,
        dataset: str,
        *,
        blocks: int | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
        ordering: str | None = None,
        validate: bool = False,
        stream: bool = True,
    ) -> JobReceipt:
        """Submit one job; the receipt says accepted/rejected and collects
        events and the terminal result."""
        frame: dict = {
            "op": "submit", "algorithm": algorithm, "dataset": dataset,
            "priority": priority, "validate": validate, "stream": stream,
            "client": self.client_id,
        }
        if blocks is not None:
            frame["blocks"] = blocks
        if deadline_s is not None:
            frame["deadline_s"] = deadline_s
        if ordering is not None:
            frame["ordering"] = ordering
        response = self._request(frame)
        receipt = JobReceipt(response)
        if receipt.accepted and receipt.job_id:
            with self._lock:
                self._receipts[receipt.job_id] = receipt
                raced = self._orphans.pop(receipt.job_id, [])
            for stashed in raced:  # frames that beat the registration
                self._deliver(receipt, stashed)
        return receipt

    def status(self, job_id: str) -> dict:
        return self._request({"op": "status", "job": job_id})

    def wait(self, job_id: str) -> dict:
        """Block until the job is terminal; returns the terminal frame."""
        return self._request({"op": "wait", "job": job_id})

    def cancel(self, job_id: str) -> dict:
        return self._request({"op": "cancel", "job": job_id})

    def stats(self) -> dict:
        return self._request({"op": "stats"})

    def stats_watch(self, interval_s: float = 2.0) -> dict:
        """Subscribe to periodic stats pushes; returns the initial frame.

        Subsequent frames arrive untagged with ``"push": True`` and are
        retrieved via :meth:`take_unrouted`.
        """
        return self._request({"op": "stats", "watch": True,
                              "interval_s": interval_s})

    def take_unrouted(self, ftype: str | None = None) -> list[dict]:
        """Drain (and return) stashed frames that matched no exchange.

        ``ftype`` filters by frame ``type`` (e.g. ``"stats"``), leaving
        non-matching frames stashed.
        """
        with self._lock:
            if ftype is None:
                frames = list(self._unrouted)
                self._unrouted.clear()
                return frames
            frames = [f for f in self._unrouted if f.get("type") == ftype]
            kept = [f for f in self._unrouted if f.get("type") != ftype]
            self._unrouted.clear()
            self._unrouted.extend(kept)
            return frames

    def ping(self) -> dict:
        return self._request({"op": "ping"})

    def shutdown(self) -> dict:
        """Ask the server to drain and stop (response may race the close)."""
        try:
            return self._request({"op": "shutdown"})
        except ServeConnectionClosed:
            return {"type": "shutting_down"}


def wait_until_ready(
    *,
    socket_path: str | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
    timeout: float = 10.0,
) -> None:
    """Poll until a server answers ``ping`` (for tests and CI boot)."""
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(socket_path=socket_path, host=host, port=port,
                             timeout=2.0) as client:
                client.ping()
                return
        except (OSError, ServeConnectionClosed, ServeTimeout) as exc:
            last = exc
            time.sleep(0.05)
    raise TimeoutError(f"server not ready after {timeout}s: {last}")
