"""Line-delimited-JSON wire protocol for the triangle-counting service.

One frame = one JSON object on one ``\\n``-terminated line, UTF-8.  The
format is deliberately the same shape as the telemetry JSONL stream
(:mod:`repro.obs.tracer`): streaming progress frames *are* telemetry
events, wrapped in an envelope that names the job they belong to.

The robustness contract of this module: **no byte sequence a client can
send may crash the server**.  Malformed JSON, binary garbage, truncated
frames, and over-long frames all surface as typed
:class:`FrameError`/:class:`RequestError` values that the connection
handler converts into ``{"type": "error", "code": ...}`` responses.  The
frame reader is incremental and chunking-invariant — feeding it the same
bytes in different splits yields the same frames and the same errors —
which is what the hypothesis fuzz tests pin.

Client → server ops::

    {"op": "submit", "algorithm": "GroupTC", "dataset": "As-Caida",
     "blocks": 16, "priority": 0, "deadline_s": 30.0, "stream": true,
     "client": "bench-3", "tag": "my-req-1"}
    {"op": "status", "job": "job-..."}   # poll a job (works after restart)
    {"op": "wait",   "job": "job-..."}   # block until terminal, then result
    {"op": "cancel", "job": "job-..."}
    {"op": "stats"}                      # queue depth, counters, gauges
    {"op": "ping"}
    {"op": "shutdown"}                   # graceful drain + exit

Server → client frames: ``accepted``, ``rejected`` (always carries
``retry_after_s``), ``error`` (typed ``code``), ``event`` (streamed
telemetry), ``result`` (terminal record), ``status``, ``stats``,
``pong``, ``shutting_down``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "ERROR_CODES",
    "FrameError",
    "FrameMalformed",
    "FrameTooLarge",
    "FrameReader",
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_SCHEMA",
    "RequestError",
    "SubmitRequest",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "event_frame",
    "parse_request",
    "result_frame",
]

#: Bump when the wire shape changes; every server frame carries it.
#: Schema 2 dropped the submit ``engine`` field (now ignored if sent).
PROTOCOL_SCHEMA = 2

#: Hard ceiling on one frame's size.  A submit request is a few hundred
#: bytes; anything near this limit is garbage or abuse, and an unbounded
#: line buffer is a memory-exhaustion vector.
MAX_FRAME_BYTES = 64 * 1024

OPS = ("submit", "status", "wait", "cancel", "stats", "ping", "shutdown")

#: Typed error codes clients can dispatch on (the failure-semantics table
#: in the README documents what each means for the job, if any).
ERROR_CODES = (
    "bad_frame",        # not valid UTF-8 JSON, or not a JSON object
    "oversized",        # frame exceeded MAX_FRAME_BYTES (connection closes)
    "bad_request",      # structurally valid frame, invalid fields
    "unknown_op",
    "unknown_job",
    "overloaded",       # admission reject: queue watermarks (retry_after_s)
    "quota_exceeded",   # admission reject: client token bucket (retry_after_s)
    "deadline_expired",  # job missed its wall-clock deadline
    "shutting_down",    # server is draining; no new jobs
)


class FrameError(Exception):
    """A frame-level fault; ``code`` is one of :data:`ERROR_CODES`."""

    code = "bad_frame"

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class FrameTooLarge(FrameError):
    code = "oversized"


class FrameMalformed(FrameError):
    code = "bad_frame"


class RequestError(Exception):
    """A request-level fault (valid frame, invalid content)."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    """One frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":"), default=str).encode() + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one complete line into a frame dict, or raise typed errors."""
    if len(line) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameMalformed(f"undecodable frame: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameMalformed(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


class FrameReader:
    """Incremental newline-framed reader with a bounded buffer.

    Feed it byte chunks as they arrive; it yields complete lines (without
    the newline).  The buffer is bounded: the moment more than
    :data:`MAX_FRAME_BYTES` accumulate without a newline the reader raises
    :class:`FrameTooLarge` — *before* the attacker finishes sending — and
    poisons itself (a stream that overflowed once has lost framing; the
    connection must be dropped).

    The delivery contract is chunking-invariant: every in-budget frame
    that precedes the first oversized one is returned (possibly by the
    same call that detects the overflow — the error is then raised by the
    *next* call), and the error itself is always :class:`FrameTooLarge`
    no matter how the bytes were split.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self._error: FrameError | None = None

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb a chunk; return every line it completed."""
        if self._error is not None:
            raise self._error
        self._buf.extend(data)
        lines: list[bytes] = []
        while True:
            nl = self._buf.find(b"\n")
            if nl < 0:
                if len(self._buf) > self.max_frame_bytes:
                    self._error = FrameTooLarge(
                        f"unterminated frame exceeds {self.max_frame_bytes} bytes"
                    )
                break
            if nl > self.max_frame_bytes:
                self._error = FrameTooLarge(
                    f"frame of {nl} bytes exceeds {self.max_frame_bytes}"
                )
                break
            lines.append(bytes(self._buf[:nl]))
            del self._buf[: nl + 1]
        if self._error is not None and not lines:
            raise self._error
        return lines

    def raise_if_poisoned(self) -> None:
        """Surface an overflow detected while delivering preceding frames."""
        if self._error is not None:
            raise self._error

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting their newline (for tests/diagnostics)."""
        return len(self._buf)


# --------------------------------------------------------------------------
# request validation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmitRequest:
    """A validated ``submit`` op (registry checks happen server-side)."""

    algorithm: str
    dataset: str
    kind: str = "count"
    blocks: int | None = None
    priority: int = 0
    deadline_s: float | None = None
    ordering: str = "degree"
    validate: bool = False
    stream: bool = True
    client: str = ""
    tag: str = ""
    extra: dict = field(default_factory=dict)


def _require_str(obj: dict, key: str, *, default: str | None = None) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str) or (default is None and not value):
        raise RequestError("bad_request", f"field {key!r} must be a non-empty string")
    return value


def _opt_number(obj: dict, key: str, *, positive: bool = True) -> float | None:
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError("bad_request", f"field {key!r} must be a number")
    if positive and value <= 0:
        raise RequestError("bad_request", f"field {key!r} must be > 0")
    return float(value)


def parse_request(frame: dict) -> dict:
    """Validate a client frame; returns it with ``op`` guaranteed sane.

    Raises :class:`RequestError` with a typed code for anything a client
    could get wrong; the handler turns that into an ``error`` response on
    the open connection (the stream itself is still well-framed).
    """
    op = frame.get("op")
    if not isinstance(op, str) or not op:
        raise RequestError("bad_request", "missing 'op' field")
    if op not in OPS:
        raise RequestError("unknown_op", f"unknown op {op!r}; known: {OPS}")
    if op in ("status", "wait", "cancel"):
        _require_str(frame, "job")
    if op == "stats":
        watch = frame.get("watch", False)
        if not isinstance(watch, bool):
            raise RequestError("bad_request", "field 'watch' must be a boolean")
        interval = frame.get("interval_s")
        if interval is not None:
            if isinstance(interval, bool) or not isinstance(interval, (int, float)) \
                    or not interval > 0:
                raise RequestError(
                    "bad_request", "field 'interval_s' must be a positive number"
                )
    return frame


def parse_submit(frame: dict) -> SubmitRequest:
    """Validate a ``submit`` frame into a :class:`SubmitRequest`."""
    algorithm = _require_str(frame, "algorithm")
    dataset = _require_str(frame, "dataset")
    kind = frame.get("kind", "count")
    if kind not in ("count",):
        raise RequestError("bad_request", f"unsupported job kind {kind!r}")
    blocks = _opt_number(frame, "blocks")
    if blocks is not None and (blocks != int(blocks) or blocks < 1):
        raise RequestError("bad_request", "field 'blocks' must be a positive integer")
    priority = frame.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise RequestError("bad_request", "field 'priority' must be an integer")
    deadline_s = _opt_number(frame, "deadline_s")
    ordering = frame.get("ordering", "degree")
    if ordering not in ("degree", "id"):
        raise RequestError("bad_request", f"unknown ordering {ordering!r}")
    validate = frame.get("validate", False)
    if not isinstance(validate, bool):
        raise RequestError("bad_request", "field 'validate' must be a boolean")
    stream = frame.get("stream", True)
    if not isinstance(stream, bool):
        raise RequestError("bad_request", "field 'stream' must be a boolean")
    return SubmitRequest(
        algorithm=algorithm,
        dataset=dataset,
        kind=kind,
        blocks=None if blocks is None else int(blocks),
        priority=priority,
        deadline_s=deadline_s,
        ordering=ordering,
        validate=validate,
        stream=stream,
        client=str(frame.get("client", "")),
        tag=str(frame.get("tag", "")),
    )


# --------------------------------------------------------------------------
# response builders
# --------------------------------------------------------------------------


def _base(type_: str, **fields) -> dict:
    return {"type": type_, "schema": PROTOCOL_SCHEMA, **fields}


def error_frame(code: str, message: str, **fields) -> dict:
    assert code in ERROR_CODES, code
    return _base("error", code=code, message=message, **fields)


def rejected_frame(code: str, message: str, retry_after_s: float, **fields) -> dict:
    """Admission reject: always carries a machine-usable retry hint."""
    return _base(
        "rejected", code=code, message=message,
        retry_after_s=round(float(retry_after_s), 4), **fields,
    )


def accepted_frame(job_id: str, **fields) -> dict:
    return _base("accepted", job=job_id, **fields)


def event_frame(job_id: str, event: dict) -> dict:
    """Streamed progress: one telemetry-shaped event in a job envelope."""
    return _base("event", job=job_id, event=event)


def result_frame(job_id: str, record: dict, **fields) -> dict:
    return _base("result", job=job_id, record=record, **fields)
