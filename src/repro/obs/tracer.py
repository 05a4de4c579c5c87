"""Zero-dependency structured tracer: nested spans, levels, JSONL telemetry.

The observability layer's core primitive is the *span* — a named, timed,
attribute-carrying region of work that nests strictly within its parent
(``launch`` inside ``cell`` inside ``matrix``).  Every span emits two
schema-versioned events (``span_begin`` / ``span_end``); point-in-time
facts (a trace-cache hit, a retry, a degradation) emit single ``log``
events.  Events fan out to *sinks*:

* :class:`JsonlSink` — one JSON object per line, appended to
  ``.cache/runs/<run_id>/telemetry.jsonl`` (the resilience run-dir
  layout), machine-readable and diffable;
* :class:`StderrSink` — a human ``[HH:MM:SS] LEVEL message key=value``
  format for interactive progress;
* :class:`BufferSink` — an in-memory list, used by worker processes to
  forward their events to the parent alongside each result
  (see :func:`run_forwarded` / :func:`absorb_forwarded`).

The global tracer starts disabled; :func:`configure` (driven by
``REPRO_LOG`` or the CLI's ``--log-level``/``--quiet``/``--verbose``)
turns it on.  Disabled, every instrumentation point costs one attribute
load and an integer compare — observability must be near-free.

Span counter deltas: pass ``metrics=`` (anything with a
``snapshot()``/``delta()`` pair, i.e. :class:`repro.gpu.metrics.
ProfileMetrics`) and the span end event carries the counters accumulated
while the span was open, so per-span deltas sum to launch totals by
construction.
"""

from __future__ import annotations

import itertools
import json
import json.encoder as _json_encoder
import os
import sys
import threading
import time
import weakref

from . import metrics as _metrics

__all__ = [
    "BufferSink",
    "JsonlSink",
    "LEVELS",
    "LOG_ENV",
    "NULL_SPAN",
    "Span",
    "StderrSink",
    "TELEMETRY_SCHEMA",
    "Tracer",
    "absorb_forwarded",
    "configure",
    "env_level",
    "get_tracer",
    "run_forwarded",
    "set_tracer",
    "telemetry_path",
]

#: Bump when the shape of emitted events changes (consumers key on this).
TELEMETRY_SCHEMA = 1

#: Environment switch for the default log level (worker processes inherit
#: it, which is how telemetry survives the process-pool boundary).
LOG_ENV = "REPRO_LOG"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40, "off": 100}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}

#: Compact event encoder, built once.  ``json.dumps`` builds a fresh
#: ``JSONEncoder`` per call and ``JSONEncoder.encode`` a fresh C encoder;
#: both are measurable on the emit path.  Events are trees, so the C
#: encoder runs without circular-reference markers.
if _json_encoder.c_make_encoder is not None:
    _C_ENCODE = _json_encoder.c_make_encoder(
        None, str, _json_encoder.encode_basestring_ascii, None, ":", ",",
        False, False, True,
    )

    def _encode(event: dict) -> str:
        return "".join(_C_ENCODE(event, 0))
else:  # pragma: no cover - interpreters without the _json accelerator
    _encode = json.JSONEncoder(separators=(",", ":"), default=str).encode

#: This process's pid, refreshed in forked children: every event is
#: stamped with it and every sink checks it, and ``os.getpid`` is a syscall.
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


os.register_at_fork(after_in_child=_refresh_pid)


def _level_no(level: int | str) -> int:
    if isinstance(level, int):
        return level
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(f"unknown log level {level!r}; known: {sorted(LEVELS)}") from None


def env_level(default: str = "off") -> str:
    """Level name requested by :data:`LOG_ENV` (``default`` when unset)."""
    raw = os.environ.get(LOG_ENV, "").strip().lower()
    return raw if raw in LEVELS else default


def telemetry_path(run_id: str):
    """``<cache>/runs/<run_id>/telemetry.jsonl`` (resilience run layout)."""
    from ..graph.io import cache_dir  # late import: keep the tracer zero-dep

    path = cache_dir() / "runs" / run_id
    path.mkdir(parents=True, exist_ok=True)
    return path / "telemetry.jsonl"


# --------------------------------------------------------------------------
# sinks
# --------------------------------------------------------------------------


def _write_lines(lock, fh, pending: list, pid: int) -> None:
    """Encode the ``pending`` events, append them in one write, empty the list.

    Only the owning process writes: a forked child that inherited the
    batch (and maybe a held lock) leaves both alone.
    """
    if _PID != pid:
        return
    with lock:
        try:
            if pending:
                fh.write("\n".join(map(_encode, pending)) + "\n")
                fh.flush()
        except (OSError, ValueError):  # pragma: no cover - closed/best effort
            pass
        pending.clear()


class JsonlSink:
    """Append events as JSON lines to a file.

    Only the process that opened the file writes to it: forked workers
    inherit the handle, and interleaved buffered appends from several
    processes would tear lines, so events from other pids are dropped here
    and travel through :func:`run_forwarded` instead.

    Events are held as dicts and encoded a batch at a time: encoding 64
    events in one pass keeps the encoder hot and costs about half of
    encoding each on its own.  An emitted event must therefore not be
    mutated afterwards.
    """

    #: Write every N events rather than per line: telemetry is diagnostic,
    #: not a journal, and a write per event dominates short instrumented
    #: runs.  Warnings and errors are written immediately.
    FLUSH_EVERY = 64

    def __init__(self, path, level: int | str = "debug"):
        self.path = str(path)
        self.level = _level_no(level)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._pending: list[dict] = []
        # Writes the tail when the sink is dropped or the interpreter exits
        # without close(): short CLI runs emit fewer than FLUSH_EVERY events.
        self._finalizer = weakref.finalize(
            self, _write_lines, self._lock, self._fh, self._pending, self._pid
        )

    def emit(self, event: dict) -> None:
        if _PID != self._pid:
            return
        with self._lock:
            self._pending.append(event)
            batched = len(self._pending)
        if batched >= self.FLUSH_EVERY or event.get("level", 0) >= LEVELS["warning"]:
            self.flush()

    def flush(self) -> None:
        _write_lines(self._lock, self._fh, self._pending, self._pid)

    def close(self) -> None:
        self._finalizer()
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - best effort
            pass


class StderrSink:
    """Human-readable one-line format on stderr.

    Like :class:`JsonlSink`, only the owning process prints: forked worker
    events reach the console once, via the parent's re-emission of the
    forwarded buffer, never twice.
    """

    #: span_begin noise is suppressed below this level — humans want the
    #: end line (with duration), machines get both from the JSONL sink.
    def __init__(self, level: int | str = "warning", stream=None):
        self.level = _level_no(level)
        self.stream = stream
        self._pid = os.getpid()

    def emit(self, event: dict) -> None:
        if _PID != self._pid and not event.get("forwarded"):
            return
        stream = self.stream or sys.stderr
        kind = event.get("event")
        if kind == "span_begin":
            return  # the end line carries the same name plus the duration
        ts = time.strftime("%H:%M:%S", time.localtime(event.get("ts", time.time())))
        level = _LEVEL_NAMES.get(event.get("level", 20), "info")
        if kind == "span_end":
            head = f"{event.get('name')} done in {event.get('dur_s', 0.0) * 1e3:.1f} ms"
        else:
            head = str(event.get("msg", event.get("name", "")))
        skip = {"schema", "ts", "level", "event", "msg", "name", "span", "parent",
                "depth", "pid", "tid", "dur_s", "counters"}
        tail = " ".join(f"{k}={v}" for k, v in event.items() if k not in skip)
        print(f"[{ts}] {level:<7} {head}" + (f"  {tail}" if tail else ""),
              file=stream, flush=True)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class BufferSink:
    """Collect events in memory (worker forwarding, tests, Chrome export)."""

    def __init__(self, level: int | str = "debug"):
        self.level = _level_no(level)
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------


class Span:
    """One open span; used as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "level", "attrs", "metrics", "span_id",
                 "parent_id", "depth", "_t0", "_snapshot", "counters")

    def __init__(self, tracer: "Tracer", name: str, level: int, attrs: dict, metrics):
        self.tracer = tracer
        self.name = name
        self.level = level
        self.attrs = attrs
        self.metrics = metrics
        self.counters: dict | None = None
        self.span_id = ""
        self.parent_id = ""
        self.depth = 0
        self._t0 = 0.0
        self._snapshot = None

    def set(self, **attrs) -> None:
        """Attach attributes after entry (they ride on the end event)."""
        self.attrs.update(attrs)

    def set_counters(self, counters: dict) -> None:
        """Explicit counter deltas (overrides the ``metrics=`` snapshot)."""
        self.counters = counters

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack()
        self.parent_id = stack[-1] if stack else ""
        self.depth = len(stack)
        self.span_id = f"{_PID:x}.{next(tracer._seq):x}"
        stack.append(self.span_id)
        self._t0 = time.perf_counter()
        if self.metrics is not None:
            self._snapshot = self.metrics.snapshot()
        tracer._emit(self.level, {
            "event": "span_begin", "name": self.name, "span": self.span_id,
            "parent": self.parent_id, "depth": self.depth, **self.attrs,
        })
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = time.perf_counter() - self._t0
        stack = self.tracer._stack()
        # Exception-safe un-nesting even if inner spans leaked: pop back to
        # (and including) this span's id.
        while stack and stack.pop() != self.span_id:  # pragma: no cover - leak guard
            pass
        event = {
            "event": "span_end", "name": self.name, "span": self.span_id,
            "parent": self.parent_id, "depth": self.depth,
            "dur_s": round(dur, 9), **self.attrs,
        }
        counters = self.counters
        if counters is None and self._snapshot is not None:
            counters = self.metrics.delta(self._snapshot)
        if counters:
            event["counters"] = {k: v for k, v in counters.items() if v}
        if exc is not None:
            event["error"] = f"{exc_type.__name__}: {exc}"
        self.tracer._emit(max(self.level, LEVELS["error"] if exc else 0), event)


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, **attrs) -> None:
        pass

    def set_counters(self, counters: dict) -> None:
        pass


NULL_SPAN = _NullSpan()


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------


class Tracer:
    """Dispatch events to sinks; tracks per-thread span nesting."""

    def __init__(self, sinks=()):
        self.sinks = list(sinks)
        self.min_level = min((s.level for s in self.sinks), default=LEVELS["off"])
        self._seq = itertools.count(1)
        self._local = threading.local()

    # -- plumbing ----------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enabled(self, level: int | str = "info") -> bool:
        return _level_no(level) >= self.min_level

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)
        self.min_level = min(self.min_level, sink.level)

    def remove_sink(self, sink) -> None:
        self.sinks = [s for s in self.sinks if s is not sink]
        self.min_level = min((s.level for s in self.sinks), default=LEVELS["off"])

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def _emit(self, level: int, payload: dict) -> None:
        event = {"schema": TELEMETRY_SCHEMA, "ts": time.time(), "level": level,
                 "pid": _PID, "tid": threading.get_ident(), **payload}
        for sink in self.sinks:
            if level >= sink.level:
                sink.emit(event)

    def emit_raw(self, event: dict) -> None:
        """Re-emit an already-built event (forwarded from a worker)."""
        for sink in self.sinks:
            if event.get("level", LEVELS["info"]) >= sink.level:
                sink.emit(event)

    # -- public API --------------------------------------------------------

    def span(self, name: str, *, level: int | str = "info", metrics=None, **attrs):
        lvl = _level_no(level)
        if lvl < self.min_level:
            return NULL_SPAN
        return Span(self, name, lvl, attrs, metrics)

    def event(self, name: str, *, level: int | str = "info", **fields) -> None:
        lvl = _level_no(level)
        if lvl >= self.min_level:
            self._emit(lvl, {"event": "log", "name": name,
                             "span": (self._stack() or [""])[-1], **fields})

    def debug(self, msg: str, **fields) -> None:
        self.event("log", level="debug", msg=msg, **fields)

    def info(self, msg: str, **fields) -> None:
        self.event("log", level="info", msg=msg, **fields)

    def warning(self, msg: str, **fields) -> None:
        self.event("log", level="warning", msg=msg, **fields)

    def error(self, msg: str, **fields) -> None:
        self.event("log", level="error", msg=msg, **fields)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled until :func:`configure`)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests isolate with this)."""
    global _TRACER
    old = _TRACER
    _TRACER = tracer
    return old


def configure(
    *,
    level: str | None = None,
    run_id: str | None = None,
    jsonl: str | None = None,
    stderr: bool = True,
    propagate_env: bool = True,
) -> Tracer:
    """Build and install the process tracer from CLI/env configuration.

    ``level`` defaults to :data:`LOG_ENV` (or ``off``).  A ``run_id``
    attaches a :class:`JsonlSink` under the run directory; ``jsonl`` names
    an explicit file instead.  ``propagate_env`` exports the level so
    worker processes (fork *and* spawn) buffer-and-forward their events.
    """
    name = level if level is not None else env_level()
    if name not in LEVELS:
        raise ValueError(f"unknown log level {name!r}; known: {sorted(LEVELS)}")
    if propagate_env:
        os.environ[LOG_ENV] = name
    sinks: list = []
    if name != "off":
        if stderr:
            sinks.append(StderrSink(level=max(LEVELS[name], LEVELS["warning"])
                                    if name not in ("debug",) else LEVELS[name]))
        path = jsonl if jsonl is not None else (telemetry_path(run_id) if run_id else None)
        if path is not None:
            sinks.append(JsonlSink(path, level=name))
    tracer = Tracer(sinks)
    set_tracer(tracer)
    return tracer


# --------------------------------------------------------------------------
# worker-event forwarding
# --------------------------------------------------------------------------


def run_forwarded(fn, *args, **kwargs) -> tuple:
    """Child side of a process boundary: call ``fn`` and capture telemetry.

    Returns ``(result, events, metrics_delta)``: the events this process
    emitted during the call (empty when telemetry is off: env level ``off``
    and no active sinks) and a mergeable delta of the metrics registry
    (None when nothing changed).  A pool worker serves many calls, so the
    delta covers this call only.  The parent folds the pair with
    :func:`absorb_forwarded`.
    """
    baseline = _metrics.capture_baseline()
    tracer = get_tracer()
    level = env_level()
    sink = None
    if level != "off" or tracer.sinks:
        sink = BufferSink(level="debug" if level == "off" else level)
        tracer.add_sink(sink)
    try:
        result = fn(*args, **kwargs)
    finally:
        if sink is not None:
            tracer.remove_sink(sink)
    return result, sink.events if sink is not None else [], _metrics.delta_since(baseline)


def absorb_forwarded(events: list[dict], metrics_delta: dict | None) -> None:
    """Parent side of a process boundary: fold a worker's telemetry once.

    Events re-emit through the local sinks marked ``forwarded``; events
    stamped with this process's own pid already reached them when they
    happened and are skipped.  The metrics delta merges unless it, too,
    came from this process (:func:`repro.obs.metrics.absorb_delta`).
    """
    _metrics.absorb_delta(metrics_delta)
    if events:
        tracer = get_tracer()
        for event in events:
            if event.get("pid") == _PID:
                continue
            event.setdefault("forwarded", True)
            tracer.emit_raw(event)
