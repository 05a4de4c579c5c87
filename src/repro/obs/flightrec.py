"""Crash flight recorder: a bounded telemetry ring dumped on failure.

Post-mortems should not depend on having had JSONL sinks enabled.  The
flight recorder keeps the last N telemetry events in a memory ring (a
:class:`RingSink` attached to the process tracer) and, when something goes
wrong — an unhandled exception, a quarantined cell, a dead worker, SIGTERM —
atomically writes a self-contained JSON dump to
``.cache/runs/<run_id>/flightrec/`` containing:

- the ring of recent events (whatever levels the ring was recording),
- the latest process-wide metrics snapshot (:mod:`repro.obs.metrics`),
- the trigger reason, exception text, argv, pid, and timestamps.

Dumps are best-effort and bounded (``max_dumps`` per recorder); a failing
dump never masks the original error.  Install once per process via
:func:`install_flight_recorder`; instrumentation sites call
:func:`maybe_dump`, which is a no-op when no recorder is installed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Any, Dict, Optional

from .metrics import get_metrics
from .tracer import _level_no, get_tracer

__all__ = [
    "FLIGHTREC_SCHEMA",
    "DEFAULT_RING_CAPACITY",
    "FlightRecorder",
    "RingSink",
    "flightrec_dir",
    "get_flight_recorder",
    "install_flight_recorder",
    "maybe_dump",
    "uninstall_flight_recorder",
]

#: Version stamp on every dump file.
FLIGHTREC_SCHEMA = 1

#: Events retained in the ring (each is a small dict; ~100 KB worst case).
DEFAULT_RING_CAPACITY = 512


def flightrec_dir(run_id: str) -> Path:
    """``<cache>/runs/<run_id>/flightrec`` (created on first dump)."""
    from ..graph.io import cache_dir  # late import: keep obs zero-dep

    return cache_dir() / "runs" / run_id / "flightrec"


class RingSink:
    """Tracer sink keeping the last ``capacity`` events in memory.

    Default level is ``info`` so the ring records ordinary lifecycle events
    when telemetry is configured; callers that want a near-free ring on an
    otherwise-quiet process pass ``level="warning"`` (the tracer's
    ``min_level`` then stays high and event construction is skipped for
    anything quieter).
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY,
                 level: int | str = "info"):
        self.level = _level_no(level)
        self.events: "deque[dict]" = deque(maxlen=int(capacity))

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class FlightRecorder:
    """Owns a :class:`RingSink` and writes atomic crash dumps."""

    def __init__(
        self,
        run_id: str,
        *,
        directory: Optional[Path] = None,
        capacity: int = DEFAULT_RING_CAPACITY,
        ring_level: int | str = "info",
        max_dumps: int = 32,
    ) -> None:
        self.run_id = run_id
        self.directory = Path(directory) if directory is not None else None
        self.ring = RingSink(capacity=capacity, level=ring_level)
        self.max_dumps = int(max_dumps)
        self._lock = threading.Lock()
        self._dumps = 0
        self._attached_to = None
        self._prev_excepthook = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> None:
        """Add the ring to the current process tracer."""
        tracer = get_tracer()
        tracer.add_sink(self.ring)
        self._attached_to = tracer

    def detach(self) -> None:
        if self._attached_to is not None:
            try:
                self._attached_to.remove_sink(self.ring)
            except Exception:  # pragma: no cover - best effort
                pass
            self._attached_to = None

    def install_excepthook(self) -> None:
        """Dump on unhandled exceptions, then defer to the previous hook."""
        if self._prev_excepthook is not None:
            return
        self._prev_excepthook = sys.excepthook

        def _hook(exc_type, exc, tb):
            if not issubclass(exc_type, KeyboardInterrupt):
                text = "".join(traceback.format_exception(exc_type, exc, tb))
                self.dump("unhandled_exception", error=text)
            (self._prev_excepthook or sys.__excepthook__)(exc_type, exc, tb)

        sys.excepthook = _hook

    def uninstall_excepthook(self) -> None:
        if self._prev_excepthook is not None:
            sys.excepthook = self._prev_excepthook
            self._prev_excepthook = None

    # -- dumping -----------------------------------------------------------

    def dump(self, reason: str, *, error: Optional[str] = None,
             extra: Optional[Dict[str, Any]] = None) -> Optional[Path]:
        """Atomically write one dump file; returns its path (None on failure).

        Never raises: the recorder must not turn a crash into a different
        crash.  Bounded at ``max_dumps`` per recorder so a crash-looping
        supervisor cannot fill the disk.
        """
        try:
            with self._lock:
                if self._dumps >= self.max_dumps:
                    return None
                self._dumps += 1
                seq = self._dumps
            directory = self.directory or flightrec_dir(self.run_id)
            directory.mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
            safe_reason = "".join(
                ch if (ch.isalnum() or ch in "-_") else "_" for ch in reason
            ) or "dump"
            payload = {
                "schema": FLIGHTREC_SCHEMA,
                "reason": reason,
                "ts": time.time(),
                "pid": os.getpid(),
                "run_id": self.run_id,
                "argv": list(sys.argv),
                "error": error,
                "events": list(self.ring.events),
                "metrics": get_metrics().snapshot(),
            }
            if extra:
                payload.update(extra)
            path = directory / f"{stamp}-{safe_reason}-{os.getpid()}-{seq}.json"
            fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, default=str)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return path
        except Exception:  # pragma: no cover - never mask the original error
            return None


# --------------------------------------------------------------------------
# process-wide recorder
# --------------------------------------------------------------------------

_RECORDER: Optional[FlightRecorder] = None


def get_flight_recorder() -> Optional[FlightRecorder]:
    return _RECORDER


def install_flight_recorder(
    run_id: str,
    *,
    directory: Optional[Path] = None,
    capacity: int = DEFAULT_RING_CAPACITY,
    ring_level: int | str = "info",
    max_dumps: int = 32,
    excepthook: bool = True,
) -> FlightRecorder:
    """Install (replacing any prior) the process-wide flight recorder.

    Attaches the ring to the current tracer and, with ``excepthook``, dumps
    on unhandled exceptions.  SIGTERM dumping is left to callers that own
    signal handling (the serve CLI dumps inside its own handler before
    graceful shutdown).
    """
    global _RECORDER
    uninstall_flight_recorder()
    rec = FlightRecorder(run_id, directory=directory, capacity=capacity,
                         ring_level=ring_level, max_dumps=max_dumps)
    rec.attach()
    if excepthook:
        rec.install_excepthook()
    _RECORDER = rec
    return rec


def uninstall_flight_recorder() -> None:
    global _RECORDER
    if _RECORDER is not None:
        _RECORDER.uninstall_excepthook()
        _RECORDER.detach()
        _RECORDER = None


def maybe_dump(reason: str, *, error: Optional[str] = None,
               extra: Optional[Dict[str, Any]] = None) -> Optional[Path]:
    """Dump via the installed recorder; no-op (None) when none installed."""
    if _RECORDER is None:
        return None
    return _RECORDER.dump(reason, error=error, extra=extra)
