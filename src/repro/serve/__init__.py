"""Triangle-counting-as-a-service: the ``repro serve`` daemon.

* :mod:`~repro.serve.protocol` — line-delimited-JSON wire protocol:
  incremental frame reader, request validation, typed error codes.
* :mod:`~repro.serve.admission` — admission control: predicted-cost
  estimates, queue watermarks with a precision-shedding ladder,
  per-client token-bucket quotas, retry-after hints.
* :mod:`~repro.serve.journal` — crash-safe accepted/terminal job log
  under ``.cache/serve/<server_id>/`` (exactly-once restart replay).
* :mod:`~repro.serve.server` — the threaded daemon multiplexing client
  connections onto one :class:`repro.framework.scheduler.JobScheduler`.
* :mod:`~repro.serve.client` — blocking client library used by the load
  generator (``benchmarks/loadgen.py``), the tests, and external tooling.
"""

from .admission import AdmissionController, AdmissionPolicy, Decision, estimate_cost
from .client import JobReceipt, ServeClient, ServeConnectionClosed, ServeTimeout, wait_until_ready
from .journal import JobJournal, serve_root
from .protocol import (
    FrameError,
    FrameReader,
    MAX_FRAME_BYTES,
    PROTOCOL_SCHEMA,
    RequestError,
    decode_frame,
    encode_frame,
    parse_request,
)
from .server import TriangleServer

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "Decision",
    "FrameError",
    "FrameReader",
    "JobJournal",
    "JobReceipt",
    "MAX_FRAME_BYTES",
    "PROTOCOL_SCHEMA",
    "RequestError",
    "ServeClient",
    "ServeConnectionClosed",
    "ServeTimeout",
    "TriangleServer",
    "decode_frame",
    "encode_frame",
    "estimate_cost",
    "parse_request",
    "serve_root",
    "wait_until_ready",
]
