"""Observability: structured tracing, source-line attribution, profiling.

Import surface is deliberately light — the simulator core imports
:mod:`repro.obs.tracer` and :mod:`repro.obs.attribution` on its hot path,
so this package must not pull in report rendering or timeline export at
import time (the ``profile`` CLI imports those lazily).
"""

from .counters import CounterSet
from .attribution import (
    LineProfileCollector,
    active_collector,
    capturing_launches,
    collecting,
    innermost_location,
)
from .flightrec import (
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    RingSink,
    get_flight_recorder,
    install_flight_recorder,
    maybe_dump,
    uninstall_flight_recorder,
)
from .metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    configure_metrics,
    get_metrics,
    hist_quantile,
    hist_summary,
    merge_snapshots,
    set_metrics,
    to_prometheus,
)
from .tracer import (
    LEVELS,
    LOG_ENV,
    TELEMETRY_SCHEMA,
    BufferSink,
    JsonlSink,
    StderrSink,
    Tracer,
    absorb_forwarded,
    configure,
    get_tracer,
    run_forwarded,
    set_tracer,
    telemetry_path,
)

__all__ = [
    "BufferSink",
    "CounterSet",
    "FLIGHTREC_SCHEMA",
    "FlightRecorder",
    "JsonlSink",
    "LEVELS",
    "LOG_ENV",
    "LineProfileCollector",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "RingSink",
    "StderrSink",
    "TELEMETRY_SCHEMA",
    "Tracer",
    "absorb_forwarded",
    "active_collector",
    "capturing_launches",
    "collecting",
    "configure",
    "configure_metrics",
    "get_flight_recorder",
    "get_metrics",
    "get_tracer",
    "hist_quantile",
    "hist_summary",
    "innermost_location",
    "install_flight_recorder",
    "maybe_dump",
    "merge_snapshots",
    "run_forwarded",
    "set_metrics",
    "set_tracer",
    "telemetry_path",
    "to_prometheus",
    "uninstall_flight_recorder",
]
