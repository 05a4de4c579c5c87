"""One-call profiling session: run a cell with every probe armed.

:func:`profile_run` is what the ``repro profile`` CLI (and tests) use: it
scopes a :class:`~repro.obs.attribution.LineProfileCollector`, a launch
capture (for the Chrome timeline), and an in-memory telemetry buffer over
a single :func:`~repro.framework.runner.run_one` cell, and hands back
everything the report/timeline renderers need.  Counters and goldens are
unaffected: attribution rides in launch metadata that never reaches the
:class:`~repro.framework.runner.RunRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attribution import LineProfileCollector, capturing_launches, collecting
from .tracer import BufferSink, get_tracer

__all__ = ["ProfileSession", "profile_run"]


@dataclass
class ProfileSession:
    """Everything one profiled cell produced."""

    record: object  # RunRecord
    collector: LineProfileCollector
    launches: list = field(default_factory=list)
    events: list[dict] = field(default_factory=list)


def profile_run(
    algorithm,
    dataset: str,
    *,
    max_blocks_simulated: int | None = None,
    ordering: str = "degree",
    device=None,
    cost_model=None,
) -> ProfileSession:
    """Run one cell under the profiler and return the full session.

    The telemetry buffer records at debug level regardless of the global
    log level — a profile run *is* the request for detail — while the
    configured sinks keep their own thresholds.
    """
    from ..framework.runner import DEFAULT_MAX_BLOCKS, run_one

    tracer = get_tracer()
    buf = BufferSink(level="debug")
    tracer.add_sink(buf)
    try:
        with collecting() as collector, capturing_launches() as capture:
            record = run_one(
                algorithm,
                dataset,
                ordering=ordering,
                max_blocks_simulated=(
                    DEFAULT_MAX_BLOCKS if max_blocks_simulated is None else max_blocks_simulated
                ),
                device=device,
                cost_model=cost_model,
            )
    finally:
        tracer.remove_sink(buf)
    return ProfileSession(
        record=record,
        collector=collector,
        launches=capture.launches,
        events=buf.events,
    )
