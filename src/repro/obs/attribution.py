"""Source-line attribution: nvprof's "source-level analysis" for the simulator.

Thread programs are Python generators, so at the moment a warp instruction
issues, every participating lane's generator is *suspended at the yield
that produced the event* — the frame already knows the file and line.
:func:`innermost_location` reads it (walking the ``yield from`` delegation
chain, so a kernel that delegates into :mod:`repro.gpu.coop` helpers is
attributed to the helper's line, exactly like nvprof attributes to the
inlined PTX source line).

Locations are interned per launch in a :class:`LocationTable` (id ``0`` is
the sentinel "no location") and travel with the recorded trace, so warm
trace-cache hits replay attribution without re-running a single generator.
A file inside the package is named relative to the directory holding
``repro`` (:func:`package_path`, e.g. ``repro/algorithms/polak.py``), so a
trace store attributes the same lines from any checkout that holds it;
renderers resolve the name back with :func:`source_path`.
Aggregation lands in a :class:`LineProfileCollector` — per (file, line):
``global_load_requests``, ``global_load_transactions`` (32 B sectors),
``warp_steps``, and ``lane_loss`` (the inactive-lane steps divergence
costs) — scaled by the launch's block-sampling factor so per-line sums
equal the launch totals in :class:`~repro.gpu.metrics.ProfileMetrics`
(the conservation invariant the tests assert).

This module is imported by the simulator core (``gpu/warp.py``,
``gpu/engine.py``) and therefore must not import anything from
``repro.gpu``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "LINE_FIELDS",
    "LaunchProfile",
    "LineProfileCollector",
    "LocationTable",
    "NO_LOCATION",
    "active_collector",
    "capturing_launches",
    "collecting",
    "innermost_location",
    "package_path",
    "source_path",
    "notify_launch",
]

#: Per-line counter layout, in list-index order (raw profiles are plain
#: ``[int, int, int, int]`` lists to keep the record path cheap).
LINE_FIELDS = ("global_load_requests", "global_load_transactions", "warp_steps", "lane_loss")

#: Sentinel for rows with no attributable source line (barrier releases).
NO_LOCATION = ("", 0)


#: the ``repro`` package directory
_PACKAGE = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def package_path(filename: str) -> str:
    """``filename`` as ``repro/...`` with ``/`` separators when it lies in
    the package; any other file keeps its own name."""
    try:
        inner = Path(filename).resolve().relative_to(_PACKAGE)
    except ValueError:
        return filename
    return f"{_PACKAGE.name}/{inner.as_posix()}"


def source_path(name: str) -> str:
    """The file in this checkout that a :func:`package_path` name refers to."""
    if name.startswith(_PACKAGE.name + "/"):
        return str(_PACKAGE.parent / name)
    return name


def innermost_location(gen) -> tuple[str, int]:
    """(package path, lineno) of the yield a suspended generator is parked at.

    Follows ``gi_yieldfrom`` to the innermost delegate: a kernel line
    ``yield from group_inclusive_scan(...)`` attributes to the helper's
    own yields while the delegation is active, matching how nvprof
    attributes inlined device functions to their defining source.
    """
    while True:
        sub = getattr(gen, "gi_yieldfrom", None)
        if sub is None or getattr(sub, "gi_frame", None) is None:
            break
        gen = sub
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return NO_LOCATION
    return (package_path(gen.gi_code.co_filename), frame.f_lineno)


class LocationTable:
    """Interns (filename, lineno) pairs to small integer ids; id 0 = none."""

    __slots__ = ("_index", "locations")

    def __init__(self, locations=(NO_LOCATION,)):
        self._index: dict[tuple[str, int], int] = {}
        self.locations: list[tuple[str, int]] = []
        for loc in locations:
            self.intern(tuple(loc))

    def intern(self, loc: tuple[str, int]) -> int:
        at = self._index.get(loc)
        if at is None:
            at = len(self.locations)
            self._index[loc] = at
            self.locations.append(loc)
        return at

    def as_tuple(self) -> tuple[tuple[str, int], ...]:
        return tuple(self.locations)

    def __len__(self) -> int:
        return len(self.locations)


# --------------------------------------------------------------------------
# collection
# --------------------------------------------------------------------------


class LineProfileCollector:
    """Accumulates per-kernel totals and per-line attributions over launches.

    ``lines`` maps (filename, lineno) → ``{field: scaled value}``;
    ``kernels`` maps kernel qualname → its merged scaled counter dict plus
    a launch count.  Used as a context manager to make itself the active
    collector the engines report into.
    """

    def __init__(self):
        self.lines: dict[tuple[str, int], dict[str, float]] = {}
        self.line_kernels: dict[tuple[str, int], set[str]] = {}
        self.kernels: dict[str, dict[str, float]] = {}
        self.launches: int = 0

    def add_launch(self, kernel: str, raw: dict, factor: float, counters: dict) -> None:
        """Fold one launch in.

        ``raw`` is the engine's unscaled per-line profile
        (``{(file, line): [reqs, transactions, steps, lane_loss]}``),
        ``factor`` the block-sampling extrapolation, ``counters`` the
        launch's already-scaled totals (a ``ProfileMetrics.snapshot()``).
        """
        self.launches += 1
        bucket = self.kernels.setdefault(kernel, {"launches": 0.0})
        bucket["launches"] += 1
        for name, value in counters.items():
            bucket[name] = bucket.get(name, 0.0) + value
        for loc, values in raw.items():
            line = self.lines.setdefault(loc, dict.fromkeys(LINE_FIELDS, 0.0))
            for name, value in zip(LINE_FIELDS, values):
                line[name] += value * factor
            self.line_kernels.setdefault(loc, set()).add(kernel)

    def hot_lines(self, key: str = "global_load_requests", top: int | None = None):
        """Lines sorted by ``key`` descending; ties break on (file, line)."""
        ranked = sorted(self.lines.items(), key=lambda kv: (-kv[1].get(key, 0.0), kv[0]))
        return ranked if top is None else ranked[:top]

    def line_total(self, key: str) -> float:
        return sum(v.get(key, 0.0) for v in self.lines.values())

    def kernel_total(self, key: str) -> float:
        return sum(v.get(key, 0.0) for v in self.kernels.values())

    def __enter__(self) -> "LineProfileCollector":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.remove(self)


_ACTIVE: list[LineProfileCollector] = []


def active_collector() -> LineProfileCollector | None:
    """The innermost active collector, or ``None`` (the common fast path)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def collecting(collector: LineProfileCollector | None = None):
    """Scope a collector over a block of launches and yield it."""
    collector = collector if collector is not None else LineProfileCollector()
    with collector:
        yield collector


# --------------------------------------------------------------------------
# launch capture (Chrome timeline export)
# --------------------------------------------------------------------------


@dataclass
class LaunchProfile:
    """One captured launch: what the timeline exporter needs."""

    kernel: str
    device: object  # DeviceSpec (kept opaque: no repro.gpu import here)
    trace: object   # LaunchTrace
    grid_dim: int
    block_dim: int
    index: int = 0
    extra: dict = field(default_factory=dict)


_CAPTURES: list[list[LaunchProfile]] = []


def capturing_launches():
    """Context manager collecting :class:`LaunchProfile` per launch."""
    return _CaptureScope()


class _CaptureScope:
    def __init__(self):
        self.launches: list[LaunchProfile] = []

    def __enter__(self) -> "_CaptureScope":
        _CAPTURES.append(self.launches)
        return self

    def __exit__(self, *exc) -> None:
        _CAPTURES.remove(self.launches)


def capture_active() -> bool:
    return bool(_CAPTURES)


def notify_launch(kernel: str, device, trace, *, grid_dim: int, block_dim: int) -> None:
    """Record a launch into every open capture scope (record *and* cache-hit
    paths call this, so timelines survive warm trace-cache hits)."""
    for sink in _CAPTURES:
        sink.append(
            LaunchProfile(
                kernel=kernel,
                device=device,
                trace=trace,
                grid_dim=grid_dim,
                block_dim=block_dim,
                index=len(sink),
            )
        )
