"""Process-wide metrics registry: counters, gauges, log-bucketed histograms.

Zero-dependency sibling of :mod:`repro.obs.tracer`, and the process's only
counter store: trace-cache outcomes, engine stage times, serve admissions and
kernel launch totals all live here, and the views that need them
(:func:`repro.gpu.engine.stage_times`, :attr:`repro.gpu.trace.TraceCache.stats`,
the serve ``stats`` frame) read them back.  It always counts: an update is a
dict update under one process-wide lock (contention is negligible at our event
rates; every hot loop is vectorized NumPy, instrumented per *batch*, not per
element).

Three serialization surfaces:

- :meth:`MetricsRegistry.snapshot` — a plain-dict, schema-versioned snapshot
  (``METRICS_SCHEMA``) suitable for JSONL embedding and wire transport.
- :func:`merge_snapshots` / :meth:`MetricsRegistry.merge` — commutative,
  associative merge so worker snapshots can be folded into the parent in any
  order (counters add, gauges last-write-wins, histogram buckets add).
- :func:`to_prometheus` — classic Prometheus text exposition (cumulative
  ``le`` buckets, ``_sum``/``_count``) for scraping or file export.

Histograms are log2-bucketed: an observation ``v > 0`` lands in the bucket
keyed by its binary exponent ``e`` (``2**(e-1) < v <= 2**e``), obtained from
``math.frexp`` — no search, no configuration, and merges are exact because
every process uses the same implicit bucket boundaries.  Quantiles estimated
from buckets are within a factor of 2 of the true value, tightened by the
recorded exact min/max.

Worker → parent propagation rides the telemetry forwarding path: a worker
returns a *delta* snapshot (observations made during the call, not the
process lifetime — pool workers persist across calls and would double-count
otherwise) next to each result, and the parent's ``absorb_forwarded`` folds
foreign-pid deltas into the live registry.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "merge_snapshots",
    "delta_snapshots",
    "empty_snapshot",
    "hist_quantile",
    "hist_summary",
    "to_prometheus",
]

#: Version stamp on every snapshot; bump on incompatible layout changes.
METRICS_SCHEMA = 1

#: Bucket key for non-positive observations (durations clamp here).
_ZERO_BUCKET = "z"


def _bucket_key(value: float) -> str:
    """Log2 bucket key: ``"e"`` such that ``2**(e-1) < value <= 2**e``."""
    if value <= 0.0:
        return _ZERO_BUCKET
    mant, exp = math.frexp(value)  # value = mant * 2**exp, 0.5 <= mant < 1
    if mant == 0.5:  # exact power of two sits on its lower boundary
        exp -= 1
    return str(exp)


def _bucket_upper(key: str) -> float:
    """Upper boundary (representative) of a bucket key."""
    if key == _ZERO_BUCKET:
        return 0.0
    return 2.0 ** int(key)


class MetricsRegistry:
    """Thread-safe counters, gauges, and log2-bucketed histograms."""

    __slots__ = ("_lock", "_counters", "_gauges", "_hists")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # name -> {"count": int, "sum": float, "min": float, "max": float,
        #          "buckets": {key: count}}
        self._hists: Dict[str, Dict[str, Any]] = {}

    # -- write path --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its current ``value``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        value = float(value)
        key = _bucket_key(value)
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = {"count": 0, "sum": 0.0, "min": value, "max": value,
                        "buckets": {}}
                self._hists[name] = hist
            hist["count"] += 1
            hist["sum"] += value
            if value < hist["min"]:
                hist["min"] = value
            if value > hist["max"]:
                hist["max"] = value
            buckets = hist["buckets"]
            buckets[key] = buckets.get(key, 0) + 1

    # -- read path ---------------------------------------------------------

    def get(self, name: str, default: float = 0.0) -> float:
        """Current value of counter ``name`` (0.0 when absent)."""
        with self._lock:
            return self._counters.get(name, default)

    def get_gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def snapshot(self) -> Dict[str, Any]:
        """Schema-versioned plain-dict snapshot (deep-copied, JSON-safe)."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "ts": time.time(),
                "pid": os.getpid(),
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "hists": {
                    name: {
                        "count": h["count"],
                        "sum": h["sum"],
                        "min": h["min"],
                        "max": h["max"],
                        "buckets": dict(h["buckets"]),
                    }
                    for name, h in self._hists.items()
                },
            }

    def merge(self, snap: Optional[Mapping[str, Any]]) -> None:
        """Fold a snapshot (e.g. from a worker) into the live registry."""
        if not snap:
            return
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            self._gauges.update(snap.get("gauges", {}))
            for name, other in snap.get("hists", {}).items():
                if not other.get("count"):
                    continue
                hist = self._hists.get(name)
                if hist is None:
                    hist = {"count": 0, "sum": 0.0, "min": other["min"],
                            "max": other["max"], "buckets": {}}
                    self._hists[name] = hist
                hist["count"] += other["count"]
                hist["sum"] += other["sum"]
                hist["min"] = min(hist["min"], other["min"])
                hist["max"] = max(hist["max"], other["max"])
                buckets = hist["buckets"]
                for key, n in other.get("buckets", {}).items():
                    buckets[key] = buckets.get(key, 0) + n

    def reset(self) -> None:
        """Drop all recorded values (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


# --------------------------------------------------------------------------
# pure snapshot algebra (used by worker merging and the property tests)
# --------------------------------------------------------------------------


def empty_snapshot() -> Dict[str, Any]:
    return {
        "schema": METRICS_SCHEMA,
        "ts": time.time(),
        "pid": os.getpid(),
        "counters": {},
        "gauges": {},
        "hists": {},
    }


def merge_snapshots(a: Mapping[str, Any], b: Mapping[str, Any]) -> Dict[str, Any]:
    """Associative, commutative-on-counters merge of two snapshots.

    Counters and histogram buckets add; gauges are last-write-wins (``b``
    over ``a``); ``ts``/``pid`` are taken from ``b`` (the newer side).
    """
    out = {
        "schema": METRICS_SCHEMA,
        "ts": b.get("ts", a.get("ts")),
        "pid": b.get("pid", a.get("pid")),
        "counters": dict(a.get("counters", {})),
        "gauges": dict(a.get("gauges", {})),
        "hists": {
            name: {
                "count": h["count"],
                "sum": h["sum"],
                "min": h["min"],
                "max": h["max"],
                "buckets": dict(h["buckets"]),
            }
            for name, h in a.get("hists", {}).items()
        },
    }
    for name, value in b.get("counters", {}).items():
        out["counters"][name] = out["counters"].get(name, 0.0) + value
    out["gauges"].update(b.get("gauges", {}))
    for name, other in b.get("hists", {}).items():
        if not other.get("count"):
            continue
        hist = out["hists"].get(name)
        if hist is None:
            out["hists"][name] = {
                "count": other["count"],
                "sum": other["sum"],
                "min": other["min"],
                "max": other["max"],
                "buckets": dict(other.get("buckets", {})),
            }
            continue
        hist["count"] += other["count"]
        hist["sum"] += other["sum"]
        hist["min"] = min(hist["min"], other["min"])
        hist["max"] = max(hist["max"], other["max"])
        for key, n in other.get("buckets", {}).items():
            hist["buckets"][key] = hist["buckets"].get(key, 0) + n
    return out


def delta_snapshots(
    current: Mapping[str, Any], baseline: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """``current - baseline`` for counters and histograms.

    Used to ship only what a worker observed *during one cell* back to the
    parent (pool workers persist across cells; full snapshots would
    double-count).  Gauges carry the current value.  Histogram min/max are
    approximated by the current min/max when the count changed — the delta's
    true extrema are unrecoverable from summaries, and the approximation only
    loosens quantile clamping, never bucket counts.
    """
    if not baseline:
        return {k: (dict(v) if isinstance(v, dict) else v)
                for k, v in current.items()}
    base_counters = baseline.get("counters", {})
    base_hists = baseline.get("hists", {})
    counters = {}
    for name, value in current.get("counters", {}).items():
        d = value - base_counters.get(name, 0.0)
        if d:
            counters[name] = d
    hists: Dict[str, Any] = {}
    for name, h in current.get("hists", {}).items():
        bh = base_hists.get(name)
        if bh is None:
            hists[name] = {
                "count": h["count"], "sum": h["sum"], "min": h["min"],
                "max": h["max"], "buckets": dict(h["buckets"]),
            }
            continue
        dcount = h["count"] - bh.get("count", 0)
        if dcount <= 0:
            continue
        buckets = {}
        bbuckets = bh.get("buckets", {})
        for key, n in h["buckets"].items():
            dn = n - bbuckets.get(key, 0)
            if dn:
                buckets[key] = dn
        hists[name] = {
            "count": dcount,
            "sum": h["sum"] - bh.get("sum", 0.0),
            "min": h["min"],
            "max": h["max"],
            "buckets": buckets,
        }
    return {
        "schema": METRICS_SCHEMA,
        "ts": current.get("ts", time.time()),
        "pid": current.get("pid", os.getpid()),
        "counters": counters,
        "gauges": dict(current.get("gauges", {})),
        "hists": hists,
    }


def snapshot_is_empty(snap: Mapping[str, Any]) -> bool:
    return not (snap.get("counters") or snap.get("gauges") or snap.get("hists"))


# --------------------------------------------------------------------------
# quantile estimation & exposition
# --------------------------------------------------------------------------


def _sorted_buckets(hist: Mapping[str, Any]) -> Iterable[Tuple[float, int]]:
    """Buckets as (upper_bound, count), ascending by bound."""
    items = [(_bucket_upper(key), n) for key, n in hist.get("buckets", {}).items()]
    items.sort(key=lambda kv: kv[0])
    return items


def hist_quantile(hist: Mapping[str, Any], q: float) -> float:
    """Estimate the q-quantile (0..1) from log2 buckets.

    Returns the upper bound of the bucket containing the q-th observation,
    clamped to the recorded exact [min, max] — so p0 == min, p100 == max, and
    any estimate is within one bucket (a factor of 2) of the truth.
    """
    count = hist.get("count", 0)
    if not count:
        return 0.0
    rank = q * count
    seen = 0
    value = hist.get("max", 0.0)
    for upper, n in _sorted_buckets(hist):
        seen += n
        if seen >= rank:
            value = upper
            break
    return min(max(value, hist.get("min", value)), hist.get("max", value))


def hist_summary(hist: Mapping[str, Any]) -> Dict[str, float]:
    """count/mean/p50/p95/p99/min/max digest of one histogram."""
    count = hist.get("count", 0)
    if not count:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "min": 0.0, "max": 0.0}
    return {
        "count": count,
        "mean": hist.get("sum", 0.0) / count,
        "p50": hist_quantile(hist, 0.50),
        "p95": hist_quantile(hist, 0.95),
        "p99": hist_quantile(hist, 0.99),
        "min": hist.get("min", 0.0),
        "max": hist.get("max", 0.0),
    }


def _prom_name(name: str) -> str:
    """Sanitize to a legal Prometheus metric name, namespaced ``repro_``."""
    safe = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in name)
    if not safe or not (safe[0].isalpha() or safe[0] == "_"):
        safe = "_" + safe
    return "repro_" + safe


def _prom_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(snap: Mapping[str, Any]) -> str:
    """Render a snapshot in the classic Prometheus text exposition format."""
    lines = []
    for name in sorted(snap.get("counters", {})):
        pname = _prom_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_num(snap['counters'][name])}")
    for name in sorted(snap.get("gauges", {})):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_num(snap['gauges'][name])}")
    for name in sorted(snap.get("hists", {})):
        hist = snap["hists"][name]
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for upper, n in _sorted_buckets(hist):
            cumulative += n
            lines.append(f'{pname}_bucket{{le="{_prom_num(upper)}"}} {cumulative}')
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist.get("count", 0)}')
        lines.append(f"{pname}_sum {_prom_num(hist.get('sum', 0.0))}")
        lines.append(f"{pname}_count {hist.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# process-wide registry + worker forwarding
# --------------------------------------------------------------------------


_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (cheap: one global load)."""
    return _REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (test isolation); returns the old one."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, registry
    return old


def capture_baseline() -> Dict[str, Any]:
    """Snapshot for later :func:`delta_since`."""
    return _REGISTRY.snapshot()


def delta_since(baseline: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """Delta snapshot of everything observed since ``capture_baseline``.

    Returns None when nothing changed, so callers can skip attaching empty
    payloads.
    """
    delta = delta_snapshots(_REGISTRY.snapshot(), baseline)
    if snapshot_is_empty(delta):
        return None
    return delta


def absorb_delta(snap: Optional[Mapping[str, Any]]) -> None:
    """Fold a worker's delta snapshot into the live registry.

    Same-pid deltas are dropped: work done in this process was already
    counted in place.
    """
    if snap and snap.get("pid") != os.getpid():
        _REGISTRY.merge(snap)
