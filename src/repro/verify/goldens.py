"""Golden baselines: record, serialise, and compare both snapshot kinds.

Two snapshot kinds share one path, write, schema-checked load, compare,
check and update flow; only their recorders differ:

* ``golden`` (:func:`record_device`, ``tests/goldens/<device>.json``)
  pins, for one device preset, every registered algorithm's triangle count
  and profile metrics (``global_load_requests``,
  ``warp_execution_efficiency``, ``gld_transactions_per_request``, issue
  ``cycles``, and costed ``sim_time_s``) on the fixed fixture set of
  :mod:`repro.verify.fixtures`.  ``sim_time_s`` is deliberately part of
  the snapshot: it is the only recorded quantity that passes through
  :class:`repro.gpu.costmodel.CostModel`, so perturbing a cost-model
  constant fails the check even when every raw counter is untouched.
* ``cluster`` (:func:`record_cluster_device`,
  ``tests/goldens/cluster_<device>.json``) pins the scale-out behaviour of
  two representative algorithms (simple Polak and TRUST, the partitioning
  scheme's namesake) on three fixtures over 1/2/4 simulated devices and
  both partitioners: aggregate count, cluster makespan, parallel
  efficiency (vs the 1-device cell), exchange bytes and the per-device
  breakdown.  The event oracle (:func:`repro.gpu.engine.event_oracle`)
  must reproduce it byte for byte (the scale-out golden tests check it).

Snapshots are diff-stable JSON (sorted keys, floats rounded to 10
significant digits, trailing newline), so a refactor that shifts any
value shows up as a one-line diff naming the fixture, algorithm and key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

from ..algorithms.base import all_algorithms
from ..framework.cluster import run_cluster
from ..gpu.costmodel import CostModel
from ..gpu.device import get_device
from .fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, GOLDEN_ORDERING, fixture_csr, fixture_names

__all__ = [
    "GOLDEN_SCHEMA",
    "GOLDEN_METRICS",
    "CLUSTER_GOLDEN_ALGORITHMS",
    "CLUSTER_GOLDEN_FIXTURES",
    "CLUSTER_GOLDEN_DEVICE_COUNTS",
    "CLUSTER_GOLDEN_PARTITIONERS",
    "CLUSTER_GOLDEN_SEED",
    "KINDS",
    "GoldenDiff",
    "golden_path",
    "record_device",
    "record_cluster_device",
    "write_goldens",
    "load_goldens",
    "compare_snapshots",
    "check_device",
    "update_goldens",
]

#: Bump when a snapshot layout changes; mismatched schemas fail loudly.
GOLDEN_SCHEMA = 1

#: Recorded per (fixture, algorithm) next to the exact "count".
GOLDEN_METRICS = (
    "global_load_requests",
    "warp_execution_efficiency",
    "gld_transactions_per_request",
    "cycles",
    "sim_time_s",
)

#: Representative endpoints of the taxonomy: the simplest edge-parallel
#: kernel and the hashed multi-GPU design the partitioner mirrors.
CLUSTER_GOLDEN_ALGORITHMS = ("Polak", "TRUST")

#: Three structural regimes: dense (intersection-heavy), heavy-tail
#: (imbalance), and the adversarial hash-collider composite.
CLUSTER_GOLDEN_FIXTURES = ("clique-12", "powerlaw-120", "star-cliques")

CLUSTER_GOLDEN_DEVICE_COUNTS = (1, 2, 4)
CLUSTER_GOLDEN_PARTITIONERS = ("edge1d", "hash2d")
CLUSTER_GOLDEN_SEED = 0

#: Default comparison tolerances.  The simulator is deterministic, so the
#: only slack needed is the 10-significant-digit rounding of the stored
#: floats; 1e-6 relative keeps the gate tight enough to catch a one-unit
#: change in any cost-model constant.
DEFAULT_RTOL = 1e-6
DEFAULT_ATOL = 1e-9

#: Keys that only hold named children; ``str(GoldenDiff)`` leaves them out.
_CONTAINERS = ("fixtures", "algorithms")


def _round(value: float) -> float:
    """Round to 10 significant digits: diff-stable, far inside the rtol."""
    if value == 0 or not math.isfinite(value):
        return value
    return float(f"{value:.10g}")


def record_device(
    device_name: str,
    *,
    blocks: int = GOLDEN_BLOCKS,
    ordering: str = GOLDEN_ORDERING,
    cost_model: CostModel | None = None,
) -> dict:
    """Run the full fixture x algorithm metric matrix on one device preset."""
    device = get_device(device_name)
    fixtures: dict[str, dict] = {}
    for fname in fixture_names():
        csr = fixture_csr(fname, ordering)
        algorithms: dict[str, dict] = {}
        for cls in all_algorithms():
            alg = cls()
            result = alg.profile(
                csr, device=device, max_blocks_simulated=blocks, cost_model=cost_model
            )
            m = result.metrics
            algorithms[alg.name] = {
                "count": int(result.triangles),
                "global_load_requests": _round(m.global_load_requests),
                "warp_execution_efficiency": _round(m.warp_execution_efficiency),
                "gld_transactions_per_request": _round(m.gld_transactions_per_request),
                "cycles": _round(m.issue_cycles),
                "sim_time_s": _round(result.sim_time_s),
            }
        fixtures[fname] = {"n": csr.n, "m": csr.m, "algorithms": algorithms}
    return {
        "schema": GOLDEN_SCHEMA,
        "device": device_name,
        "blocks": blocks,
        "ordering": ordering,
        "fixtures": fixtures,
    }


def _cluster_cell(record, base_time: float | None) -> dict:
    tn = record.cluster_time_s or 0.0
    speedup = (base_time / tn) if (base_time and tn > 0) else 1.0
    return {
        "count": int(record.triangles),
        "cluster_time_s": _round(tn),
        "speedup": _round(speedup),
        "efficiency": _round(speedup / record.devices),
        "exchange_bytes": int(record.total_exchange_bytes),
        "global_load_requests": _round(record.counters["global_load_requests"]),
        "warp_execution_efficiency": _round(record.counters["warp_execution_efficiency"]),
        "partitions": [
            {
                "owned_edges": p.owned_edges,
                "triangles": p.triangles,
                "exchange_bytes": p.exchange_bytes,
                "global_load_requests": _round(p.counters.get("global_load_requests", 0.0)),
                "sim_time_s": _round(p.sim_time_s),
                "exchange_time_s": _round(p.exchange_time_s),
            }
            for p in record.partitions
        ],
    }


def record_cluster_device(
    device_name: str,
    *,
    blocks: int = GOLDEN_BLOCKS,
    ordering: str = GOLDEN_ORDERING,
    seed: int = CLUSTER_GOLDEN_SEED,
    cost_model: CostModel | None = None,
) -> dict:
    """Run the cluster scale-out matrix on one device preset."""
    device = get_device(device_name)
    fixtures: dict[str, dict] = {}
    for fname in CLUSTER_GOLDEN_FIXTURES:
        csr = fixture_csr(fname, ordering)
        algorithms: dict[str, dict] = {}
        for alg in CLUSTER_GOLDEN_ALGORITHMS:
            by_partitioner: dict[str, dict] = {}
            for partitioner in CLUSTER_GOLDEN_PARTITIONERS:
                cells: dict[str, dict] = {}
                base_time: float | None = None
                for devices in CLUSTER_GOLDEN_DEVICE_COUNTS:
                    record = run_cluster(
                        alg,
                        csr,
                        devices=devices,
                        partitioner=partitioner,
                        seed=seed,
                        device=device,
                        ordering=ordering,
                        max_blocks_simulated=blocks,
                        cost_model=cost_model,
                        dataset=fname,
                    )
                    if devices == 1:
                        base_time = record.cluster_time_s
                    cells[f"devices={devices}"] = _cluster_cell(record, base_time)
                by_partitioner[partitioner] = cells
            algorithms[alg] = by_partitioner
        fixtures[fname] = {"n": csr.n, "m": csr.m, "algorithms": algorithms}
    return {
        "schema": GOLDEN_SCHEMA,
        "device": device_name,
        "blocks": blocks,
        "ordering": ordering,
        "seed": seed,
        "fixtures": fixtures,
    }


#: Snapshot kinds, named after their CLI command: file-name prefix and recorder.
KINDS = {
    "golden": ("", record_device),
    "cluster": ("cluster_", record_cluster_device),
}


def golden_path(
    device_name: str, root: str | Path | None = None, *, kind: str = "golden"
) -> Path:
    """Snapshot file of one kind for one device preset
    (``tests/goldens/<prefix><device>.json``)."""
    if root is None:
        root = Path(__file__).resolve().parents[3] / "tests" / "goldens"
    return Path(root) / f"{KINDS[kind][0]}{device_name}.json"


def write_goldens(snapshot: dict, path: str | Path) -> Path:
    """Serialise a snapshot deterministically (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_goldens(path: str | Path) -> dict:
    """Load a snapshot of either kind, validating its schema version."""
    snapshot = json.loads(Path(path).read_text())
    schema = snapshot.get("schema")
    if schema != GOLDEN_SCHEMA:
        raise ValueError(
            f"golden schema mismatch in {path}: file has {schema!r}, "
            f"code expects {GOLDEN_SCHEMA} — regenerate with "
            "`python -m repro.verify golden --update` (or `cluster --update`)"
        )
    return snapshot


@dataclass(frozen=True)
class GoldenDiff:
    """One baseline violation: the path of the differing key and both values.

    ``None`` stands for a side on which the key is missing.  A subtree (a
    whole fixture, algorithm or cell) present on one side only is one diff
    naming it.
    """

    path: tuple[str | int, ...]
    golden: object
    current: object

    @property
    def key(self) -> tuple[str | int, ...]:
        """The path without the ``fixtures``/``algorithms`` container keys."""
        return tuple(p for p in self.path if p not in _CONTAINERS)

    def __str__(self) -> str:
        where = ""
        for part in self.key:
            if isinstance(part, int):
                where += f"[{part}]"
            else:
                where += f" / {part}" if where else part
        return f"{where}: golden={_show(self.golden)} current={_show(self.current)}"


def _show(value) -> str:
    if value is None:
        return "<missing>"
    if isinstance(value, (dict, list)):
        return "<present>"
    return repr(value)


def _differs(g, c, rtol: float, atol: float) -> bool:
    if isinstance(g, float) or isinstance(c, float):
        if not (isinstance(g, Real) and isinstance(c, Real)):
            return True
        return not abs(float(c) - float(g)) <= atol + rtol * abs(float(g))
    return bool(g != c)


def _walk(g, c, path: tuple, rtol: float, atol: float, out: list[GoldenDiff]) -> None:
    if isinstance(g, list) and isinstance(c, list):
        g, c = dict(enumerate(g)), dict(enumerate(c))
    if isinstance(g, dict) and isinstance(c, dict):
        for key in sorted(set(g) | set(c)):
            if key not in g or key not in c:
                out.append(GoldenDiff(path + (key,), g.get(key), c.get(key)))
            else:
                _walk(g[key], c[key], path + (key,), rtol, atol, out)
    elif _differs(g, c, rtol, atol):
        out.append(GoldenDiff(path, g, c))


def compare_snapshots(
    golden: dict,
    current: dict,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[GoldenDiff]:
    """Every differing key between two snapshots, in sorted path order.

    Counts and every other non-float value (``n``, ``m``, ``blocks``,
    ``ordering``, ``device``, ...) compare exactly; floats within
    ``atol + rtol * |golden|``.  A key present on one side only is one
    diff, so a silently dropped fixture, algorithm or cell cannot pass.
    """
    diffs: list[GoldenDiff] = []
    _walk(golden, current, (), rtol, atol, diffs)
    return diffs


def check_device(
    device_name: str,
    *,
    kind: str = "golden",
    root: str | Path | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    cost_model: CostModel | None = None,
) -> list[GoldenDiff]:
    """Re-record one device's snapshot of ``kind`` and diff it against the
    checked-in one, with the run parameters the checked-in one names."""
    golden = load_goldens(golden_path(device_name, root, kind=kind))
    params = {k: golden[k] for k in ("blocks", "ordering", "seed") if k in golden}
    current = KINDS[kind][1](device_name, cost_model=cost_model, **params)
    return compare_snapshots(golden, current, rtol=rtol, atol=atol)


def update_goldens(
    devices: tuple[str, ...] = GOLDEN_DEVICES,
    *,
    kind: str = "golden",
    root: str | Path | None = None,
) -> list[Path]:
    """Regenerate and write the snapshots of ``kind`` for the given devices."""
    record = KINDS[kind][1]
    return [
        write_goldens(record(device), golden_path(device, root, kind=kind))
        for device in devices
    ]
