"""Golden scale-out baselines: per-device counters, exchange, efficiency.

The cluster analogue of :mod:`repro.verify.goldens`: for one device
preset, pin the full scale-out behaviour of two representative algorithms
(simple Polak and TRUST — the partitioning scheme's namesake) on three
fixture graphs over 1/2/4 simulated devices and both partitioners.  Each
cell records the aggregate triangle count, cluster makespan, parallel
efficiency (vs the pinned 1-device cell), total exchange bytes, and the
per-device counter/exchange breakdown, so any drift in the partitioners,
the exchange-cost model, or the per-partition simulation shows up as a
one-line diff naming the exact cell.

Snapshots live in ``tests/goldens/cluster_<device>.json`` with the same
diff-stability rules as the metric goldens (sorted keys, floats at 10
significant digits, trailing newline) and the same ``--update``
regeneration flow (``python -m repro.verify cluster --update``).  The
event oracle (:func:`repro.gpu.engine.event_oracle`) must reproduce the
snapshot byte for byte — ``tests/test_cluster_goldens.py`` checks it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..framework.cluster import run_cluster
from ..gpu.costmodel import CostModel
from ..gpu.device import get_device
from .fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, GOLDEN_ORDERING, fixture_csr

__all__ = [
    "CLUSTER_GOLDEN_SCHEMA",
    "CLUSTER_GOLDEN_ALGORITHMS",
    "CLUSTER_GOLDEN_FIXTURES",
    "CLUSTER_GOLDEN_DEVICE_COUNTS",
    "CLUSTER_GOLDEN_PARTITIONERS",
    "CLUSTER_GOLDEN_SEED",
    "cluster_golden_path",
    "record_cluster_device",
    "write_cluster_goldens",
    "load_cluster_goldens",
    "compare_cluster_snapshots",
    "check_cluster_device",
    "update_cluster_goldens",
]

#: Bump when the snapshot layout changes; mismatched schemas fail loudly.
CLUSTER_GOLDEN_SCHEMA = 1

#: Representative endpoints of the taxonomy: the simplest edge-parallel
#: kernel and the hashed multi-GPU design the partitioner mirrors.
CLUSTER_GOLDEN_ALGORITHMS = ("Polak", "TRUST")

#: Three structural regimes: dense (intersection-heavy), heavy-tail
#: (imbalance), and the adversarial hash-collider composite.
CLUSTER_GOLDEN_FIXTURES = ("clique-12", "powerlaw-120", "star-cliques")

CLUSTER_GOLDEN_DEVICE_COUNTS = (1, 2, 4)
CLUSTER_GOLDEN_PARTITIONERS = ("edge1d", "hash2d")
CLUSTER_GOLDEN_SEED = 0

DEFAULT_RTOL = 1e-6
DEFAULT_ATOL = 1e-9


def cluster_golden_path(device_name: str, root: str | Path | None = None) -> Path:
    """Snapshot file for one preset (``tests/goldens/cluster_<device>.json``)."""
    if root is None:
        root = Path(__file__).resolve().parents[3] / "tests" / "goldens"
    return Path(root) / f"cluster_{device_name}.json"


def _round(value: float) -> float:
    if value == 0 or not math.isfinite(value):
        return value
    return float(f"{value:.10g}")


def _cell(record, base_time: float | None) -> dict:
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
    """Run the cluster golden matrix on one device preset."""
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
                    cells[f"devices={devices}"] = _cell(record, base_time)
                by_partitioner[partitioner] = cells
            algorithms[alg] = by_partitioner
        fixtures[fname] = {"n": csr.n, "m": csr.m, "algorithms": algorithms}
    return {
        "schema": CLUSTER_GOLDEN_SCHEMA,
        "device": device_name,
        "blocks": blocks,
        "ordering": ordering,
        "seed": seed,
        "fixtures": fixtures,
    }


def write_cluster_goldens(snapshot: dict, path: str | Path) -> Path:
    """Serialise deterministically (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_cluster_goldens(path: str | Path) -> dict:
    """Load a snapshot, validating its schema version."""
    snapshot = json.loads(Path(path).read_text())
    schema = snapshot.get("schema")
    if schema != CLUSTER_GOLDEN_SCHEMA:
        raise ValueError(
            f"cluster golden schema mismatch in {path}: file has {schema!r}, "
            f"code expects {CLUSTER_GOLDEN_SCHEMA} — regenerate with "
            "`python -m repro.verify cluster --update`"
        )
    return snapshot


def _flatten(node, prefix: str, out: dict) -> None:
    if isinstance(node, dict):
        for key in node:
            _flatten(node[key], f"{prefix}/{key}", out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node


def compare_cluster_snapshots(
    golden: dict,
    current: dict,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[str]:
    """All leaf-level differences, as ``path: golden=X current=Y`` strings.

    Counts and structure compare exactly; floats within
    ``atol + rtol * |golden|``.  Paths present on only one side are
    reported too, so a silently dropped cell cannot pass the gate.
    """
    gflat: dict = {}
    cflat: dict = {}
    _flatten(golden, "", gflat)
    _flatten(current, "", cflat)
    diffs = []
    for path in sorted(set(gflat) | set(cflat)):
        if path not in gflat:
            diffs.append(f"{path}: golden=<missing> current={cflat[path]!r}")
            continue
        if path not in cflat:
            diffs.append(f"{path}: golden={gflat[path]!r} current=<missing>")
            continue
        g, c = gflat[path], cflat[path]
        if isinstance(g, float) or isinstance(c, float):
            if not abs(float(c) - float(g)) <= atol + rtol * abs(float(g)):
                diffs.append(f"{path}: golden={g!r} current={c!r}")
        elif g != c:
            diffs.append(f"{path}: golden={g!r} current={c!r}")
    return diffs


def check_cluster_device(
    device_name: str,
    *,
    root: str | Path | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    cost_model: CostModel | None = None,
) -> list[str]:
    """Re-record one device's cluster matrix and diff against the snapshot."""
    golden = load_cluster_goldens(cluster_golden_path(device_name, root))
    current = record_cluster_device(
        device_name,
        blocks=int(golden.get("blocks", GOLDEN_BLOCKS)),
        ordering=str(golden.get("ordering", GOLDEN_ORDERING)),
        seed=int(golden.get("seed", CLUSTER_GOLDEN_SEED)),
        cost_model=cost_model,
    )
    return compare_cluster_snapshots(golden, current, rtol=rtol, atol=atol)


def update_cluster_goldens(
    devices: tuple[str, ...] = GOLDEN_DEVICES, *, root: str | Path | None = None
) -> list[Path]:
    """Regenerate and write the cluster snapshots for the given devices."""
    return [
        write_cluster_goldens(record_cluster_device(device), cluster_golden_path(device, root))
        for device in devices
    ]
