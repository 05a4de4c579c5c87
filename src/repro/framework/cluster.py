"""Cluster executor: simulated multi-GPU scale-out runs.

The device-independent partitioning lives in :mod:`repro.gpu.cluster`;
this module is the execution half.  It runs each partition subgraph on
its own :class:`~repro.gpu.device.DeviceSpec` instance (optionally fanned
over worker processes via :func:`~repro.framework.parallel.parallel_starmap`
— the record/replay engine makes re-simulation of an already-traced
partition replay-cheap), prices the inter-partition exchange with the
device's link parameters, aggregates the nvprof-style counters, and folds
everything into the existing :class:`~repro.framework.runner.RunRecord` /
:class:`~repro.framework.compare.ComparisonMatrix` shapes so reports,
journals, and the scheduler work unchanged.

Timing model
------------
A cluster step is exchange-then-compute on every device in parallel:

    t_cluster = max_p ( exchange_time(p) + sim_time(p) )

with ``exchange_time`` from :meth:`repro.gpu.costmodel.CostModel.exchange_time`
(per-peer link latency + remote bytes over derated link bandwidth).  The
1-device plan is the identity partition, so its cluster time equals the
plain single-device simulation and anchors speedup curves at ``S(1)=1``.

Reproducibility
---------------
One ``seed`` flows partitioner → fan-out → workers: it determines the
hashed 2D grid assignment and is pinned in the run journal's meta, so a
``--resume`` of a cluster matrix re-partitions identically and journaled
records equal an uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..algorithms.base import TCAlgorithm, algorithm_names, get_algorithm
from ..gpu.cluster import PartitionPlan, build_plan
from ..gpu.costmodel import DEFAULT_COST_MODEL, CostModel
from ..gpu.device import SIM_V100, DeviceSpec
from ..graph.csr import CSRGraph
from ..graph.datasets import load_oriented
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from .compare import ComparisonMatrix
from .parallel import parallel_starmap
from .resilience import RunJournal, _safe_size_class
from .runner import DEFAULT_MAX_BLOCKS, RunRecord

__all__ = [
    "DEVICE_COUNTS",
    "ClusterRecord",
    "PartitionRecord",
    "ScaleoutPoint",
    "cluster_to_run_record",
    "run_cluster",
    "run_cluster_matrix",
    "scaleout_curve",
]

#: device counts the scale-out curves sweep (ISSUE/figure family default).
DEVICE_COUNTS = (1, 2, 4, 8, 16)

#: per-partition counters carried into records (sums are meaningful).
_SUM_COUNTERS = (
    "global_load_requests",
    "global_load_transactions",
    "warp_steps",
    "active_lane_steps",
    "dram_bytes",
    "issue_cycles",
    "kernel_launches",
)


@dataclass(frozen=True)
class PartitionRecord:
    """Outcome of one partition on its own simulated device (JSON-native)."""

    index: int
    status: str  # "ok" | "empty" | "failed"
    triangles: int
    owned_edges: int
    subgraph_vertices: int
    subgraph_edges: int
    remote_entries: int
    exchange_bytes: int
    peers: int
    exchange_time_s: float
    sim_time_s: float
    #: exchange + compute: when this device is done with the step.
    device_time_s: float
    counters: dict = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class ClusterRecord:
    """One (algorithm, graph) cluster run over ``devices`` simulated GPUs."""

    algorithm: str
    dataset: str
    device: str
    devices: int
    partitioner: str
    seed: int
    status: str
    triangles: int | None
    #: makespan: slowest device's exchange + compute.
    cluster_time_s: float | None
    total_exchange_bytes: int
    #: summed nvprof-style counters over all partitions, plus derived
    #: warp_execution_efficiency / gld_transactions_per_request.
    counters: dict = field(default_factory=dict)
    partitions: tuple[PartitionRecord, ...] = ()
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _zero_counters() -> dict:
    return {name: (0 if name == "kernel_launches" else 0.0) for name in _SUM_COUNTERS}


def _simulate_partition(
    algorithm: str,
    part_csr: CSRGraph,
    info: dict,
    device: DeviceSpec,
    max_blocks_simulated: int | None,
    cost_model: CostModel | None,
) -> PartitionRecord:
    """Worker body: one partition on one device instance.  Never raises."""
    model = cost_model or DEFAULT_COST_MODEL
    exchange_time = model.exchange_time(info["exchange_bytes"], info["peers"], device)
    base = dict(
        index=info["index"],
        owned_edges=info["owned_edges"],
        subgraph_vertices=part_csr.n,
        subgraph_edges=part_csr.m,
        remote_entries=info["remote_entries"],
        exchange_bytes=info["exchange_bytes"],
        peers=info["peers"],
        exchange_time_s=exchange_time,
    )
    if info["owned_edges"] == 0:
        # An idle device: nothing to fetch, nothing to launch.
        return PartitionRecord(
            status="empty", triangles=0, sim_time_s=0.0, device_time_s=0.0,
            counters=_zero_counters(), **base,
        )
    try:
        alg = get_algorithm(algorithm)
        result = alg.profile(
            part_csr,
            device=device,
            max_blocks_simulated=max_blocks_simulated,
            cost_model=cost_model,
            dataset=info.get("dataset"),
        )
    except Exception as exc:
        return PartitionRecord(
            status="failed", triangles=0, sim_time_s=0.0, device_time_s=exchange_time,
            counters=_zero_counters(), error=f"{type(exc).__name__}: {exc}", **base,
        )
    m = result.metrics
    counters = {
        "global_load_requests": float(m.global_load_requests),
        "global_load_transactions": float(m.global_load_transactions),
        "warp_steps": float(m.warp_steps),
        "active_lane_steps": float(m.active_lane_steps),
        "dram_bytes": float(m.dram_bytes),
        "issue_cycles": float(m.issue_cycles),
        "kernel_launches": int(m.kernel_launches),
    }
    return PartitionRecord(
        status="ok",
        triangles=int(result.triangles),
        sim_time_s=float(result.sim_time_s),
        device_time_s=exchange_time + float(result.sim_time_s),
        counters=counters,
        **base,
    )


def _aggregate_counters(parts: tuple[PartitionRecord, ...], warp_size: int) -> dict:
    agg = _zero_counters()
    for p in parts:
        for name in _SUM_COUNTERS:
            agg[name] += p.counters.get(name, 0)
    steps = agg["warp_steps"] * warp_size
    agg["warp_execution_efficiency"] = agg["active_lane_steps"] / steps if steps else 0.0
    req = agg["global_load_requests"]
    agg["gld_transactions_per_request"] = agg["global_load_transactions"] / req if req else 0.0
    return agg


def _resolve_graph(
    graph: str | CSRGraph, ordering: str, dataset: str | None
) -> tuple[CSRGraph, str]:
    if isinstance(graph, str):
        return load_oriented(graph, ordering), dataset or graph
    label = dataset or graph.meta.get("dataset") or graph.meta.get("name") or "custom"
    return graph, str(label)


def run_cluster(
    algorithm: str | TCAlgorithm,
    graph: str | CSRGraph,
    *,
    devices: int = 2,
    partitioner: str = "hash2d",
    seed: int = 0,
    device: DeviceSpec | None = None,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    cost_model: CostModel | None = None,
    jobs: int | None = 1,
    dataset: str | None = None,
    plan: PartitionPlan | None = None,
) -> ClusterRecord:
    """Simulate one algorithm on ``devices`` GPUs over a partitioned replica.

    ``graph`` is a Table II dataset name (loaded like :func:`run_one`) or a
    prebuilt oriented :class:`CSRGraph` (fixtures, tests).  Every partition
    runs on its own instance of ``device`` (default: the replica-scaled
    V100); ``jobs`` fans partitions over worker processes.  A precomputed
    ``plan`` skips re-partitioning (the scale-out curve reuses one plan per
    device count across algorithms).
    """
    alg_name = get_algorithm(algorithm).name if isinstance(algorithm, str) else algorithm.name
    device = device if device is not None else SIM_V100
    csr, label = _resolve_graph(graph, ordering, dataset)
    if plan is None:
        plan = build_plan(csr, devices, partitioner=partitioner, seed=seed)
    tracer = get_tracer()
    with tracer.span(
        "cluster",
        level="info",
        algorithm=alg_name,
        dataset=label,
        devices=devices,
        partitioner=partitioner,
        seed=seed,
    ):
        tasks = [
            (
                alg_name,
                p.csr,
                {
                    "index": p.index,
                    "owned_edges": p.owned_edges,
                    "remote_entries": p.remote_entries,
                    "exchange_bytes": p.exchange_bytes,
                    "peers": p.peers,
                    "dataset": label,
                },
                device,
                max_blocks_simulated,
                cost_model,
            )
            for p in plan.partitions
        ]
        parts = tuple(parallel_starmap(_simulate_partition, tasks, jobs=jobs))
        for p in parts:
            # Per-partition counter attribution rides the telemetry stream;
            # tests check these events sum to the aggregated record.
            tracer.info(
                "cluster_partition",
                algorithm=alg_name,
                dataset=label,
                partition=p.index,
                status=p.status,
                triangles=p.triangles,
                owned_edges=p.owned_edges,
                exchange_bytes=p.exchange_bytes,
                exchange_time_s=p.exchange_time_s,
                sim_time_s=p.sim_time_s,
                global_load_requests=p.counters.get("global_load_requests", 0.0),
            )
        failed = [p for p in parts if p.status == "failed"]
        status = "failed" if failed else "ok"
        triangles = sum(p.triangles for p in parts) + plan.correction
        cluster_time = max((p.device_time_s for p in parts), default=0.0)
        registry = get_metrics()
        if registry.enabled:
            registry.inc("cluster_runs")
            registry.inc("cluster_partitions", len(parts))
            if failed:
                registry.inc("cluster_failed_partitions", len(failed))
            registry.observe("cluster_time_s", cluster_time)
            registry.observe(
                "cluster_exchange_bytes",
                sum(p.exchange_bytes for p in parts),
            )
        record = ClusterRecord(
            algorithm=alg_name,
            dataset=label,
            device=device.name,
            devices=devices,
            partitioner=partitioner,
            seed=seed,
            status=status,
            triangles=None if failed else int(triangles),
            cluster_time_s=float(cluster_time),
            total_exchange_bytes=plan.total_exchange_bytes,
            counters=_aggregate_counters(parts, device.warp_size),
            partitions=parts,
            error=failed[0].error if failed else None,
        )
        if failed:
            tracer.warning(
                "cluster_failed",
                algorithm=alg_name,
                dataset=label,
                partitions=[p.index for p in failed],
                error=record.error or "",
            )
    return record


@dataclass(frozen=True)
class ScaleoutPoint:
    """One point of a speedup/efficiency curve."""

    devices: int
    cluster_time_s: float
    #: single-device time / cluster makespan.
    speedup: float
    #: speedup / devices (1.0 = perfect linear scaling).
    efficiency: float
    exchange_bytes: int
    record: ClusterRecord


def scaleout_curve(
    algorithm: str | TCAlgorithm,
    graph: str | CSRGraph,
    *,
    device_counts: tuple[int, ...] = DEVICE_COUNTS,
    partitioner: str = "hash2d",
    seed: int = 0,
    **kwargs,
) -> list[ScaleoutPoint]:
    """Speedup + parallel-efficiency curve over ``device_counts`` devices.

    The baseline is the 1-device run (the identity plan — the plain
    single-device simulation); it is always computed even when ``1`` is
    not in ``device_counts`` so every point's speedup is well-defined.
    """
    counts = sorted(set(device_counts))
    base = run_cluster(
        algorithm, graph, devices=1, partitioner=partitioner, seed=seed, **kwargs
    )
    t1 = base.cluster_time_s or 0.0
    points = []
    for n in counts:
        rec = base if n == 1 else run_cluster(
            algorithm, graph, devices=n, partitioner=partitioner, seed=seed, **kwargs
        )
        tn = rec.cluster_time_s or 0.0
        speedup = (t1 / tn) if tn > 0 else 0.0
        points.append(
            ScaleoutPoint(
                devices=n,
                cluster_time_s=tn,
                speedup=speedup,
                efficiency=speedup / n,
                exchange_bytes=rec.total_exchange_bytes,
                record=rec,
            )
        )
    return points


def cluster_to_run_record(c: ClusterRecord) -> RunRecord:
    """Fold a cluster run into the standard record shape.

    ``device`` becomes ``"<preset> xN"``, ``sim_time_s`` the cluster
    makespan, and the counter columns the partition-summed aggregates, so
    matrices/reports/journals handle cluster cells unchanged.  The full
    per-partition breakdown rides in ``extra["cluster"]`` as JSON-native
    data (journal round-trips preserve equality).
    """
    agg = c.counters
    return RunRecord(
        algorithm=c.algorithm,
        dataset=c.dataset,
        device=f"{c.device} x{c.devices}",
        status=c.status,
        triangles=c.triangles,
        sim_time_s=c.cluster_time_s,
        warp_execution_efficiency=agg.get("warp_execution_efficiency"),
        gld_transactions_per_request=agg.get("gld_transactions_per_request"),
        global_load_requests=agg.get("global_load_requests"),
        error=c.error,
        size_class=_safe_size_class(c.dataset),
        extra={
            "cluster": {
                "devices": c.devices,
                "partitioner": c.partitioner,
                "seed": c.seed,
                "total_exchange_bytes": c.total_exchange_bytes,
                "counters": dict(agg),
                "partitions": [asdict(p) for p in c.partitions],
            }
        },
    )


def run_cluster_matrix(
    algorithms=None,
    datasets=None,
    *,
    devices: int = 4,
    partitioner: str = "hash2d",
    seed: int = 0,
    device: DeviceSpec | None = None,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    cost_model: CostModel | None = None,
    jobs: int | None = 1,
    run_id: str | None = None,
    resume: bool = False,
    progress_callback=None,
) -> ComparisonMatrix:
    """Cluster analogue of :func:`~repro.framework.compare.run_matrix`.

    Each (algorithm, dataset) cell is one :func:`run_cluster` over
    ``devices`` simulated GPUs.  With ``run_id`` the cells are journaled
    exactly like single-device matrix runs; ``resume=True`` skips
    journaled cells, and the meta pins ``devices``/``partitioner``/``seed``
    so a resume cannot silently mix incompatible partitionings.
    """
    algorithms = tuple(algorithms) if algorithms else tuple(algorithm_names())
    datasets = tuple(datasets) if datasets else ()
    if not datasets:
        raise ValueError("run_cluster_matrix needs at least one dataset")
    device = device if device is not None else SIM_V100

    journal = None
    completed: dict = {}
    if run_id:
        journal = RunJournal(run_id)
        journal.check_or_write_meta(
            {
                "mode": "cluster",
                "devices": devices,
                "partitioner": partitioner,
                "seed": seed,
                "algorithms": list(algorithms),
                "datasets": list(datasets),
                "device": device.name,
                "ordering": ordering,
                "max_blocks_simulated": max_blocks_simulated,
            }
        )
        if resume:
            completed = journal.completed()

    records = []
    total = len(algorithms) * len(datasets)
    tracer = get_tracer()
    done = 0
    for ds in datasets:
        # One plan per dataset is shared by every algorithm's cell: the
        # partitioning depends only on (graph, devices, partitioner, seed).
        plan = build_plan(load_oriented(ds, ordering), devices, partitioner=partitioner, seed=seed)
        for alg in algorithms:
            key = (alg, ds)
            if key in completed:
                record = completed[key]
                tracer.info("resume_skip", algorithm=alg, dataset=ds)
            else:
                record = cluster_to_run_record(
                    run_cluster(
                        alg,
                        ds,
                        devices=devices,
                        partitioner=partitioner,
                        seed=seed,
                        device=device,
                        ordering=ordering,
                        max_blocks_simulated=max_blocks_simulated,
                        cost_model=cost_model,
                        jobs=jobs,
                        plan=plan,
                    )
                )
                if journal is not None:
                    journal.append(record)
            records.append(record)
            done += 1
            if progress_callback is not None:
                progress_callback(record, done, total)
    return ComparisonMatrix(
        records=tuple(records), algorithms=algorithms, datasets=datasets
    )
