"""Single-run harness: one algorithm, one dataset, one device.

This is the execution half of the paper's unified testing framework: it
prepares the dataset replica in the format the algorithm consumes, checks
the algorithm's *paper-scale* device footprint against the real device's
memory (the red-cross failure cells of Figures 11 and 12), runs the SIMT
simulation, and wraps everything in a :class:`RunRecord`.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

from ..algorithms.base import TCAlgorithm, get_algorithm
from ..gpu.costmodel import CostModel
from ..gpu.device import SIM_V100, TESLA_V100, DeviceSpec
from ..gpu.memory import DeviceOutOfMemory
from ..gpu.sharedmem import SharedMemoryOverflow
from ..graph.csr import CSRGraph
from ..graph.datasets import get_spec, load_oriented, size_class
from ..obs.tracer import get_tracer

__all__ = [
    "RunRecord",
    "run_one",
    "run_one_safe",
    "paper_scale_footprint",
    "DEFAULT_MAX_BLOCKS",
]

#: default block-sampling budget per launch; keeps a full 9x19 matrix
#: tractable while staying statistically representative for homogeneous
#: grids (see repro.gpu.kernel).
DEFAULT_MAX_BLOCKS = 16


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (algorithm, dataset, device) cell.

    ``status`` is ``"ok"`` for a completed run and ``"failed"`` for the
    paper's red-cross cases (device out of memory or an invalid kernel
    configuration at paper scale) as well as crashes and exhausted
    timeouts.  The resilience layer adds two more: ``"degraded"`` for a
    run that succeeded only at a timeout-reduced block budget, and
    ``"invalid"`` for a run quarantined by the cpu_reference cross-check.
    """

    algorithm: str
    dataset: str
    device: str
    status: str
    triangles: int | None = None
    sim_time_s: float | None = None
    warp_execution_efficiency: float | None = None
    gld_transactions_per_request: float | None = None
    global_load_requests: float | None = None
    #: machine-independent work dimension (repro.analysis.work): element
    #: comparisons the algorithm performs on this replica, and their ratio
    #: to the instance-optimal intersection lower bound.  Pure functions of
    #: the graph — identical across devices and engines.
    comparisons: float | None = None
    work_ratio: float | None = None
    error: str | None = None
    size_class: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def usable(self) -> bool:
        """True when the record carries real measurements.

        ``degraded`` cells (timeout-reduced block sampling, see
        :mod:`repro.framework.resilience`) are usable but must be rendered
        distinctly; ``failed`` and quarantined ``invalid`` cells are not.
        """
        return self.status in ("ok", "degraded")


def paper_scale_footprint(
    algorithm: TCAlgorithm, dataset: str, csr: CSRGraph, device: DeviceSpec
) -> int:
    """Algorithm's device working set at the *paper's* dataset scale.

    The replica's structural shape is extrapolated to Table II dimensions:
    ``n`` and ``m`` come from the spec, and the max out-degree is scaled by
    the square root of the edge ratio (degree tails of power-law graphs
    grow polynomially with size; the exponent 0.5 matches the replicas'
    sub-linear edge map).
    """
    spec = get_spec(dataset)
    ratio = max(spec.paper_edges / max(csr.m, 1), 1.0)
    max_deg = int(csr.max_degree * ratio**0.5)
    return algorithm.device_footprint_bytes(
        spec.paper_vertices, spec.paper_edges, max_deg, device
    )


def run_one(
    algorithm: str | TCAlgorithm,
    dataset: str,
    *,
    device: DeviceSpec | None = SIM_V100,
    capacity_device: DeviceSpec | None = TESLA_V100,
    ordering: str = "degree",
    max_blocks_simulated: int | None = DEFAULT_MAX_BLOCKS,
    cost_model: CostModel | None = None,
) -> RunRecord:
    """Run one cell of the comparison matrix.

    Parameters
    ----------
    algorithm:
        Registered algorithm name or instance.
    dataset:
        Table II dataset name (replica is generated/memoised on demand).
    device:
        Simulation device (``None`` or omitted: the replica-scaled V100).
    capacity_device:
        Device whose *real* memory bounds the paper-scale footprint check
        (``None`` or omitted: the full 16 GB V100, reproducing the paper's
        failures).
    """
    device = device if device is not None else SIM_V100
    capacity_device = capacity_device if capacity_device is not None else TESLA_V100
    alg = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    csr = load_oriented(dataset, ordering)
    regime = size_class(dataset)
    tracer = get_tracer()
    try:
        footprint = paper_scale_footprint(alg, dataset, csr, capacity_device)
        if footprint > capacity_device.global_mem_bytes:
            raise DeviceOutOfMemory(
                f"{alg.name} needs {footprint / 1e9:.1f} GB at {dataset}'s "
                f"paper scale; {capacity_device.name} has "
                f"{capacity_device.global_mem_bytes / 1e9:.1f} GB"
            )
        with tracer.span(
            "run", level="debug", algorithm=alg.name, dataset=dataset, device=device.name
        ):
            result = alg.profile(
                csr,
                device=device,
                max_blocks_simulated=max_blocks_simulated,
                cost_model=cost_model,
                dataset=dataset,
            )
    except (DeviceOutOfMemory, SharedMemoryOverflow) as exc:
        tracer.warning(
            "run_failed", algorithm=alg.name, dataset=dataset, error=str(exc)
        )
        return RunRecord(
            algorithm=alg.name,
            dataset=dataset,
            device=device.name,
            status="failed",
            error=str(exc),
            size_class=regime,
        )
    m = result.metrics
    comparisons = work_ratio = None
    try:
        from ..analysis.work import work_efficiency

        we = work_efficiency(csr, alg.name)
        comparisons = float(we.comparisons)
        work_ratio = we.work_ratio
    except Exception as exc:  # metric must never fail a measured cell
        tracer.warning(
            "work_metric_failed", algorithm=alg.name, dataset=dataset, error=str(exc)
        )
    return RunRecord(
        algorithm=alg.name,
        dataset=dataset,
        device=device.name,
        status="ok",
        triangles=result.triangles,
        sim_time_s=result.sim_time_s,
        warp_execution_efficiency=m.warp_execution_efficiency,
        gld_transactions_per_request=m.gld_transactions_per_request,
        global_load_requests=m.global_load_requests,
        comparisons=comparisons,
        work_ratio=work_ratio,
        size_class=regime,
        extra={
            "device_triangles": result.device_triangles,
            "l1_hit_rate": m.l1_hit_rate,
            "l2_hit_rate": m.l2_hit_rate,
            "dram_bytes": m.dram_bytes,
            "kernel_launches": m.kernel_launches,
        },
    )


def _traceback_tail(exc: BaseException) -> str:
    """``[at file.py:NN in func]`` for the innermost frame of an exception.

    Failed cells are usually diagnosed from the journal alone (the original
    process — and its traceback — is long gone), so the error string must
    carry enough of the traceback to locate the fault.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return ""
    last = frames[-1]
    return f" [at {os.path.basename(last.filename)}:{last.lineno} in {last.name}]"


def run_one_safe(algorithm: str | TCAlgorithm, dataset: str, **kwargs) -> RunRecord:
    """:func:`run_one`, but *any* exception becomes a failed record.

    ``run_one`` only treats the paper's expected failure modes (device out
    of memory, shared-memory overflow) as red-cross cells; everything else
    propagates.  The parallel matrix executor needs the stronger guarantee
    that one broken cell can never abort a 171-cell run, so its workers go
    through this wrapper.  The failed record names the *resolved* device
    (even when ``device`` was omitted or ``None``) and the innermost
    traceback frame, so a journaled failure is diagnosable on its own.
    """
    device: DeviceSpec = kwargs.get("device") or SIM_V100
    try:
        return run_one(algorithm, dataset, **kwargs)
    except Exception as exc:
        name = algorithm if isinstance(algorithm, str) else getattr(algorithm, "name", str(algorithm))
        try:
            regime = size_class(dataset)
        except KeyError:
            regime = ""
        return RunRecord(
            algorithm=name,
            dataset=dataset,
            device=getattr(device, "name", str(device)),
            status="failed",
            error=f"{type(exc).__name__}: {exc}{_traceback_tail(exc)}",
            size_class=regime,
        )
