"""SIMT GPU simulator: the hardware substrate for the studied kernels.

Stands in for the paper's Tesla V100 / RTX 4090 testbed.  Thread programs
(see :mod:`repro.gpu.intrinsics`) execute in warp lockstep with coalescing,
bank-conflict, divergence and occupancy effects, producing the nvprof
counters the paper profiles and a simulated kernel time via the cost model.
"""

from .cluster import (
    ENTRY_BYTES,
    PARTITIONERS,
    Partition,
    PartitionPlan,
    build_plan,
    edge1d_owners,
    hash2d_owners,
    hash_grid,
    vertex_hash,
)
from .costmodel import DEFAULT_COST_MODEL, CostModel, estimate_time
from .coop import group_inclusive_scan, scan_tmp_words
from .engine import record_launch, replay_launch, simulate_vectorized
from .device import (
    DEVICES,
    RTX_4090,
    SIM_RTX_4090,
    SIM_V100,
    TESLA_V100,
    DeviceSpec,
    get_device,
    scaled_device,
)
from .intrinsics import (
    ThreadCtx,
    alu,
    atomic_add_global,
    atomic_add_shared,
    atomic_or_global,
    atomic_or_shared,
    ld_global,
    ld_shared,
    shuffle_scan,
    st_global,
    st_shared,
    syncthreads,
    syncwarp,
    warp_exchange,
)
from .kernel import KernelConfigError, LaunchResult, launch_kernel
from .memory import (
    DeviceArray,
    DeviceOutOfMemory,
    GlobalMemory,
    SectorCache,
    coalesce_addresses,
)
from .metrics import SECTOR_BYTES, ProfileMetrics
from .sharedmem import (
    NUM_BANKS,
    SharedMemory,
    SharedMemoryOverflow,
    bank_conflicts,
    validate_shared_words,
)
from .trace import (
    LaunchTrace,
    TraceCache,
    TraceCacheStats,
    get_trace_cache,
    launch_fingerprint,
    reset_trace_cache,
    trace_cache_enabled,
)

__all__ = [
    "DEFAULT_COST_MODEL",
    "ENTRY_BYTES",
    "PARTITIONERS",
    "DEVICES",
    "NUM_BANKS",
    "RTX_4090",
    "SECTOR_BYTES",
    "SIM_RTX_4090",
    "SIM_V100",
    "SectorCache",
    "TESLA_V100",
    "CostModel",
    "DeviceArray",
    "DeviceOutOfMemory",
    "DeviceSpec",
    "GlobalMemory",
    "KernelConfigError",
    "LaunchResult",
    "LaunchTrace",
    "Partition",
    "PartitionPlan",
    "ProfileMetrics",
    "SharedMemory",
    "SharedMemoryOverflow",
    "ThreadCtx",
    "TraceCache",
    "TraceCacheStats",
    "alu",
    "atomic_add_global",
    "atomic_add_shared",
    "atomic_or_global",
    "atomic_or_shared",
    "bank_conflicts",
    "build_plan",
    "coalesce_addresses",
    "edge1d_owners",
    "estimate_time",
    "get_device",
    "hash2d_owners",
    "hash_grid",
    "get_trace_cache",
    "group_inclusive_scan",
    "launch_fingerprint",
    "launch_kernel",
    "ld_global",
    "ld_shared",
    "record_launch",
    "replay_launch",
    "reset_trace_cache",
    "scaled_device",
    "scan_tmp_words",
    "shuffle_scan",
    "simulate_vectorized",
    "st_global",
    "st_shared",
    "syncthreads",
    "syncwarp",
    "trace_cache_enabled",
    "validate_shared_words",
    "vertex_hash",
    "warp_exchange",
]
