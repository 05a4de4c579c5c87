"""Cost model: profiled counters → simulated kernel time.

Triangle counting is memory-bound (Section I factor 3), but the paper's
results show three distinct regimes the model must capture:

* **tiny kernels** are dominated by fixed launch overhead and exposed
  memory latency (too few warps in flight to hide it) — this is why simple
  Polak beats everything on small graphs;
* **compute/divergence-bound kernels** pay for issue cycles, which grow
  with warp divergence (idle lanes still occupy steps) and bank-conflict
  replays;
* **bandwidth-bound kernels** pay for DRAM sectors, which grow with poor
  coalescing.

The model is an explicit max-of-rooflines plus latency and overhead terms;
every constant is a named field so ablation benches can perturb it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec
from .metrics import ProfileMetrics

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "estimate_time"]


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the timing model."""

    #: DRAM access latency in cycles (Volta ~400-500; what a lone warp eats).
    dram_latency_cycles: float = 450.0
    #: L2-hit latency in cycles; request latency blends L1/L2/DRAM by the
    #: launch's measured hit fractions.
    l2_latency_cycles: float = 190.0
    #: L1-hit latency in cycles (on-core, near shared-memory speed).
    l1_latency_cycles: float = 30.0
    #: pipe occupancy for sectors served by the per-SM L1, in issue cycles.
    l1_cycles_per_transaction: float = 1.0
    #: memory-pipe occupancy per 32 B sector, in issue cycles.  Triangle
    #: counting is memory-throughput-bound (Section I factor 3): every
    #: sector a warp touches occupies the LSU/L2 pipe, so this charge is
    #: what rewards coalescing and low total work in the simulated time.
    lsu_cycles_per_transaction: float = 8.0
    #: issue cycles per shared-memory transaction (incl. replays).
    shared_cycles_per_transaction: float = 1.0
    #: fraction of peak DRAM bandwidth sustained by irregular access streams.
    achievable_bandwidth_fraction: float = 0.75
    #: fraction of peak interconnect bandwidth sustained by the scatter of
    #: small remote-row fetches a partitioned run performs (multi-GPU
    #: scale-out, ``repro.gpu.cluster``).
    link_efficiency: float = 0.8

    def exchange_time(self, exchange_bytes: int, peers: int, device: DeviceSpec) -> float:
        """Seconds one partition spends fetching remote CSR entries.

        A fixed per-peer message latency plus the byte volume over the
        device's (derated) link bandwidth.  Partitions exchange before
        they compute, so the cluster executor adds this to each device's
        kernel time and takes the max across devices as the makespan.
        """
        if exchange_bytes <= 0:
            return 0.0
        bandwidth = device.link_bandwidth_bytes_per_s * self.link_efficiency
        return peers * device.link_latency_s + exchange_bytes / bandwidth

    def kernel_time(self, metrics: ProfileMetrics, device: DeviceSpec) -> float:
        """Simulated wall time (seconds) for the accumulated launches.

        When per-launch snapshots are available each launch is costed with
        its own concurrency and overhead and the times are summed (the
        launches of one algorithm run back to back on the device);
        otherwise the merged counters are costed as a single launch.
        """
        if metrics.launches:
            return sum(self._one_launch(l, device) for l in metrics.launches)
        return self._one_launch(metrics, device)

    def _one_launch(self, metrics: ProfileMetrics, device: DeviceSpec) -> float:
        # --- compute roofline: issue cycles spread over all schedulers ----
        off_core = max(metrics.total_sectors - metrics.l1_hit_sectors, 0.0)
        issue = (
            metrics.issue_cycles
            + self.lsu_cycles_per_transaction * off_core
            + self.l1_cycles_per_transaction * metrics.l1_hit_sectors
            + self.shared_cycles_per_transaction
            * (metrics.shared_load_transactions + metrics.shared_store_transactions)
        )
        # Warps actually resident device-wide, bounded by the launch size.
        concurrency = min(
            device.sm_count * device.max_resident_warps_per_sm,
            max(metrics.warps_launched, 1.0),
        )
        issue_rate = min(device.max_parallel_warp_issue, concurrency)
        compute_time = issue / issue_rate / device.clock_hz

        # --- bandwidth roofline -------------------------------------------
        dram_time = metrics.dram_bytes / (
            device.mem_bandwidth_bytes_per_s * self.achievable_bandwidth_fraction
        )

        # --- exposed latency: each in-flight warp chain eats full latency
        # for its dependent requests; concurrency hides the rest. ----------
        requests = (
            metrics.global_load_requests
            + metrics.global_store_requests
            + metrics.atomic_requests
        )
        f_l1 = metrics.l1_hit_rate
        f_dram = 1.0 - metrics.l2_hit_rate
        f_l2 = max(1.0 - f_l1 - f_dram, 0.0)
        eff_latency = (
            f_l1 * self.l1_latency_cycles
            + f_l2 * self.l2_latency_cycles
            + f_dram * self.dram_latency_cycles
        )
        latency_time = requests * eff_latency / max(concurrency, 1.0) / device.clock_hz

        overhead = metrics.kernel_launches * device.kernel_launch_overhead_s
        return overhead + max(compute_time, dram_time, latency_time)


DEFAULT_COST_MODEL = CostModel()


def estimate_time(
    metrics: ProfileMetrics,
    device: DeviceSpec,
    model: CostModel | None = None,
) -> float:
    """Convenience wrapper: simulated seconds under the default model."""
    return (model or DEFAULT_COST_MODEL).kernel_time(metrics, device)
