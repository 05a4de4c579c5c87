"""Device specs, metrics bookkeeping, memory model, shared memory."""

import numpy as np
import pytest

from repro.gpu import (
    NUM_BANKS,
    RTX_4090,
    SECTOR_BYTES,
    SIM_V100,
    TESLA_V100,
    DeviceOutOfMemory,
    GlobalMemory,
    ProfileMetrics,
    SectorCache,
    SharedMemory,
    SharedMemoryOverflow,
    bank_conflicts,
    coalesce_addresses,
    get_device,
    scaled_device,
)


class TestDeviceSpec:
    def test_v100_constants(self):
        assert TESLA_V100.sm_count == 80
        assert TESLA_V100.warp_size == 32
        assert TESLA_V100.global_mem_bytes == 16 * 1024**3

    def test_rtx4090_constants(self):
        assert RTX_4090.sm_count == 144
        assert RTX_4090.shared_mem_per_block == 128 * 1024

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            TESLA_V100.with_overrides(sm_count=0)
        with pytest.raises(ValueError):
            TESLA_V100.with_overrides(max_threads_per_block=100)

    def test_get_device_aliases(self):
        assert get_device("V100") is TESLA_V100
        assert get_device("rtx-4090") is RTX_4090
        assert get_device("sim_v100") is SIM_V100

    def test_get_device_unknown(self):
        with pytest.raises(KeyError):
            get_device("h100")

    def test_scaled_device(self):
        d = scaled_device(TESLA_V100, 0.1)
        assert d.sm_count == 8
        assert d.mem_bandwidth_bytes_per_s == pytest.approx(90e9)
        assert d.global_mem_bytes == TESLA_V100.global_mem_bytes  # unchanged
        assert d.clock_hz == TESLA_V100.clock_hz

    def test_scaled_rejects_zero(self):
        with pytest.raises(ValueError):
            scaled_device(TESLA_V100, 0)


class TestProfileMetrics:
    def test_warp_efficiency(self):
        m = ProfileMetrics(warp_steps=10, active_lane_steps=160)
        assert m.warp_execution_efficiency == 0.5

    def test_efficiency_of_idle_kernel(self):
        assert ProfileMetrics().warp_execution_efficiency == 1.0

    def test_tpr(self):
        m = ProfileMetrics(global_load_requests=4, global_load_transactions=16)
        assert m.gld_transactions_per_request == 4.0
        assert ProfileMetrics().gld_transactions_per_request == 0.0

    def test_dram_bytes_use_misses(self):
        m = ProfileMetrics(global_load_transactions=100, dram_sectors=10)
        assert m.dram_bytes == 10 * SECTOR_BYTES

    def test_hit_rates(self):
        m = ProfileMetrics(
            global_load_transactions=100, dram_sectors=20, l1_hit_sectors=30
        )
        assert m.l2_hit_rate == pytest.approx(0.8)
        assert m.l1_hit_rate == pytest.approx(0.3)

    def test_scaled(self):
        m = ProfileMetrics(global_load_requests=5, warp_steps=7, blocks_simulated=2)
        s = m.scaled(3.0)
        assert s.global_load_requests == 15
        assert s.warp_steps == 21
        assert s.blocks_simulated == 2  # real effort, not extrapolated

    def test_merge_accumulates(self):
        a = ProfileMetrics(global_load_requests=5, kernel_launches=1)
        b = ProfileMetrics(global_load_requests=7, kernel_launches=1)
        a.merge(b)
        assert a.global_load_requests == 12
        assert a.kernel_launches == 2
        assert len(a.launches) == 1  # b recorded as one launch snapshot

    def test_merge_rejects_mixed_warp_size(self):
        a = ProfileMetrics(warp_size=32)
        with pytest.raises(ValueError):
            a.merge(ProfileMetrics(warp_size=64))

    def test_as_dict_has_derived(self):
        d = ProfileMetrics().as_dict()
        assert "warp_execution_efficiency" in d
        assert "gld_transactions_per_request" in d
        assert "launches" not in d


class TestGlobalMemory:
    def test_alloc_and_addresses(self):
        gm = GlobalMemory(TESLA_V100)
        a = gm.alloc("a", np.arange(10))
        b = gm.alloc("b", np.arange(10))
        assert a.base % 256 == 0 and b.base % 256 == 0
        assert b.base > a.base
        assert a.addr(2) == a.base + 8

    def test_oom(self):
        gm = GlobalMemory(TESLA_V100)
        with pytest.raises(DeviceOutOfMemory):
            gm.alloc("big", np.zeros(1), itemsize=17 * 1024**3)

    def test_zeros_oom_before_host_alloc(self):
        gm = GlobalMemory(TESLA_V100)
        with pytest.raises(DeviceOutOfMemory):
            gm.zeros("huge", 100 * 1024**3)

    def test_free_releases_capacity(self):
        gm = GlobalMemory(TESLA_V100)
        gm.alloc("a", np.zeros(100))
        before = gm.bytes_allocated
        gm.free("a")
        assert gm.bytes_allocated == before - 400

    def test_rejects_2d(self):
        gm = GlobalMemory(TESLA_V100)
        with pytest.raises(ValueError):
            gm.alloc("m", np.zeros((2, 2)))

    def test_coalesce_addresses(self):
        # 8 consecutive 4-byte words share one 32-byte sector
        assert coalesce_addresses([i * 4 for i in range(8)]) == 1
        assert coalesce_addresses([i * 32 for i in range(8)]) == 8
        assert coalesce_addresses([]) == 0


class TestSectorCache:
    def test_hits_after_insert(self):
        c = SectorCache(4)
        assert len(c.access([1, 2])) == 2
        assert len(c.access([1, 2])) == 0

    def test_lru_eviction(self):
        c = SectorCache(2)
        c.access([1, 2])
        c.access([3])  # evicts 1
        assert len(c.access([1])) == 1
        assert len(c.access([3])) == 0

    def test_recency_refresh(self):
        c = SectorCache(2)
        c.access([1, 2])
        c.access([1])  # refresh 1; 2 becomes LRU
        c.access([3])  # evicts 2
        assert len(c.access([1])) == 0
        assert len(c.access([2])) == 1

    def test_zero_capacity(self):
        c = SectorCache(0)
        assert len(c.access([1, 2, 3])) == 3


class TestSharedMemory:
    def test_capacity_check(self):
        with pytest.raises(SharedMemoryOverflow):
            SharedMemory(100_000, device_limit_bytes=48 * 1024)

    def test_load_store(self):
        sm = SharedMemory(8)
        sm.store(3, 42)
        assert sm.load(3) == 42

    def test_atomic_add_returns_old(self):
        sm = SharedMemory(2)
        assert sm.atomic_add(0, 5) == 0
        assert sm.atomic_add(0, 5) == 5

    def test_bank_conflicts(self):
        assert bank_conflicts([0, 1, 2, 3]) == 1  # distinct banks
        assert bank_conflicts([0, 32]) == 2  # same bank, two words
        assert bank_conflicts([5, 5, 5]) == 1  # broadcast
        assert bank_conflicts([]) == 0
        assert bank_conflicts([0, NUM_BANKS, 2 * NUM_BANKS]) == 3
