"""SIMT fidelity: the simulated kernels compute exact counts on-device.

Every algorithm's thread programs run unsampled on small graphs; the
device-side accumulator must equal the vectorised count.  This pins the
kernels' control flow (merge paths, heap searches, hash collision chains,
bitmap lifecycles, prefix scans) to the real algorithms.
"""

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.gpu import SIM_V100
from repro.graph import orient_by_degree, orient_by_id, oriented_csr
from repro.graph.generators import bipartite, chung_lu, complete_graph, star

ALL = algorithm_names()


@pytest.mark.parametrize("name", ALL)
class TestDeviceCounts:
    def test_wheel(self, name, wheel_csr):
        r = get_algorithm(name).profile(wheel_csr)
        assert r.device_triangles == r.triangles == 10

    def test_k13(self, name):
        csr = oriented_csr(complete_graph(13))
        r = get_algorithm(name).profile(csr)
        assert r.device_triangles == 286

    def test_triangle_free(self, name):
        csr = oriented_csr(bipartite(5, 6))
        r = get_algorithm(name).profile(csr)
        assert r.device_triangles == 0

    def test_star_with_hub(self, name):
        csr = oriented_csr(star(40))
        r = get_algorithm(name).profile(csr)
        assert r.device_triangles == 0

    def test_powerlaw_id_orientation(self, name):
        csr = orient_by_id(chung_lu(60, 260, seed=13))
        r = get_algorithm(name).profile(csr)
        assert r.device_triangles == r.triangles

    def test_powerlaw_degree_orientation(self, name):
        csr = orient_by_degree(chung_lu(60, 260, seed=14))
        r = get_algorithm(name).profile(csr)
        assert r.device_triangles == r.triangles

    def test_empty_graph(self, name):
        csr = oriented_csr([])
        r = get_algorithm(name).profile(csr)
        assert r.device_triangles == 0

    def test_single_edge(self, name):
        csr = oriented_csr([[0, 1]])
        r = get_algorithm(name).profile(csr)
        assert r.device_triangles == 0


@pytest.mark.parametrize("name", ALL)
class TestProfileMetadata:
    def test_metrics_populated(self, name, k5_csr):
        r = get_algorithm(name).profile(k5_csr)
        assert r.metrics.warp_steps > 0
        assert 0.0 < r.metrics.warp_execution_efficiency <= 1.0
        assert r.sim_time_s > 0

    def test_sampled_run_drops_device_count(self, name):
        csr = orient_by_degree(chung_lu(200, 900, seed=5))
        r = get_algorithm(name).profile(csr, max_blocks_simulated=1)
        if r.metrics.blocks_simulated < r.metrics.blocks_launched:
            assert r.device_triangles is None
        # Exact count is reported regardless.
        from repro.algorithms.cpu_reference import count_triangles_oriented

        assert r.triangles == count_triangles_oriented(csr)

    def test_device_name_recorded(self, name, k5_csr):
        r = get_algorithm(name).profile(k5_csr, device=SIM_V100)
        assert r.device == SIM_V100.name


class TestHubGraphs:
    """Exercise the degree-tier and spill paths with high-degree vertices."""

    def test_trust_block_tier(self):
        csr = orient_by_id(chung_lu(300, 3200, exponent=1.9, seed=9))
        assert csr.max_degree > 100  # block tier engaged
        r = get_algorithm("TRUST").profile(csr)
        assert r.device_triangles == r.triangles

    def test_hindex_spill_path(self):
        csr = orient_by_id(chung_lu(200, 2400, exponent=1.9, seed=8))
        r = get_algorithm("H-INDEX").profile(csr)
        assert r.device_triangles == r.triangles

    def test_bisson_block_mode(self):
        csr = oriented_csr(complete_graph(45))  # avg degree 44 > 38
        r = get_algorithm("Bisson").profile(csr)
        assert r.device_triangles == 45 * 44 * 43 // 6

    def test_bisson_warp_mode_forced(self):
        csr = orient_by_id(chung_lu(80, 320, seed=3))
        r = get_algorithm("Bisson", mode="warp").profile(csr)
        assert r.device_triangles == r.triangles

    def test_tricore_uncached_matches(self):
        csr = orient_by_id(chung_lu(80, 400, seed=6))
        a = get_algorithm("TriCore", cache_nodes=0).profile(csr)
        b = get_algorithm("TriCore").profile(csr)
        assert a.device_triangles == b.device_triangles == a.triangles

    def test_grouptc_small_chunk(self):
        csr = orient_by_id(chung_lu(80, 400, seed=6))
        r = get_algorithm("GroupTC", chunk=64).profile(csr)
        assert r.device_triangles == r.triangles
