"""All nine implementations: metadata, counts, and structural fidelity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import algorithm_names, all_algorithms, get_algorithm
from repro.algorithms.base import TCAlgorithm, register
from repro.algorithms.cpu_reference import count_triangles_oriented
from repro.graph import clean_edges, orient_by_degree, orient_by_id
from repro.graph.generators import chung_lu

ALL = algorithm_names()

edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=0, max_size=45
)


class TestRegistry:
    def test_nine_algorithms(self):
        assert len(ALL) == 9

    def test_table1_names_present(self):
        for name in ("Green", "Polak", "Bisson", "TriCore", "Fox", "Hu", "H-INDEX", "TRUST", "GroupTC"):
            assert name in ALL

    def test_chronological_order(self):
        years = [cls.year for cls in all_algorithms()]
        assert years == sorted(years)

    def test_get_algorithm_case_insensitive(self):
        assert get_algorithm("polak").name == "Polak"
        assert get_algorithm("TRUST").name == "TRUST"

    def test_get_algorithm_unknown(self):
        with pytest.raises(KeyError):
            get_algorithm("cuGraph")

    def test_config_passthrough(self):
        alg = get_algorithm("GroupTC", chunk=128)
        assert alg.config == {"chunk": 128}

    def test_duplicate_registration_rejected(self):
        class Clone(TCAlgorithm):
            name = "Polak"

        with pytest.raises(ValueError):
            register(Clone)


class TestTable1Metadata:
    """The taxonomy of Table I, row by row."""

    @pytest.mark.parametrize(
        "name,year,iterator,intersection,granularity",
        [
            ("Green", 2014, "edge", "merge", "fine"),
            ("Polak", 2016, "edge", "merge", "coarse"),
            ("Bisson", 2017, "vertex", "bitmap", "coarse"),
            ("TriCore", 2018, "edge", "binary-search", "fine"),
            ("Fox", 2018, "edge", "binary-search", "fine"),
            ("Hu", 2019, "vertex", "binary-search", "fine"),
            ("H-INDEX", 2019, "edge", "hash", "fine"),
            ("TRUST", 2021, "vertex", "hash", "fine"),
            ("GroupTC", 2024, "edge", "binary-search", "fine"),
        ],
    )
    def test_row(self, name, year, iterator, intersection, granularity):
        row = get_algorithm(name).table1_row()
        assert row["year"] == year
        assert row["iterator"] == iterator
        assert row["intersection"] == intersection
        assert row["granularity"] == granularity


@pytest.mark.parametrize("name", ALL)
class TestExactCounts:
    def test_known_graphs(self, name, known_graph):
        edges, expected = known_graph
        csr = orient_by_id(edges)
        if expected is None:
            expected = count_triangles_oriented(csr)
        assert get_algorithm(name).count(csr) == expected

    def test_structural_count_matches(self, name, powerlaw_csr):
        alg = get_algorithm(name)
        assert alg.count_structural(powerlaw_csr) == alg.count(powerlaw_csr)

    def test_degree_ordered_input(self, name):
        edges = chung_lu(70, 280, seed=11)
        csr = orient_by_degree(edges)
        assert get_algorithm(name).count(csr) == count_triangles_oriented(csr)


class TestPropertyAgreement:
    """The central invariant: all nine algorithms count identically."""

    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_all_algorithms_agree(self, pairs):
        csr = orient_by_id(clean_edges(pairs))
        expected = count_triangles_oriented(csr)
        for name in ALL:
            assert get_algorithm(name).count(csr) == expected, name

    @given(edge_lists)
    @settings(max_examples=8, deadline=None)
    def test_structural_paths_agree(self, pairs):
        csr = orient_by_id(clean_edges(pairs))
        expected = count_triangles_oriented(csr)
        for name in ALL:
            assert get_algorithm(name).count_structural(csr) == expected, name


class TestFootprints:
    def test_default_footprint_scales_with_m(self):
        alg = get_algorithm("Polak")
        small = alg.device_footprint_bytes(100, 1_000, 10, None)
        big = alg.device_footprint_bytes(100, 1_000_000, 10, None)
        assert big > small

    def test_vertex_iterators_skip_edge_array(self):
        from repro.gpu import TESLA_V100

        edge_alg = get_algorithm("Polak")
        vertex_alg = get_algorithm("Hu")
        m = 1_000_000
        assert edge_alg.device_footprint_bytes(10, m, 5, TESLA_V100) > (
            vertex_alg.device_footprint_bytes(10, m, 5, TESLA_V100)
        )

    def test_hindex_blows_up_with_degree(self):
        from repro.gpu import TESLA_V100

        alg = get_algorithm("H-INDEX")
        lo = alg.device_footprint_bytes(10**6, 10**8, 100, TESLA_V100)
        hi = alg.device_footprint_bytes(10**6, 10**8, 100_000, TESLA_V100)
        assert hi > 50 * lo

    def test_bisson_bitmap_pool_counted(self):
        from repro.gpu import TESLA_V100

        alg = get_algorithm("Bisson")
        # Wide graph whose bitmap exceeds shared memory => pool in DRAM.
        big_n = alg.device_footprint_bytes(50_000_000, 10**8, 100, TESLA_V100)
        small_n = alg.device_footprint_bytes(50_000, 10**8, 100, TESLA_V100)
        assert big_n > small_n + 10**9
