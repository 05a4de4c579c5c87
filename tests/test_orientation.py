"""Orientation pre-processing (Section II-B)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.cpu_reference import (
    count_triangles_matrix,
    count_triangles_oriented,
)
from repro.graph import (
    degree_order,
    orient_by_degree,
    orient_by_id,
    oriented_csr,
    undirected_csr,
)
from repro.graph.generators import chung_lu, complete_graph, star, wheel

edge_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=0, max_size=60
)


class TestOrientById:
    def test_u_lt_v(self):
        g = orient_by_id([[3, 1], [0, 2]])
        assert g.is_oriented()

    def test_each_edge_once(self):
        g = orient_by_id(complete_graph(6))
        assert g.m == 15

    def test_meta(self):
        assert orient_by_id([[0, 1]]).meta["orientation"] == "id"


class TestDegreeOrder:
    def test_rank_is_permutation(self):
        rank = degree_order(wheel(8))
        assert sorted(rank.tolist()) == list(range(9))

    def test_hub_ranked_last(self):
        rank = degree_order(star(10))
        assert rank[0] == 9  # the hub has the highest degree

    def test_ties_broken_by_id(self):
        rank = degree_order(complete_graph(4))
        assert rank.tolist() == [0, 1, 2, 3]


class TestOrientByDegree:
    def test_oriented_after_relabel(self):
        g = orient_by_degree(wheel(12))
        assert g.is_oriented()

    def test_bounds_hub_out_degree(self):
        # The star's hub keeps every edge under id order but none under
        # degree order (leaves rank below the hub).
        gid = orient_by_id(star(20))
        gdeg = orient_by_degree(star(20))
        assert gid.max_degree == 19
        assert gdeg.max_degree == 1

    def test_preserves_triangle_count(self):
        edges = chung_lu(60, 250, seed=2)
        expected = count_triangles_matrix(edges)
        assert count_triangles_oriented(orient_by_degree(edges)) == expected
        assert count_triangles_oriented(orient_by_id(edges)) == expected

    def test_no_relabel_keeps_ids(self):
        g = orient_by_degree(star(5), relabel=False)
        assert g.n == 5
        # Without relabelling the hub (id 0) is a destination everywhere.
        assert g.degree(0) == 0

    @given(edge_lists)
    def test_edge_count_preserved(self, pairs):
        gid = orient_by_id(pairs)
        gdeg = orient_by_degree(pairs)
        assert gid.m == gdeg.m


class TestUndirectedCSR:
    def test_symmetric(self):
        g = undirected_csr([[0, 1], [1, 2]])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.m == 4

    def test_degree_is_undirected(self):
        g = undirected_csr(wheel(6))
        assert g.degree(0) == 6


class TestDispatch:
    def test_id(self):
        assert oriented_csr([[1, 0]], ordering="id").meta["orientation"] == "id"

    def test_degree(self):
        assert oriented_csr([[1, 0]], ordering="degree").meta["orientation"] == "degree"

    def test_unknown(self):
        with pytest.raises(ValueError):
            oriented_csr([[0, 1]], ordering="random")
