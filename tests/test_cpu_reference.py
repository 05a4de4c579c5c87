"""Reference counters agree with each other and with networkx."""

import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cpu_reference import (
    count_triangles_matrix,
    count_triangles_node_iterator,
    count_triangles_oriented,
    per_edge_triangles,
    per_vertex_triangles,
)
from repro.graph import clean_edges, orient_by_degree, orient_by_id
from repro.graph.generators import chung_lu, complete_graph, wheel
from repro.verify.fixtures import fixture_csr, fixture_edges, fixture_names

edge_lists = st.lists(
    st.tuples(st.integers(0, 18), st.integers(0, 18)), min_size=0, max_size=60
)


class TestKnownCounts:
    def test_known_graphs(self, known_graph):
        edges, expected = known_graph
        if expected is None:
            expected = count_triangles_matrix(edges)
        assert count_triangles_oriented(orient_by_id(edges)) == expected

    def test_k10(self):
        assert count_triangles_oriented(orient_by_id(complete_graph(10))) == 120


class TestCrossImplementationAgreement:
    @given(edge_lists)
    @settings(max_examples=40)
    def test_three_references_agree(self, pairs):
        edges = clean_edges(pairs)
        a = count_triangles_oriented(orient_by_id(edges))
        b = count_triangles_matrix(edges)
        c = count_triangles_node_iterator(edges)
        assert a == b == c

    @given(edge_lists)
    @settings(max_examples=25)
    def test_orientation_invariance(self, pairs):
        edges = clean_edges(pairs)
        assert count_triangles_oriented(orient_by_id(edges)) == count_triangles_oriented(
            orient_by_degree(edges)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_against_networkx(self, seed):
        g = nx.gnm_random_graph(50, 170, seed=seed)
        edges = np.array(list(g.edges()), dtype=np.int64)
        expected = sum(nx.triangles(g).values()) // 3
        assert count_triangles_oriented(orient_by_id(edges)) == expected


class TestDecompositions:
    def test_per_edge_sums_to_total(self):
        csr = orient_by_id(chung_lu(60, 220, seed=4))
        assert int(per_edge_triangles(csr).sum()) == count_triangles_oriented(csr)

    def test_per_vertex_sums_to_total(self):
        csr = orient_by_id(chung_lu(60, 220, seed=4))
        assert int(per_vertex_triangles(csr).sum()) == count_triangles_oriented(csr)

    def test_per_vertex_wheel(self):
        csr = orient_by_id(wheel(6))
        pv = per_vertex_triangles(csr)
        # every wheel triangle contains hub 0, the lowest id, so all six
        # are rooted there
        assert pv[0] == 6
        assert pv.sum() == 6

    def test_empty(self):
        csr = orient_by_id([])
        assert count_triangles_oriented(csr) == 0
        assert per_vertex_triangles(csr).shape == (0,)


class TestLazySciPy:
    """SciPy is imported only by the matrix oracle, never at start-up."""

    @pytest.mark.parametrize("module", ["repro", "repro.framework.cli"])
    def test_import_leaves_scipy_unloaded(self, module):
        code = f"import sys, {module}; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    @pytest.mark.parametrize("name", fixture_names())
    def test_matrix_oracle_matches_oriented_on_fixtures(self, name):
        assert count_triangles_matrix(fixture_edges(name)) == count_triangles_oriented(
            fixture_csr(name)
        )
