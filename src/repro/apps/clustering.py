"""Clustering coefficients — one of the Section I motivating applications.

Both the global coefficient (transitivity) and per-vertex local
coefficients are computed from per-vertex triangle incidences, which in
turn come from the same oriented-CSR intersection machinery the counting
kernels use.
"""

from __future__ import annotations

import numpy as np

from ..graph.edgelist import as_edge_array, clean_edges
from ..graph.orientation import orient_by_id
from ..intersect.binsearch import batch_membership

__all__ = [
    "triangles_per_vertex",
    "local_clustering",
    "global_clustering",
    "average_clustering",
]


def triangles_per_vertex(edges) -> np.ndarray:
    """Number of triangles each vertex participates in.

    Unlike :func:`repro.algorithms.per_vertex_triangles` (triangles *rooted*
    at a vertex), this credits all three corners: for each oriented edge
    ``(u, v)`` and each common neighbour ``w``, the counters of ``u``,
    ``v`` and ``w`` all increment.
    """
    edges = clean_edges(as_edge_array(edges))
    if edges.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    csr = orient_by_id(edges)
    counts = np.zeros(csr.n, dtype=np.int64)
    eu = csr.edge_sources()
    ev = csr.col
    deg = csr.degrees
    qcounts = deg[ev]
    total = int(qcounts.sum())
    if total:
        edge_of_query = np.repeat(np.arange(csr.m, dtype=np.int64), qcounts)
        seg_starts = np.concatenate([[0], np.cumsum(qcounts)[:-1]])
        offsets = np.arange(total, dtype=np.int64) - seg_starts[edge_of_query]
        witnesses = csr.col[csr.row_ptr[ev][edge_of_query] + offsets]
        hits = batch_membership(csr, eu[edge_of_query], witnesses)
        per_edge = np.bincount(edge_of_query[hits], minlength=csr.m)
        np.add.at(counts, eu, per_edge)
        np.add.at(counts, ev, per_edge)
        np.add.at(counts, witnesses[hits], 1)
    return counts


def local_clustering(edges) -> np.ndarray:
    """Watts-Strogatz local clustering coefficient of every vertex.

    ``C(v) = 2 * triangles(v) / (d(v) * (d(v) - 1))``, 0 for degree < 2.
    """
    edges = clean_edges(as_edge_array(edges))
    if edges.shape[0] == 0:
        return np.zeros(0)
    n = int(edges.max()) + 1
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    tri = triangles_per_vertex(edges).astype(np.float64)
    wedges = deg * (deg - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(wedges > 0, tri / wedges, 0.0)
    return c


def average_clustering(edges) -> float:
    """Mean local clustering coefficient (0 for an empty graph)."""
    c = local_clustering(edges)
    return float(c.mean()) if c.shape[0] else 0.0


def global_clustering(edges) -> float:
    """Transitivity: ``3 * triangles / open-or-closed wedges``."""
    edges = clean_edges(as_edge_array(edges))
    if edges.shape[0] == 0:
        return 0.0
    n = int(edges.max()) + 1
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    wedges = float((deg * (deg - 1) / 2.0).sum())
    if wedges == 0:
        return 0.0
    tri = int(triangles_per_vertex(edges).sum()) // 3
    return 3.0 * tri / wedges
