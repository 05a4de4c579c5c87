"""k-truss decomposition — the second Section I motivating application.

The k-truss of a graph is the maximal subgraph in which every edge is
supported by at least ``k - 2`` triangles.  The standard peeling algorithm
repeatedly recomputes edge supports (a triangle-counting primitive — here
the same vectorised intersection used by the counting kernels) and deletes
under-supported edges until a fixed point.
"""

from __future__ import annotations

import numpy as np

from ..graph.edgelist import as_edge_array, clean_edges, deduplicate_edges, remove_self_loops
from ..graph.orientation import orient_by_id
from ..intersect.binsearch import batch_edge_intersection_counts

__all__ = ["edge_support", "ktruss", "max_truss", "truss_numbers"]


def edge_support(edges) -> tuple[np.ndarray, np.ndarray]:
    """Support (triangles through each edge) of a cleaned undirected graph.

    Returns ``(edges, support)`` with edges canonical ``(u < v)`` rows.  On
    an oriented CSR the per-edge intersection counts *are* the supports:
    every triangle through undirected edge {u, v} has its witness in
    ``N+(u) ∩ N+(v)`` ∪ witnesses counted at the triangle's other corners…
    so supports are assembled from all three corner contributions.

    Vertex ids are preserved: the input is deduplicated and de-looped but
    *not* compacted, so the returned rows refer to the caller's vertices.
    (The CSR built internally may relabel, but compaction is a monotone
    relabelling, so its edge-slot order matches the returned rows — the
    alignment the support array relies on.  Compacting here used to
    renumber survivors on every :func:`ktruss` peeling round, yielding
    truss edges from a different id space than the input.)
    """
    edges = deduplicate_edges(remove_self_loops(as_edge_array(edges)), directed=False)
    if edges.shape[0] == 0:
        return edges, np.zeros(0, dtype=np.int64)
    csr = orient_by_id(edges)
    # counts[e] = |N+(u) ∩ N+(v)| for oriented edge e = (u, v): each hit w
    # closes the triangle (u, v, w) and supports edges (u,v), (u,w), (v,w).
    counts = batch_edge_intersection_counts(csr)
    support = np.array(counts, dtype=np.int64)
    eu = csr.edge_sources()
    ev = csr.col
    n = csr.n
    # Identify the other two edges of every found triangle.  Recompute the
    # witnesses (same machinery as the count) to credit (u,w) and (v,w).
    deg = csr.degrees
    qcounts = deg[ev]
    total = int(qcounts.sum())
    if total:
        from ..intersect.binsearch import batch_membership

        edge_of_query = np.repeat(np.arange(csr.m, dtype=np.int64), qcounts)
        seg_starts = np.concatenate([[0], np.cumsum(qcounts)[:-1]])
        offsets = np.arange(total, dtype=np.int64) - seg_starts[edge_of_query]
        witness = csr.col[csr.row_ptr[ev][edge_of_query] + offsets]
        hits = batch_membership(csr, eu[edge_of_query], witness)
        # Edge ids: map (a, b) pairs to CSR slots via searchsorted on the
        # encoded keys (rows are contiguous and sorted).
        keys = eu * np.int64(n) + ev
        uw = eu[edge_of_query[hits]] * np.int64(n) + witness[hits]
        vw = ev[edge_of_query[hits]] * np.int64(n) + witness[hits]
        uw_slot = np.searchsorted(keys, uw)
        vw_slot = np.searchsorted(keys, vw)
        np.add.at(support, uw_slot, 1)
        np.add.at(support, vw_slot, 1)
    return edges, support


def ktruss(edges, k: int) -> np.ndarray:
    """Edges of the k-truss subgraph (canonical rows, possibly empty).

    ``k >= 2``; the 2-truss is the input graph itself (every edge trivially
    has support >= 0).
    """
    if k < 2:
        raise ValueError("k-truss is defined for k >= 2")
    current = clean_edges(as_edge_array(edges))
    threshold = k - 2
    while current.shape[0]:
        current, support = edge_support(current)
        keep = support >= threshold
        if keep.all():
            break
        current = current[keep]
    return current


def max_truss(edges) -> int:
    """Largest k with a non-empty k-truss (2 for any non-empty graph)."""
    edges = clean_edges(as_edge_array(edges))
    if edges.shape[0] == 0:
        return 0
    k = 2
    while ktruss(edges, k + 1).shape[0]:
        k += 1
    return k


def truss_numbers(edges) -> dict[int, int]:
    """Edge count of every non-empty k-truss, ``{k: edges}``."""
    edges = clean_edges(as_edge_array(edges))
    out: dict[int, int] = {}
    k = 2
    current = edges
    while current.shape[0]:
        current = ktruss(current, k)
        if current.shape[0] == 0:
            break
        out[k] = int(current.shape[0])
        k += 1
    return out
