"""Exact CPU reference counters used for validation and fast counts.

Three independent implementations with different mathematical structure;
the test suite cross-checks them against each other, against networkx, and
against every algorithm's own ``count``:

* :func:`count_triangles_oriented` — vectorised per-edge intersection on an
  oriented CSR (every algorithm's ``count``, and the facts store's filler);
* :func:`count_triangles_matrix` — ``trace(A^3) / 6`` via sparse matrix
  algebra (the paper's "Matrix Multiplication" strawman of Figure 1(c));
* :func:`count_triangles_node_iterator` — textbook node-iterator over the
  undirected adjacency (counts each triangle three times, divides by 3).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.edgelist import as_edge_array, clean_edges
from ..intersect.binsearch import batch_edge_intersection_counts

__all__ = [
    "count_triangles_oriented",
    "per_edge_triangles",
    "per_vertex_triangles",
    "count_triangles_matrix",
    "count_triangles_node_iterator",
]


def count_triangles_oriented(csr: CSRGraph) -> int:
    """Triangle count of an *oriented* CSR (each undirected edge once).

    Sums ``|N(u) ∩ N(v)|`` over stored edges; on an oriented graph every
    triangle is counted exactly once, at its lowest-ranked vertex.  The
    result is memoised on the (immutable) graph object, so repeated checks
    of one graph count it once.  Runs read their count from the facts
    store (:mod:`repro.graph.facts`), which never reads or writes this
    memo: the reference stays an independent check of what it holds.
    """
    cached = csr.__dict__.get("_tri_count")
    if cached is None:
        cached = int(batch_edge_intersection_counts(csr).sum())
        csr.__dict__["_tri_count"] = cached
    return cached


def per_edge_triangles(csr: CSRGraph) -> np.ndarray:
    """Per-stored-edge intersection sizes (edge support; used by k-truss)."""
    return batch_edge_intersection_counts(csr)


def per_vertex_triangles(csr: CSRGraph) -> np.ndarray:
    """Triangles *closed at* each vertex of an oriented CSR.

    Entry ``u`` counts triangles whose lowest-ranked vertex is ``u`` —
    the vertex-iterator work decomposition of Figure 2(a).  Sums to the
    global count.
    """
    counts = batch_edge_intersection_counts(csr)
    return np.bincount(csr.edge_sources(), weights=counts, minlength=csr.n).astype(
        np.int64
    )


def count_triangles_matrix(edges) -> int:
    """``trace(A^3) / 6`` on the undirected adjacency matrix."""
    # Imported here, not at module level: SciPy costs ~0.25 s of start-up
    # and only this test oracle needs it.
    import scipy.sparse as sp

    edges = clean_edges(as_edge_array(edges))
    if edges.shape[0] == 0:
        return 0
    n = int(edges.max()) + 1
    data = np.ones(edges.shape[0], dtype=np.int64)
    a = sp.coo_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()
    a = a + a.T
    return int((a @ a).multiply(a).sum() // 6)


def count_triangles_node_iterator(edges) -> int:
    """Node-iterator: for each vertex, count adjacent pairs that are edges.

    O(sum of d^2); for tests on small graphs only.
    """
    edges = clean_edges(as_edge_array(edges))
    if edges.shape[0] == 0:
        return 0
    n = int(edges.max()) + 1
    adj: list[set] = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    for u in range(n):
        nbrs = sorted(adj[u])
        for i, v in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if w in adj[v]:
                    total += 1
    return total // 3
