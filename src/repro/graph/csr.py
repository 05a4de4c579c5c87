"""Compressed Sparse Row (CSR) graph representation.

All triangle-counting kernels in this package consume a :class:`CSRGraph`:
the standard ``row_ptr`` / ``col`` pair used by every GPU implementation the
paper studies.  The structure is immutable after construction; kernels and
the SIMT simulator only ever read it.

Terminology used throughout the package:

* ``n`` — number of vertices, ``m`` — number of (directed) CSR entries.
* ``neighbors(u)`` — the sorted adjacency slice ``col[row_ptr[u]:row_ptr[u+1]]``.
* an *oriented* CSR stores each undirected edge once, from the lower-ranked
  endpoint to the higher-ranked one (see :mod:`repro.graph.orientation`);
  this is the form all ITC kernels operate on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .edgelist import as_edge_array

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """Immutable CSR adjacency structure with sorted rows.

    Parameters
    ----------
    row_ptr:
        ``(n + 1,)`` int64 array; row ``u`` occupies
        ``col[row_ptr[u]:row_ptr[u+1]]``.
    col:
        ``(m,)`` int64 array of neighbour ids, sorted within each row.

    Use :meth:`from_edges` rather than the raw constructor when starting
    from an edge list.
    """

    row_ptr: np.ndarray
    col: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        # Read-only views: no kernel or caller may mutate the topology, and
        # the trace cache can memoise content digests of immutable arrays
        # (the warm-replay fast path) instead of rehashing them every launch.
        row_ptr = np.ascontiguousarray(self.row_ptr, dtype=np.int64).view()
        col = np.ascontiguousarray(self.col, dtype=np.int64).view()
        row_ptr.flags.writeable = False
        col.flags.writeable = False
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col", col)
        self._validate()

    def _validate(self) -> None:
        if self.row_ptr.ndim != 1 or self.col.ndim != 1:
            raise ValueError("row_ptr and col must be 1-D")
        if self.row_ptr.shape[0] < 1:
            raise ValueError("row_ptr must have at least one entry")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col.shape[0]:
            raise ValueError("row_ptr must start at 0 and end at len(col)")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.col.size and (self.col.min() < 0 or self.col.max() >= self.n):
            raise ValueError("col contains out-of-range vertex ids")
        # Rows must be sorted: required by merge and binary-search kernels.
        d = np.diff(self.col)
        boundaries = self.row_ptr[1:-1] - 1
        interior = np.ones(d.shape[0], dtype=bool)
        interior[boundaries[(boundaries >= 0) & (boundaries < d.shape[0])]] = False
        if np.any(d[interior] < 0):
            raise ValueError("each CSR row must be sorted ascending")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edges(cls, edges, *, n: int | None = None, meta: dict | None = None) -> "CSRGraph":
        """Build a CSR from an ``(m, 2)`` directed edge array.

        Each row ``(u, v)`` contributes one entry ``v`` to row ``u``.  For an
        undirected adjacency pass a symmetrised edge list (see
        :func:`repro.graph.edgelist.symmetrize_edges`); for an oriented graph
        pass an oriented one.
        """
        edges = as_edge_array(edges)
        if n is None:
            n = int(edges.max()) + 1 if edges.shape[0] else 0
        m = edges.shape[0]
        if m:
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            src = edges[order, 0]
            col = edges[order, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            col = np.empty(0, dtype=np.int64)
        counts = np.bincount(src, minlength=n).astype(np.int64)
        row_ptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(row_ptr=row_ptr, col=col, meta=meta or {})

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.row_ptr.shape[0] - 1

    @property
    def m(self) -> int:
        """Number of CSR entries (directed edge slots)."""
        return self.col.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``(n,)`` int64)."""
        return np.diff(self.row_ptr)

    def degree(self, u: int) -> int:
        """Out-degree of vertex ``u``."""
        return int(self.row_ptr[u + 1] - self.row_ptr[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour ids of ``u`` (a view, do not mutate)."""
        return self.col[self.row_ptr[u] : self.row_ptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Binary-search membership test for ``v`` in row ``u``."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and int(row[i]) == v

    def edge_array(self) -> np.ndarray:
        """Materialise the ``(m, 2)`` edge array ``(src, dst)`` in CSR order."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return np.stack([src, self.col], axis=1)

    def edge_sources(self) -> np.ndarray:
        """``(m,)`` array mapping CSR entry index to its source vertex.

        Computed once per graph and returned read-only: every upload of the
        same replica then presents the identical immutable array, so its
        trace-cache digest is memoised across launches.
        """
        cached = self.__dict__.get("_edge_sources")
        if cached is None:
            cached = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
            cached.flags.writeable = False
            object.__setattr__(self, "_edge_sources", cached)
        return cached

    def content_digest(self) -> str:
        """Hex blake2b-128 digest of the topology (``row_ptr`` and ``col``).

        Computed once per graph: the arrays are read-only, so the digest
        can key results that are pure functions of the graph.
        """
        cached = self.__dict__.get("_content_digest")
        if cached is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.n).tobytes())
            h.update(self.row_ptr.tobytes())
            h.update(self.col.tobytes())
            cached = h.hexdigest()
            object.__setattr__(self, "_content_digest", cached)
        return cached

    # -- derived facts -----------------------------------------------------

    @property
    def avg_degree(self) -> float:
        """Mean out-degree (``m / n``); 0 for the empty graph."""
        return self.m / self.n if self.n else 0.0

    @property
    def max_degree(self) -> int:
        """Largest out-degree in the graph."""
        return int(self.degrees.max()) if self.n else 0

    def is_oriented(self) -> bool:
        """True when every stored edge points to a higher vertex id.

        This is the ``u < v`` storage format that Section V's first GroupTC
        optimisation assumes.
        """
        if self.m == 0:
            return True
        return bool(np.all(self.edge_sources() < self.col))

    def has_self_loops(self) -> bool:
        """True if any stored edge is ``(u, u)``.

        Cleaned replicas never contain self-loops; the dataset loaders use
        this to reject corrupt cached bundles (a self-loop would be counted
        as a spurious triangle by several kernels).
        """
        if self.m == 0:
            return False
        return bool(np.any(self.edge_sources() == self.col))

    def memory_bytes(self, itemsize: int = 4) -> int:
        """Device-memory footprint of the CSR arrays at ``itemsize`` bytes.

        GPU implementations store vertices as 32-bit ints; the simulator's
        out-of-memory accounting uses this estimate.
        """
        return (self.row_ptr.shape[0] + self.col.shape[0]) * itemsize

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, m={self.m}, avg_degree={self.avg_degree:.2f})"
