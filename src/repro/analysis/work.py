"""Machine-independent work-efficiency metrics for the studied algorithms.

Wall-clock comparisons between intersection strategies conflate the
algorithm with the device model, the scheduler, and the cache hierarchy.
This module provides the orthogonal axis: **how many element comparisons
does each algorithm perform on a given graph**, measured against the
instance-optimal lower bound for comparison-based set intersection.

Lower bound
-----------
Any comparison-based intersection of two sorted sets ``A`` and ``B`` must
inspect at least ``min(|A|, |B|)`` elements (every member of the shorter
list has to be ruled in or out).  Summing over the oriented edge list gives
the instance lower bound used throughout::

    LB(G) = sum over oriented edges (u, v) of min(d+(u), d+(v))

``comparisons / LB`` is then a dimensionless *work ratio*: how much the
algorithm over-searches relative to an instance-optimal edge iterator.

Counting rules
--------------
Every model counts **element comparisons** — probes of neighbour-list
values against neighbour-list values (merge steps, binary-search probes,
hash-slot inspections, bitmap bit tests).  Index arithmetic, prefix-scan
bookkeeping, and bucket-fill loads are excluded.  All counts are exact
replays of the kernel control flow except where noted:

* ``Polak`` — closed form: the two-pointer merge of rows ``A``/``B``
  performs ``|{a <= c}| + |{b <= c}| - |A ∩ B|`` iterations, where
  ``c = min(max A, max B)``.
* ``Green`` — exact replay of all 32 lanes per edge: the merge-path
  diagonal search plus the budget-bounded slice merges.
* ``TriCore`` / ``Fox`` — exact early-exit binary search of every query
  (shorter list) into its table (longer list); the two differ only in the
  tie rule when ``d(u) == d(v)``.
* ``GroupTC`` — early-exit binary search with the u-row-tail table and the
  1:32 flip rule.  The kernel's *memo-resume* optimisation (which narrows
  a search using the previous hit of the same thread) is deliberately not
  modelled: it depends on the work-list schedule, and the metric must stay
  a pure function of the graph.  The owning-edge search over the shared
  prefix array compares scan counters, not elements, and is excluded.
* ``Hu`` — exact early-exit binary search of every 2-hop neighbour into
  the root's row.
* ``H-INDEX`` / ``TRUST`` — exact hash-probe counts.  The strided build
  inserts each sorted row in ascending order, so a bucket's slot order is
  ascending; a hit inspects its smaller same-bucket elements plus itself,
  a miss inspects the whole bucket.
* ``Bisson`` — bitmap bit tests over the full symmetric adjacency:
  ``sum over vertices w of d_full(w)^2``.

Hash and bitmap algorithms are not comparison-based, so their work ratio
can legitimately drop below 1 — the lower bound is a yardstick, not a
floor, for those rows.

Rank derivation
---------------
No model simulates a search loop.  Every count follows from one rank
lookup per probed key: where the key sits in (or would be inserted into)
its table row, and whether it is there (:func:`_probe_rows`, a single
``searchsorted`` over the globally sorted ``row * n + value`` encoding).
An early-exit binary search over a table of length ``L`` is a fixed
implicit tree, so its probe count is a function of ``(L, rank, hit)``
alone (:func:`_depth_row`).  Green's merge-path crossings follow from each
element's position in the merged row pair, its slice merges from where
the equal pairs fall; the hash models read bucket ranks and bucket fills
precomputed once per CSR entry.  Probes are expanded in chunks of
:data:`_CHUNK`, which bounds the working set on the largest replicas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..graph import facts
from ..graph.csr import CSRGraph

__all__ = [
    "WorkEfficiency",
    "WORK_MODELS",
    "comparisons_performed",
    "lower_bound_comparisons",
    "work_efficiency",
]

_I64 = np.int64

#: probes expanded per vectorised step; bounds the models' peak memory
_CHUNK = 1 << 20

#: lanes per warp in Green's merge-path kernel
_LANES = 32


# ---------------------------------------------------------------------------
# shared machinery


def _encoded_rows(csr: CSRGraph) -> np.ndarray:
    """Globally sorted ``u * n + x`` encoding of every CSR entry."""
    n = _I64(csr.n)
    if csr.n and int(n) * int(n) > np.iinfo(_I64).max:  # pragma: no cover
        raise OverflowError("graph too large for encoded row queries")
    return csr.edge_sources() * n + csr.col


def _row_rank(csr: CSRGraph, encoded: np.ndarray, rows, keys, side="right") -> np.ndarray:
    """``|{x in N(rows[k]) : x <= keys[k]}|`` for parallel arrays (``x <
    keys[k]`` with ``side="left"``)."""
    rows = np.asarray(rows, dtype=_I64)
    keys = np.asarray(keys, dtype=_I64)
    needles = rows * _I64(csr.n) + keys
    return np.searchsorted(encoded, needles, side=side) - csr.row_ptr[rows]


def _expand_segments(starts, counts):
    """(segment index, absolute position) for the concatenation of segments."""
    counts = np.asarray(counts, dtype=_I64)
    ends = np.cumsum(counts)
    seg = np.repeat(np.arange(counts.shape[0], dtype=_I64), counts)
    pos = np.arange(int(ends[-1]) if ends.size else 0, dtype=_I64)
    pos += np.repeat(np.asarray(starts, dtype=_I64) - (ends - counts), counts)
    return seg, pos


def _chunks(counts: np.ndarray):
    """Consecutive ``(lo, hi)`` segment ranges of about :data:`_CHUNK` items."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_CHUNK, total, _CHUNK), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [counts.shape[0]])))
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


def _probe_rows(csr: CSRGraph, q_start, q_len, t_row):
    """Rank every query key in its table row, chunk by chunk.

    Segment ``k`` holds the keys ``col[q_start[k] : q_start[k] + q_len[k]]``,
    looked up in row ``t_row[k]``.  Yields ``(seg, q_pos, pos, hit)`` per
    chunk: each probe's segment, the CSR entry of its key, the CSR entry
    where the key sits in (or would be inserted into) the table row, and
    whether it sits there.
    """
    q_start = np.asarray(q_start, dtype=_I64)
    q_len = np.asarray(q_len, dtype=_I64)
    t_row = np.asarray(t_row, dtype=_I64)
    n = _I64(csr.n)
    # The sentinel past the last entry keeps ``encoded[pos]`` in bounds.
    encoded = np.append(_encoded_rows(csr), n * n)
    for lo, hi in _chunks(q_len):
        seg, q_pos = _expand_segments(q_start[lo:hi], q_len[lo:hi])
        needles = t_row[lo:hi][seg] * n + csr.col[q_pos]
        pos = np.searchsorted(encoded, needles)
        yield seg + lo, q_pos, pos, encoded[pos] == needles


@functools.lru_cache(maxsize=4096)
def _depth_row(length: int) -> np.ndarray:
    """Probes of the early-exit binary search over a sorted table of
    ``length`` elements, indexed by outcome ``2 * rank + hit``.

    ``rank`` is the number of table elements below the key and ``hit``
    whether the key is present: outcome ``2r + 1`` stops on element ``r``,
    outcome ``2r`` runs out in the gap before element ``r``.  The search
    probes ``mid = length // 2`` first, then recurses into one half, so the
    row is the left half's row, the root, then the right half's row, each
    one probe deeper.  A search without the early exit (``lo = mid + 1``
    on ``<=``) runs the same path as a miss, so it reads outcome ``2g``.
    """
    if length == 0:
        return np.zeros(1, dtype=np.int8)
    half = length >> 1
    row = np.concatenate(
        (_depth_row(half), np.zeros(1, dtype=np.int8), _depth_row(length - half - 1))
    )
    row += 1
    row.flags.writeable = False
    return row


def _depth_table(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated :func:`_depth_row` rows for the distinct ``lengths``,
    and the offset of each ``lengths[k]``'s row in it."""
    present = np.flatnonzero(np.bincount(lengths))
    rows = [_depth_row(int(length)) for length in present]
    start = np.zeros(int(present[-1]) + 1, dtype=_I64)
    start[present] = np.cumsum([0] + [row.shape[0] for row in rows[:-1]])
    return np.concatenate(rows), start[lengths]


def _bisect_probes(csr: CSRGraph, q_start, q_len, t_row, t_start, t_len) -> int:
    """Total probes of the kernels' early-exit binary search, exactly.

    Segment ``k`` searches each key of ``col[q_start[k] : +q_len[k]]`` in
    the table ``col[t_start[k] : +t_len[k]]``, a suffix of row
    ``t_row[k]`` (``while lo < hi``, one probe per iteration, breaking on
    equality).  Each probe count is read off the key's rank.
    """
    t_start = np.asarray(t_start, dtype=_I64)
    table, offset = _depth_table(np.asarray(t_len, dtype=_I64))
    total = 0
    for seg, _, pos, hit in _probe_rows(csr, q_start, q_len, t_row):
        # A key below the suffix (earlier in the row) clamps to rank 0: a
        # miss before element 0 takes the same probes as a hit on it.
        rank = np.maximum(pos - t_start[seg], 0)
        total += int(table[offset[seg] + 2 * rank + hit].sum())
    return total


def _edge_rows(csr: CSRGraph):
    eu = csr.edge_sources()
    ev = csr.col
    deg = csr.degrees
    return eu, ev, deg[eu].astype(_I64), deg[ev].astype(_I64)


def _live_edges(csr: CSRGraph):
    """``_edge_rows`` restricted to edges whose two rows are non-empty."""
    eu, ev, du, dv = _edge_rows(csr)
    live = (du > 0) & (dv > 0)
    return eu[live], ev[live], du[live], dv[live]


# ---------------------------------------------------------------------------
# lower bound


def lower_bound_comparisons(csr: CSRGraph) -> int:
    """Instance-optimal comparison lower bound over the oriented edges."""
    if csr.m == 0:
        return 0
    _, _, du, dv = _edge_rows(csr)
    return int(np.minimum(du, dv).sum())


# ---------------------------------------------------------------------------
# merge models


def _polak_comparisons(csr: CSRGraph) -> int:
    eu, ev, du, dv = _live_edges(csr)
    if not eu.size:
        return 0
    # Row maxima (the merge stops once the pointer whose row maximum is
    # smaller runs off the end).
    last = np.full(csr.n, -1, dtype=_I64)
    nz = csr.degrees > 0
    last[nz] = csr.col[csr.row_ptr[1:][nz] - 1]
    stop = np.minimum(last[eu], last[ev])
    encoded = _encoded_rows(csr)
    steps = int(_row_rank(csr, encoded, eu, stop).sum() + _row_rank(csr, encoded, ev, stop).sum())
    # Every common element is one step that advances both pointers.
    short_u = du <= dv
    probes = _probe_rows(
        csr,
        csr.row_ptr[np.where(short_u, eu, ev)],
        np.minimum(du, dv),
        np.where(short_u, ev, eu),
    )
    return steps - sum(int(np.count_nonzero(hit)) for *_, hit in probes)


def _green_comparisons(csr: CSRGraph) -> int:
    """Exact replay of the Merge Path kernel, all 32 lanes, from ranks.

    Per edge, ``a = N(u)`` and ``b = N(v)`` merge into ``M`` (ties put the
    ``a`` element first); lane ``l`` owns the diagonals
    ``[T*l/32, T*(l+1)/32)`` of ``T = |a| + |b|``.

    * Diagonal search: the lane bisects for its crossing ``i*`` = the
      number of ``a`` elements among the first ``d`` of ``M``, without an
      early exit, over a range of ``hi - lo`` candidates.
    * Slice merge: one step per merge group (a lone element, or an equal
      pair taken together), from the lane's first diagonal while its
      budget lasts and neither row is exhausted.  Over all lanes this
      visits every position before ``P`` (where the first row runs out)
      once, minus the second halves of equal pairs, plus the pairs that a
      lane boundary splits (the next lane takes the ``b`` half alone).
    """
    eu, ev, la, lb = _live_edges(csr)
    if not eu.size:
        return 0
    total_len = la + lb
    # Each merged position is found from the shorter row's elements: its
    # index in its own row plus the other row's elements before it.
    from_a = la <= lb
    q_row = np.where(from_a, eu, ev)
    t_row = np.where(from_a, ev, eu)
    q_start = csr.row_ptr[q_row]
    base = -(q_start + csr.row_ptr[t_row])
    # P: the merged position at which the first row is exhausted.
    encoded = _encoded_rows(csr)
    a_last = csr.col[csr.row_ptr[eu] + la - 1]
    b_last = csr.col[csr.row_ptr[ev] + lb - 1]
    run_out = np.minimum(
        la + _row_rank(csr, encoded, ev, a_last, side="left"),
        lb + _row_rank(csr, encoded, eu, b_last),
    )
    total = int(run_out.sum())
    # A chunk holds whole segments, so its edges' lanes are complete.
    for seg, q_pos, pos, hit in _probe_rows(csr, q_start, np.minimum(la, lb), t_row):
        seg_a = from_a[seg]
        # An equal ``a`` element comes first, so a ``b`` key counts its hit.
        merged = q_pos + pos + base[seg] + (hit & ~seg_a)
        seg_len = total_len[seg]
        lo, hi = int(seg[0]), int(seg[-1]) + 1
        lanes = np.bincount(
            (seg - lo) * _LANES + _lane_of(merged, seg_len),
            minlength=(hi - lo) * _LANES,
        )
        total += _diagonal_probes(lanes.reshape(hi - lo, _LANES), la[lo:hi], lb[lo:hi], from_a[lo:hi])
        # Equal pairs: where their ``b`` half falls decides the merge steps.
        second = merged[hit] + seg_a[hit]
        seg_len = seg_len[hit]
        split = (seg_len * _lane_of(second, seg_len)) // _LANES == second
        counted = second < run_out[seg[hit]]
        total += int(np.count_nonzero(counted & split)) - int(np.count_nonzero(counted))
    return total


def _lane_of(position, total_len):
    """The lane whose span ``[T*l/32, T*(l+1)/32)`` holds ``position``."""
    return (_LANES * position + _LANES - 1) // total_len


def _diagonal_probes(lane_counts, la, lb, from_a) -> int:
    """Green's diagonal-search probes over edges and their 32 lanes.

    ``lane_counts[e, l]`` is how many of edge ``e``'s shorter-row elements
    fall in lane ``l``'s span of ``M``; ``from_a[e]`` says whether that row
    is ``a``.  Lane ``l`` bisects ``[lo, hi)`` for its crossing and ends in
    gap ``crossing - lo``.
    """
    # (edges, 32) arrays: the narrowest exact dtype halves their cost.
    dtype = np.int32 if _LANES * int((la + lb).max()) < 2**31 else _I64
    before = np.cumsum(lane_counts, axis=1, dtype=dtype)
    before -= lane_counts.astype(dtype)
    la, lb = la.astype(dtype)[:, None], lb.astype(dtype)[:, None]
    diag = ((la + lb) * np.arange(_LANES, dtype=dtype)) // _LANES
    gap = np.where(from_a[:, None], before, diag - before)
    lo = np.maximum(diag - lb, 0)
    gap -= lo
    table, offset = _depth_table((np.minimum(diag, la) - lo).ravel())
    return int(table[offset + 2 * gap.ravel()].sum())


# ---------------------------------------------------------------------------
# binary-search models


def _edge_bisect_comparisons(csr: CSRGraph, queries_from_u) -> int:
    """Shorter-list-queries-into-longer-table search, per oriented edge.

    ``queries_from_u`` is the tie rule: which side queries when
    ``d(u) == d(v)`` (TriCore keeps the u side as the table, Fox as the
    queries).
    """
    eu, ev, du, dv = _live_edges(csr)
    if not eu.size:
        return 0
    u_queries = (du <= dv) if queries_from_u else (du < dv)
    q_rows = np.where(u_queries, eu, ev)
    t_rows = np.where(u_queries, ev, eu)
    return _bisect_probes(
        csr,
        csr.row_ptr[q_rows],
        csr.degrees[q_rows],
        t_rows,
        csr.row_ptr[t_rows],
        csr.degrees[t_rows],
    )


def _tricore_comparisons(csr: CSRGraph) -> int:
    return _edge_bisect_comparisons(csr, queries_from_u=False)


def _fox_comparisons(csr: CSRGraph) -> int:
    return _edge_bisect_comparisons(csr, queries_from_u=True)


def _grouptc_comparisons(csr: CSRGraph) -> int:
    from ..algorithms.grouptc import FLIP_RATIO

    if csr.m == 0:
        return 0
    eu, ev, _, dv = _edge_rows(csr)
    e = np.arange(csr.m, dtype=_I64)
    u_start = e + 1
    u_len = csr.row_ptr[eu + 1].astype(_I64) - u_start
    v_start = csr.row_ptr[ev].astype(_I64)
    v_len = dv
    live = (u_len > 0) & (v_len > 0)
    if not live.any():
        return 0
    eu, ev = eu[live], ev[live]
    u_start, u_len = u_start[live], u_len[live]
    v_start, v_len = v_start[live], v_len[live]
    flip = v_len * FLIP_RATIO < u_len
    return _bisect_probes(
        csr,
        np.where(flip, u_start, v_start),
        np.where(flip, u_len, v_len),
        np.where(flip, ev, eu),
        np.where(flip, v_start, u_start),
        np.where(flip, v_len, u_len),
    )


def _hu_comparisons(csr: CSRGraph) -> int:
    if csr.m == 0:
        return 0
    eu, ev, du, dv = _edge_rows(csr)
    # Every 2-hop neighbour w of every wedge (u, v) is searched in N(u).
    return _bisect_probes(csr, csr.row_ptr[ev], dv, eu, csr.row_ptr[eu], du)


# ---------------------------------------------------------------------------
# hash models


def _hash_probe_total(csr, table_rows, query_rows, num_buckets) -> int:
    """Exact slot inspections for probing every key of row
    ``query_rows[k]`` in the bucketed hash of row ``table_rows[k]``.

    The strided build inserts each (sorted) row in ascending order, so a
    bucket holds its elements in ascending order.  A hit therefore
    inspects every smaller same-bucket element plus the match; a miss
    inspects the full bucket.  Both are precomputed per CSR entry: its
    rank within its bucket, and its bucket's fill.
    """
    table_rows = np.asarray(table_rows, dtype=_I64)
    query_rows = np.asarray(query_rows, dtype=_I64)
    if table_rows.shape[0] == 0:
        return 0
    buckets = _I64(num_buckets)
    esrc = csr.edge_sources()
    bucket = csr.col % buckets
    # Rank of each CSR entry within its (row, bucket): a stable sort by
    # (row, bucket) keeps each row's ascending order inside a bucket.
    order = np.argsort(esrc * buckets + bucket, kind="stable")
    ordered = (esrc * buckets + bucket)[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    bucket_rank = np.empty(csr.m, dtype=_I64)
    bucket_rank[order] = np.arange(csr.m) - np.maximum.accumulate(
        np.where(first, np.arange(csr.m), 0)
    )
    # Bucket fills of the hashed rows, one dense slot per distinct row.
    hashed, slot = np.unique(table_rows, return_inverse=True)
    row_slot = np.full(csr.n, -1, dtype=_I64)
    row_slot[hashed] = np.arange(hashed.shape[0])
    entry_slot = row_slot[esrc]
    hashed_entry = entry_slot >= 0
    fill = np.bincount(
        entry_slot[hashed_entry] * buckets + bucket[hashed_entry],
        minlength=hashed.shape[0] * int(buckets),
    )
    total = 0
    for seg, q_pos, pos, hit in _probe_rows(
        csr, csr.row_ptr[query_rows], csr.degrees[query_rows], table_rows
    ):
        misses = slot[seg[~hit]] * buckets + bucket[q_pos[~hit]]
        total += int(fill[misses].sum()) + int(bucket_rank[pos[hit]].sum()) + int(np.count_nonzero(hit))
    return total


def _hindex_comparisons(csr: CSRGraph) -> int:
    from ..algorithms.hindex import NUM_BUCKETS

    eu, ev, du, dv = _live_edges(csr)
    if not eu.size:
        return 0
    hash_u = du <= dv  # shorter list is hashed, longer list queries
    return _hash_probe_total(
        csr, np.where(hash_u, eu, ev), np.where(hash_u, ev, eu), NUM_BUCKETS
    )


def _trust_comparisons(csr: CSRGraph) -> int:
    from ..algorithms.trust import BLOCK_DEGREE, MIN_DEGREE

    if csr.m == 0:
        return 0
    eu, ev, du, _ = _edge_rows(csr)
    total = 0
    # N(u) is hashed once per tier vertex; every 2-hop neighbour
    # x in N(w), w in N(u) probes it.
    for tier, buckets in (
        ((du >= MIN_DEGREE) & (du <= BLOCK_DEGREE), 32),
        (du > BLOCK_DEGREE, 1024),
    ):
        if tier.any():
            total += _hash_probe_total(csr, eu[tier], ev[tier], buckets)
    return total


# ---------------------------------------------------------------------------
# bitmap model


def _bisson_comparisons(csr: CSRGraph) -> int:
    """Bit tests over the full symmetric adjacency: sum of d_full(w)^2."""
    if csr.m == 0:
        return 0
    deg_full = csr.degrees.astype(_I64)
    if csr.is_oriented():
        deg_full = deg_full + np.bincount(csr.col, minlength=csr.n)
    return int((deg_full.astype(np.float64) ** 2).sum())


# ---------------------------------------------------------------------------
# public API

WORK_MODELS = {
    "polak": _polak_comparisons,
    "green": _green_comparisons,
    "tricore": _tricore_comparisons,
    "fox": _fox_comparisons,
    "grouptc": _grouptc_comparisons,
    "hu": _hu_comparisons,
    "hindex": _hindex_comparisons,
    "h-index": _hindex_comparisons,
    "trust": _trust_comparisons,
    "bisson": _bisson_comparisons,
}


def _model(algorithm: str):
    try:
        return WORK_MODELS[algorithm.lower()]
    except KeyError:
        raise KeyError(
            f"no work model for {algorithm!r}; known: "
            f"{sorted(set(WORK_MODELS) - {'h-index'})}"
        ) from None


def comparisons_performed(csr: CSRGraph, algorithm: str) -> int:
    """Element comparisons ``algorithm`` performs on ``csr`` (exact model)."""
    return int(_model(algorithm)(csr))


@dataclass(frozen=True)
class WorkEfficiency:
    """One algorithm's comparison count against the instance lower bound."""

    algorithm: str
    comparisons: int
    lower_bound: int

    @property
    def work_ratio(self) -> float:
        """``comparisons / lower_bound`` (1.0 for the empty graph)."""
        if self.lower_bound > 0:
            return self.comparisons / self.lower_bound
        return 1.0 if self.comparisons == 0 else float("inf")


def work_efficiency(csr: CSRGraph, algorithm: str) -> WorkEfficiency:
    """Comparisons performed, lower bound, and their ratio for one cell.

    A pure function of the graph: identical under the event and vectorized
    engines, under batched and per-launch replay, and across devices.  So
    both counts are read from the graph's facts bundle
    (:mod:`repro.graph.facts`), computed there on first use; time spent
    computing feeds the registry as ``work_model_s``.
    """
    model = _model(algorithm)
    name = model.__name__[1:].removesuffix("_comparisons")
    return WorkEfficiency(
        algorithm,
        facts.fact(csr, f"comparisons_{name}", model, "work_model_s"),
        facts.fact(csr, "lower_bound", lower_bound_comparisons, "work_model_s"),
    )
