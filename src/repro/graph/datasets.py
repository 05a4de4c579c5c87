"""Scaled synthetic replicas of the paper's 19 SNAP datasets (Table II).

SNAP downloads are unavailable offline, so each dataset is replaced by a
synthetic graph from the family-appropriate generator in
:mod:`repro.graph.generators`.  The replicas preserve exactly the
experimental variables the paper manipulates:

* **ordering by size** — replica edge counts follow the sub-linear map
  ``E_rep ~ 10 * E_paper**0.497`` so the 43 K→1.8 B range of Table II
  compresses to roughly 2 K→400 K while keeping the original order (the
  x-axis of Figures 11, 12, 13 and 15);
* **average degree** — the replica's vertex count is chosen so that the
  undirected average degree matches Table II's column;
* **degree-distribution shape** — social/communication graphs use heavy-tail
  Chung–Lu, web graphs use skewed R-MAT, citation/co-authorship graphs use
  preferential attachment, RoadNet-CA uses a planar lattice, and
  P2p-Gnutella (a famously triangle-poor overlay) uses G(n, m).

The registry preserves Table II's row order, which the figures rely on.
"""

from __future__ import annotations

import functools
import types
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import io
from . import generators as gen
from .csr import CSRGraph
from .orientation import orient_by_degree, orient_by_id, undirected_csr

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "dataset_names",
    "get_spec",
    "load_edges",
    "load_oriented",
    "load_undirected",
    "size_class",
    "warm_cache",
    "PAPER_SMALL_EDGE_THRESHOLD",
    "SMALL_EDGE_THRESHOLD",
    "scaled_edges",
]

#: Paper regime boundary: Section I calls datasets under 2 M edges "small".
PAPER_SMALL_EDGE_THRESHOLD = 2_000_000


def scaled_edges(paper_edges: int, *, coeff: float = 10.0, power: float = 0.497) -> int:
    """Map a Table II edge count to its replica edge count."""
    return int(round(coeff * paper_edges**power))


#: The same boundary expressed in replica edge counts — *derived* from the
#: scale map so it can never drift from :data:`PAPER_SMALL_EDGE_THRESHOLD`.
#: Because the map is monotone, a replica is under this threshold exactly
#: when its paper-scale original is under 2 M edges (between Com-Dblp's and
#: Amazon0601's replicas).
SMALL_EDGE_THRESHOLD = scaled_edges(PAPER_SMALL_EDGE_THRESHOLD)


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table II plus the recipe for its synthetic replica."""

    name: str
    paper_vertices: int
    paper_edges: int
    paper_avg_degree: float
    family: str  # social | p2p | communication | web | citation | road | purchase
    builder: Callable[["DatasetSpec"], np.ndarray]
    seed: int = 0

    @property
    def replica_edges(self) -> int:
        """Target edge count for the replica."""
        return scaled_edges(self.paper_edges)

    @property
    def replica_vertices(self) -> int:
        """Vertex count giving the Table II average degree at replica scale."""
        return max(4, int(round(2 * self.replica_edges / self.paper_avg_degree)))

    def build(self) -> np.ndarray:
        """Generate the replica's cleaned undirected edge array."""
        return self.builder(self)


def _chung_lu(exponent: float) -> Callable[[DatasetSpec], np.ndarray]:
    def build(spec: DatasetSpec) -> np.ndarray:
        return gen.chung_lu(
            spec.replica_vertices, spec.replica_edges, exponent=exponent, seed=spec.seed
        )

    return build


def _erdos_renyi(spec: DatasetSpec) -> np.ndarray:
    return gen.erdos_renyi(spec.replica_vertices, spec.replica_edges, seed=spec.seed)


def _rmat(a: float) -> Callable[[DatasetSpec], np.ndarray]:
    def build(spec: DatasetSpec) -> np.ndarray:
        scale = max(2, int(np.ceil(np.log2(spec.replica_vertices))))
        b = c = (1.0 - a) / 2.6
        return gen.rmat(scale, spec.replica_edges, a=a, b=b, c=c, seed=spec.seed)

    return build


def _barabasi(spec: DatasetSpec) -> np.ndarray:
    m = max(1, int(round(spec.paper_avg_degree / 2)))
    n = max(m + 1, spec.replica_edges // m)
    return gen.barabasi_albert(n, m, seed=spec.seed)


def _road(spec: DatasetSpec) -> np.ndarray:
    # A full lattice has ~2 edges per vertex (avg degree ~4); thin it down to
    # the replica edge budget so the Table II average degree (2.9) holds.
    side = max(2, int(round(np.sqrt(spec.replica_vertices))))
    edges = gen.road_lattice(side, shortcut_fraction=0.05, seed=spec.seed)
    if edges.shape[0] > spec.replica_edges:
        rng = np.random.default_rng(spec.seed + 1000)
        keep = rng.choice(edges.shape[0], size=spec.replica_edges, replace=False)
        edges = edges[np.sort(keep)]
        from .edgelist import clean_edges

        edges = clean_edges(edges)
    return edges


#: Table II, in the paper's row order (ascending paper edge count).
DATASETS: tuple[DatasetSpec, ...] = (
    DatasetSpec("As-Caida", 16_000, 43_000, 5.2, "internet", _chung_lu(2.1), seed=11),
    DatasetSpec("P2p-Gnutella31", 33_000, 119_000, 7.0, "p2p", _erdos_renyi, seed=12),
    DatasetSpec("Email-EuAll", 39_000, 151_000, 7.7, "communication", _chung_lu(2.0), seed=13),
    DatasetSpec("Soc-Slashdot0922", 53_000, 475_000, 17.7, "social", _chung_lu(2.2), seed=14),
    DatasetSpec("Web-NotreDame", 163_000, 928_000, 11.3, "web", _rmat(0.62), seed=15),
    DatasetSpec("Com-Dblp", 273_000, 1_000_000, 7.3, "coauthor", _barabasi, seed=16),
    DatasetSpec("Amazon0601", 391_000, 2_400_000, 12.4, "purchase", _barabasi, seed=17),
    DatasetSpec("RoadNet-CA", 1_600_000, 2_400_000, 2.9, "road", _road, seed=18),
    DatasetSpec("Wiki-Talk", 626_000, 2_800_000, 9.2, "communication", _chung_lu(2.0), seed=19),
    DatasetSpec("Web-BerkStan", 645_000, 6_600_000, 20.4, "web", _rmat(0.62), seed=20),
    DatasetSpec("As-Skitter", 1_400_000, 10_800_000, 14.7, "internet", _chung_lu(2.1), seed=21),
    DatasetSpec("Cit-Patents", 3_100_000, 15_800_000, 10.2, "citation", _barabasi, seed=22),
    DatasetSpec("Soc-Pokec", 1_400_000, 22_100_000, 30.1, "social", _chung_lu(2.6), seed=23),
    DatasetSpec("Sx-Stackoverflow", 1_900_000, 27_500_000, 28.0, "qa", _chung_lu(2.2), seed=24),
    DatasetSpec("Com-Lj", 3_200_000, 33_800_000, 21.1, "social", _chung_lu(2.4), seed=25),
    DatasetSpec("Soc-LiveJ", 3_700_000, 41_700_000, 22.0, "social", _chung_lu(2.4), seed=26),
    DatasetSpec("Com-Orkut", 3_000_000, 117_000_000, 77.9, "social", _chung_lu(2.7), seed=27),
    DatasetSpec("Twitter", 39_000_000, 1_200_000_000, 60.4, "social", _chung_lu(2.0), seed=28),
    DatasetSpec("Com-Friendster", 51_000_000, 1_800_000_000, 69.0, "social", _chung_lu(2.9), seed=29),
)

_BY_NAME = {spec.name.lower(): spec for spec in DATASETS}


def dataset_names() -> list[str]:
    """All 19 dataset names in Table II order."""
    return [spec.name for spec in DATASETS]


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by (case-insensitive) name."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; known: {dataset_names()}") from None


def _cached_csr(key: str, *, oriented: bool) -> CSRGraph | None:
    """Rebuild a CSR from a cached bundle, or ``None`` when it must be regenerated.

    Structural invariants are enforced on load: :class:`CSRGraph` itself
    validates the indptr (monotone, 0-anchored), index ranges, and row
    sortedness; on top of that an *oriented* bundle must satisfy the
    ``u < v`` storage contract (which also excludes self-loops) and an
    undirected one must be self-loop free.  A bundle that fails any check
    — one written by buggy code, which the store's digest cannot catch —
    is dropped and treated as a miss, never handed to the kernels.
    """
    cached = io.load_cached_arrays(key)
    if cached is None or "row_ptr" not in cached or "col" not in cached:
        return None
    try:
        csr = CSRGraph(row_ptr=cached["row_ptr"], col=cached["col"])
    except ValueError:
        io.drop_cached_arrays(key)
        return None
    if (oriented and not csr.is_oriented()) or (not oriented and csr.has_self_loops()):
        io.drop_cached_arrays(key)
        return None
    return csr


def _freeze_csr(csr: CSRGraph, meta: dict) -> CSRGraph:
    """Make a cached CSR safe to share between callers.

    The memoised loaders below hand the *same* object to every caller in
    the process; a mutable result would let one run corrupt all later ones.
    The arrays are flagged read-only and ``meta`` becomes a mapping proxy,
    so any accidental write raises instead of leaking.
    """
    csr.row_ptr.setflags(write=False)
    csr.col.setflags(write=False)
    object.__setattr__(csr, "meta", types.MappingProxyType(dict(meta)))
    return csr


@functools.lru_cache(maxsize=None)
def load_edges(name: str) -> np.ndarray:
    """Cleaned undirected edge array for a replica.

    Memoised per process *and* on disk (a versioned store file under
    :func:`repro.graph.io.cache_dir`), so repeated runs and parallel worker
    processes map the replica instead of re-running the generator.  The
    returned array is read-only — it is shared by every caller.
    """
    spec = get_spec(name)
    key = io.cache_key("edges", spec.name, seed=spec.seed)
    cached = io.load_cached_arrays(key)
    if cached is not None and "edges" in cached:
        edges = cached["edges"]
    else:
        edges = spec.build()
        io.store_cached_arrays(key, edges=edges)
    edges.setflags(write=False)
    return edges


@functools.lru_cache(maxsize=None)
def load_oriented(name: str, ordering: str = "degree") -> CSRGraph:
    """Oriented CSR for a replica — the kernels' input format.

    ``ordering="degree"`` (default, what the studied systems ship with)
    ranks vertices by ascending degree before orienting; ``"id"`` keeps the
    raw vertex ids.  Both store each undirected edge once with the source
    ranked below the destination, the ``u < v`` format of Section V.

    The CSR's ``meta`` carries the paper-scale dimensions so capacity
    checks and shared-vs-global decisions (e.g. Bisson's bitmap placement)
    can be made at the scale the paper ran.  The result is frozen
    (read-only arrays, immutable meta) and disk-cached per
    ``(dataset, ordering, seed, cache-version)``.
    """
    if ordering not in ("degree", "id"):
        raise ValueError(f"unknown ordering {ordering!r}")
    spec = get_spec(name)
    key = io.cache_key("csr", spec.name, ordering=ordering, seed=spec.seed)
    csr = _cached_csr(key, oriented=True)
    if csr is None:
        edges = load_edges(name)
        csr = orient_by_degree(edges) if ordering == "degree" else orient_by_id(edges)
        io.store_cached_arrays(key, row_ptr=csr.row_ptr, col=csr.col)
    meta = {
        "orientation": ordering,
        "dataset": name,
        "paper_n": spec.paper_vertices,
        "paper_m": spec.paper_edges,
    }
    return _freeze_csr(csr, meta)


@functools.lru_cache(maxsize=None)
def load_undirected(name: str) -> CSRGraph:
    """Full symmetric CSR for a replica (used by vertex-degree heuristics)."""
    spec = get_spec(name)
    key = io.cache_key("und", spec.name, seed=spec.seed)
    csr = _cached_csr(key, oriented=False)
    if csr is None:
        csr = undirected_csr(load_edges(name))
        io.store_cached_arrays(key, row_ptr=csr.row_ptr, col=csr.col)
    return _freeze_csr(csr, {"dataset": name})


def warm_cache(
    names=None, *, orderings=("degree",), undirected: bool = False, strict: bool = True
) -> None:
    """Populate the in-process and on-disk caches for the given replicas.

    The parallel matrix executor calls this in the parent before fanning
    out so worker processes never race to generate the same replica: they
    either inherit the warm memory cache (fork) or hit the disk cache
    (spawn).  With ``strict=False`` unknown names are skipped — their
    matrix cells fail individually instead of aborting the warm-up.
    """
    for name in names if names is not None else dataset_names():
        try:
            load_edges(name)
            for ordering in orderings:
                load_oriented(name, ordering)
            if undirected:
                load_undirected(name)
        except KeyError:
            if strict:
                raise


def size_class(name: str) -> str:
    """Paper regime of a dataset: ``"small"`` (< 2 M paper edges) or ``"large"``.

    Section I: "the old Polak algorithm ... emerges as the champion when
    dealing with smaller datasets (i.e., those with less than 2M edges)".
    """
    spec = get_spec(name)
    return "small" if spec.paper_edges < PAPER_SMALL_EDGE_THRESHOLD else "large"
