"""Algorithm interface and registry.

Every studied implementation (the eight of Table I plus GroupTC) subclasses
:class:`TCAlgorithm` and provides:

* Table I metadata (``name``, ``year``, ``iterator``, ``intersection``,
  ``granularity``) — the taxonomy bench regenerates the table from these;
* ``count(csr)`` — the exact triangle count (inherited: the vectorised
  reference :func:`~repro.algorithms.cpu_reference.count_triangles_oriented`);
* ``count_structural(csr)`` — a slow, pure-Python count that follows the
  kernel's control flow literally (used by the fidelity tests on small
  graphs);
* ``launch(csr, gm, device, ...)`` — the SIMT thread programs, launched on
  the simulator to produce :class:`~repro.gpu.metrics.ProfileMetrics`;
* ``device_footprint_bytes(n, m, max_degree, device)`` — the device-memory
  working set at a given graph scale, used to reproduce the paper's
  "failed to run" cells at paper-scale dataset sizes.

Use :func:`get_algorithm` / :func:`all_algorithms` to access registered
implementations by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.costmodel import CostModel, estimate_time
from ..gpu.device import TESLA_V100, DeviceSpec
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph import facts
from ..graph.csr import CSRGraph
from .cpu_reference import count_triangles_oriented

__all__ = [
    "TCAlgorithm",
    "TCRunResult",
    "register",
    "get_algorithm",
    "all_algorithms",
    "algorithm_names",
    "CSRBuffers",
]


@dataclass(frozen=True)
class TCRunResult:
    """Outcome of one simulated algorithm run on one graph."""

    algorithm: str
    device: str
    triangles: int
    #: triangle count accumulated by the simulated kernels themselves;
    #: ``None`` when block sampling made it partial.
    device_triangles: int | None
    metrics: ProfileMetrics
    sim_time_s: float
    dataset: str | None = None
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CSRBuffers:
    """Device allocations of one oriented CSR (shared by most kernels)."""

    row_ptr: DeviceArray
    col: DeviceArray
    esrc: DeviceArray  # CSR entry index -> source vertex ("edge list" view)
    out: DeviceArray  # global triangle accumulator (1 word)

    @classmethod
    def upload(cls, csr: CSRGraph, gm: GlobalMemory) -> "CSRBuffers":
        return cls(
            row_ptr=gm.alloc("row_ptr", csr.row_ptr),
            col=gm.alloc("col", csr.col),
            esrc=gm.alloc("esrc", csr.edge_sources()),
            out=gm.zeros("out", 1, itemsize=8),
        )


class TCAlgorithm:
    """Base class for intersection-based triangle-counting implementations."""

    # Table I metadata; subclasses must override.
    name: str = "abstract"
    year: int = 0
    iterator: str = "edge"  # "edge" | "vertex"
    intersection: str = "merge"  # "merge" | "binary-search" | "hash" | "bitmap"
    granularity: str = "coarse"  # "coarse" | "fine"
    reference: str = ""

    #: default threads per block for the main kernel
    block_dim: int = 256
    #: how many times the device kernels count each triangle (Bisson's
    #: full-adjacency bitmap counts every triangle six times)
    device_count_divisor: int = 1

    def __init__(self, **config):
        self.config = config

    # -- counting ---------------------------------------------------------

    def count(self, csr: CSRGraph) -> int:
        """Exact triangle count of an oriented CSR (the vectorised reference)."""
        return count_triangles_oriented(csr)

    def count_structural(self, csr: CSRGraph) -> int:
        """Pure-Python count following the kernel's control flow.

        Quadratically slower than :meth:`count`; only for fidelity tests on
        small graphs.  Defaults to :meth:`count`.
        """
        return self.count(csr)

    # -- simulation ---------------------------------------------------------

    def launch(
        self,
        csr: CSRGraph,
        gm: GlobalMemory,
        device: DeviceSpec,
        metrics: ProfileMetrics,
        *,
        max_blocks_simulated: int | None = None,
    ) -> DeviceArray:
        """Run the kernel(s) on the simulator; returns the output counter."""
        raise NotImplementedError

    def profile(
        self,
        csr: CSRGraph,
        *,
        device: DeviceSpec = TESLA_V100,
        max_blocks_simulated: int | None = None,
        cost_model: CostModel | None = None,
        dataset: str | None = None,
    ) -> TCRunResult:
        """Simulate a full run: upload, launch, cost out, and count.

        The reported ``triangles`` is the exact count, read from the graph's
        facts bundle (:mod:`repro.graph.facts`); ``device_triangles`` is
        the simulator's own accumulator and is only retained when every
        block was simulated.
        """
        gm = GlobalMemory(device)
        metrics = ProfileMetrics(warp_size=device.warp_size)
        out = self.launch(
            csr, gm, device, metrics, max_blocks_simulated=max_blocks_simulated
        )
        sampled = metrics.blocks_simulated < metrics.blocks_launched
        device_count = (
            None if sampled else int(out.data[0]) // self.device_count_divisor
        )
        return TCRunResult(
            algorithm=self.name,
            device=device.name,
            triangles=facts.fact(csr, "triangles", count_triangles_oriented, "exact_count_s"),
            device_triangles=device_count,
            metrics=metrics,
            sim_time_s=estimate_time(metrics, device, cost_model),
            dataset=dataset,
            config=dict(self.config),
        )

    # -- capacity ---------------------------------------------------------

    def device_footprint_bytes(
        self, n: int, m: int, max_degree: int, device: DeviceSpec
    ) -> int:
        """Device working set for a graph with ``n`` vertices, ``m`` oriented
        edges and the given max out-degree.

        The default covers the CSR, the edge-source array (edge iterators)
        and the output counter; subclasses add their auxiliary structures.
        """
        csr_bytes = (n + 1 + m) * 4
        edge_bytes = m * 4 if self.iterator == "edge" else 0
        return csr_bytes + edge_bytes + 8

    # -- metadata -----------------------------------------------------------

    @classmethod
    def table1_row(cls) -> dict:
        """This algorithm's Table I row."""
        return {
            "name": cls.name,
            "year": cls.year,
            "iterator": cls.iterator,
            "intersection": cls.intersection,
            "granularity": cls.granularity,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.config})"


_REGISTRY: dict[str, type[TCAlgorithm]] = {}


def register(cls: type[TCAlgorithm]) -> type[TCAlgorithm]:
    """Class decorator adding an algorithm to the global registry."""
    key = cls.name.lower()
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise ValueError(f"duplicate algorithm name {cls.name!r}")
    _REGISTRY[key] = cls
    return cls


def get_algorithm(name: str, **config) -> TCAlgorithm:
    """Instantiate a registered algorithm by case-insensitive name."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**config)


def all_algorithms() -> list[type[TCAlgorithm]]:
    """Registered classes in publication-year order (Table I order)."""
    return sorted(_REGISTRY.values(), key=lambda c: (c.year, c.name))


def algorithm_names() -> list[str]:
    return [c.name for c in all_algorithms()]
