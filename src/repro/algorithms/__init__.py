"""The nine studied triangle-counting implementations (Table I + GroupTC).

Importing this package registers every algorithm; use
:func:`get_algorithm` / :func:`all_algorithms` to access them.
"""

from .base import (
    CSRBuffers,
    TCAlgorithm,
    TCRunResult,
    algorithm_names,
    all_algorithms,
    get_algorithm,
    register,
)
from .bisson import Bisson
from . import bisson_emit  # noqa: F401  (registers Bisson's array emitter)
from .cpu_reference import (
    count_triangles_matrix,
    count_triangles_node_iterator,
    count_triangles_oriented,
    per_edge_triangles,
    per_vertex_triangles,
)
from .fox import Fox
from .green import Green
from . import green_emit  # noqa: F401  (registers Green's array emitter)
from .grouptc import GroupTC
from . import grouptc_emit  # noqa: F401  (registers GroupTC's array emitter)
from .hindex import HIndex
from . import hindex_emit  # noqa: F401  (registers H-INDEX's array emitter)
from .hu import Hu
from .polak import Polak
from .tricore import TriCore
from . import tricore_emit  # noqa: F401  (registers TriCore's array emitters)
from .trust import TRUST
from . import trust_emit  # noqa: F401  (registers TRUST's array emitters)

__all__ = [
    "Bisson",
    "CSRBuffers",
    "Fox",
    "Green",
    "GroupTC",
    "HIndex",
    "Hu",
    "Polak",
    "TCAlgorithm",
    "TCRunResult",
    "TriCore",
    "TRUST",
    "algorithm_names",
    "all_algorithms",
    "count_triangles_matrix",
    "count_triangles_node_iterator",
    "count_triangles_oriented",
    "get_algorithm",
    "per_edge_triangles",
    "per_vertex_triangles",
    "register",
]
