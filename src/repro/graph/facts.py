"""Per-graph facts: the exact triangle count, the intersection lower bound
and each work model's comparison count, read once per process.

They are pure functions of the graph and of the code computing them, so
one store file per graph (:mod:`repro.graph.io`) holds them as header
attrs, keyed by :meth:`~repro.graph.csr.CSRGraph.content_digest` and
:func:`~repro.graph.io.code_digest`.  Entries are filled lazily; a fill
re-reads the bundle, merges and replaces the file atomically, so racing
workers can lose an entry (a later miss) but never store a wrong value.
A per-process dict in front of the disk means one bundle read per graph
per process, inherited by forked workers.  Only replicas (graphs loaded
by name, whose ``meta`` carries ``"dataset"``) get a bundle: a partition
subgraph, a fuzz case or a test graph is cheaper to recount than to read
back, and would grow the cache without bound, so its facts stay in the
per-process layer.  The store never touches the reference counter's own
memo, so ``alg.count()`` and ``--validate`` stay independent checks of
it.  Fill times and lookups feed the registry (the caller's
``seconds_metric``, ``facts_store_hits``/``_misses``).
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..obs.metrics import get_metrics
from . import io
from .csr import CSRGraph

__all__ = ["fact", "facts_key", "reset_facts"]

#: per-process layer: bundle key -> the entries known for it
_FACTS: dict[str, dict[str, int]] = {}


def facts_key(csr: CSRGraph) -> str:
    """Replica-cache key of ``csr``'s facts bundle under the current code."""
    return f"facts-{csr.content_digest()}-{io.code_digest()}"


def reset_facts() -> None:
    """Forget every bundle this process has read (as a fresh process would)."""
    _FACTS.clear()


def _read(key: str) -> dict[str, int]:
    stored = io.load_cached_arrays(key)
    if stored is None:
        return {}
    if any(type(value) is not int for value in stored.values()):
        io.drop_cached_arrays(key)
        return {}
    return stored


def fact(csr: CSRGraph, name: str, fill: Callable[[CSRGraph], int], seconds_metric: str) -> int:
    """The fact ``name`` of ``csr``, computed by ``fill(csr)`` on a miss.

    ``name`` must identify what ``fill`` computes (``"triangles"``,
    ``"lower_bound"``, ``"comparisons_<model>"``); the time a fill takes
    is added to the registry counter ``seconds_metric``.
    """
    key = facts_key(csr)
    persist = "dataset" in csr.meta
    entries = _FACTS.get(key)
    if entries is None:
        entries = _FACTS[key] = _read(key) if persist else {}
    registry = get_metrics()
    value = entries.get(name)
    if value is not None:
        registry.inc("facts_store_hits")
        return value
    t0 = time.perf_counter()
    value = int(fill(csr))
    registry.inc(seconds_metric, time.perf_counter() - t0)
    registry.inc("facts_store_misses")
    entries[name] = value
    if persist:
        # Keep what other processes stored meanwhile, then replace the file.
        for other, stored in _read(key).items():
            entries.setdefault(other, stored)
        io.store_cached_arrays(key, **entries)
    return value
