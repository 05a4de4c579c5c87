"""Verification subsystem: golden baselines, differential fuzzing, invariants.

The paper's conclusions rest on three nvprof-analog counters the simulator
computes (Figures 11-13, 15); count-equality tests alone cannot detect a
cost-model or warp-executor refactor that silently shifts those counters
while every triangle count stays right.  This package is the correctness
layer that closes that gap, with one snapshot path and one fuzz loop:

* :mod:`repro.verify.goldens` — checked-in baselines of two kinds with one
  record/write/load/compare/check/update path: the metric matrix
  (``tests/goldens/<device>.json``: every registered algorithm on a fixed
  fixture set) and the scale-out matrix (``tests/goldens/cluster_*.json``:
  partition counts, exchange bytes and parallel efficiency of the
  multi-GPU cluster layer), both for both simulated device presets, with
  one tolerance-aware leaf comparator and an ``--update`` flow;
* :mod:`repro.verify.differential` — the seeded fuzz loop: generate a
  graph, ask an oracle for findings, delta-debug a failing graph
  (:mod:`repro.verify.shrink`) and write a repro artifact under
  ``.cache/<oracle dir>/<seed>/``; its implementation oracle runs every
  algorithm plus the CPU references;
* :mod:`repro.verify.engines` — event vs vectorised simulator-engine
  parity: full metric diffs on one graph, the engine oracle the fuzz
  loop runs them under, and a fixture x algorithm snapshot diff between
  the engines;
* :mod:`repro.verify.invariants` — metamorphic count invariants
  (relabelling, disjoint union, padding, duplicate idempotence) and
  simulator metric invariants (efficiency range, transactions/request
  floor, sampling consistency, parallel determinism).

Drive it from a shell::

    python -m repro.verify golden --check
    python -m repro.verify golden --update
    python -m repro.verify cluster --check
    python -m repro.verify fuzz --seeds 25 --max-edges 400
    python -m repro.verify engines --seeds 10
    python -m repro.verify invariants
"""

from .differential import (
    IMPLEMENTATIONS,
    FuzzReport,
    Oracle,
    count_all,
    disagreements,
    fuzz_one,
    run_fuzz,
    write_artifact,
)
from .engines import ENGINES, engine_mismatches, engine_oracle, fixture_parity
from .fixtures import GOLDEN_BLOCKS, GOLDEN_DEVICES, fixture_csr, fixture_edges, fixture_names
from .goldens import (
    KINDS,
    GoldenDiff,
    check_device,
    compare_snapshots,
    golden_path,
    load_goldens,
    record_cluster_device,
    record_device,
    update_goldens,
    write_goldens,
)
from .invariants import InvariantResult, run_invariants
from .shrink import ddmin

__all__ = [
    "ENGINES",
    "FuzzReport",
    "GOLDEN_BLOCKS",
    "GOLDEN_DEVICES",
    "GoldenDiff",
    "IMPLEMENTATIONS",
    "InvariantResult",
    "KINDS",
    "Oracle",
    "check_device",
    "compare_snapshots",
    "count_all",
    "ddmin",
    "disagreements",
    "engine_mismatches",
    "engine_oracle",
    "fixture_csr",
    "fixture_edges",
    "fixture_names",
    "fixture_parity",
    "fuzz_one",
    "golden_path",
    "load_goldens",
    "record_cluster_device",
    "record_device",
    "run_fuzz",
    "run_invariants",
    "update_goldens",
    "write_artifact",
    "write_goldens",
]
