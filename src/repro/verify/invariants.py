"""Metamorphic count invariants and simulator metric invariants.

Two families, both executable via ``python -m repro.verify invariants``:

*Count metamorphics* — transformations that provably preserve the triangle
count, applied to seeded random graphs and checked across every registered
algorithm: vertex relabelling, disjoint-union additivity, isolated-vertex
padding (trailing empty CSR rows), and duplicate-edge idempotence.

*Simulator invariants* — structural facts about the profiled metrics that
any correct warp executor must satisfy on the golden fixtures:
``warp_execution_efficiency`` in (0, 1]; at least one 32 B sector per
global load request; block-sampled counters within a bounded factor of the
full-grid simulation; and ``jobs=1`` vs ``jobs=N`` matrix determinism.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..algorithms.base import all_algorithms
from ..algorithms.cpu_reference import count_triangles_matrix
from ..framework.compare import run_matrix
from ..graph.csr import CSRGraph
from ..graph.edgelist import clean_edges
from ..graph.orientation import oriented_csr
from ..gpu.device import SIM_V100
from .fixtures import GOLDEN_BLOCKS, fixture_csr, fixture_names

__all__ = [
    "InvariantResult",
    "check_metric_ranges",
    "check_sampling_consistency",
    "check_relabelling",
    "check_disjoint_union",
    "check_isolated_padding",
    "check_duplicate_idempotence",
    "check_cluster_conservation",
    "check_metrics_conservation",
    "check_parallel_determinism",
    "check_telemetry",
    "run_invariants",
]

#: Block-sampled counters may deviate from the full grid on heterogeneous
#: grids (power-law hubs concentrate work in few blocks); a correct
#: extrapolation still stays within this factor on the fixture set.
SAMPLING_RATIO_BOUND = 3.0


@dataclass(frozen=True)
class InvariantResult:
    """One invariant check: name, verdict, and a human-readable detail."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" — {self.detail}" if self.detail else "")


def _random_edges(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(3, 24))
    m = int(rng.integers(1, 3 * n))
    return rng.integers(0, n, size=(m, 2)).astype(np.int64)


def _all_counts(edges: np.ndarray) -> dict[str, int]:
    csr = oriented_csr(clean_edges(edges), ordering="degree")
    return {cls.name: int(cls().count(csr)) for cls in all_algorithms()}


# -- simulator invariants ---------------------------------------------------


def check_metric_ranges(*, blocks: int = GOLDEN_BLOCKS) -> InvariantResult:
    """Efficiency in (0, 1]; >= 1 sector/request; sane launch accounting."""
    for fname in fixture_names():
        csr = fixture_csr(fname)
        for cls in all_algorithms():
            r = cls().profile(csr, device=SIM_V100, max_blocks_simulated=blocks)
            m = r.metrics
            where = f"{fname}/{cls.name}"
            if not 0.0 < m.warp_execution_efficiency <= 1.0:
                return InvariantResult(
                    "metric-ranges", False,
                    f"{where}: warp_execution_efficiency={m.warp_execution_efficiency}",
                )
            if m.global_load_requests > 0 and m.gld_transactions_per_request < 1.0:
                return InvariantResult(
                    "metric-ranges", False,
                    f"{where}: gld_transactions_per_request="
                    f"{m.gld_transactions_per_request} < 1",
                )
            if m.blocks_simulated > m.blocks_launched:
                return InvariantResult(
                    "metric-ranges", False,
                    f"{where}: simulated {m.blocks_simulated} > launched {m.blocks_launched}",
                )
            if not r.sim_time_s > 0.0:
                return InvariantResult(
                    "metric-ranges", False, f"{where}: sim_time_s={r.sim_time_s}"
                )
    return InvariantResult("metric-ranges", True, "all fixtures x algorithms")


def check_sampling_consistency(
    *, blocks: int = GOLDEN_BLOCKS, ratio_bound: float = SAMPLING_RATIO_BOUND
) -> InvariantResult:
    """Block-sampled load requests within a bounded factor of the full grid."""
    for fname in fixture_names():
        csr = fixture_csr(fname)
        for cls in all_algorithms():
            sampled = cls().profile(csr, device=SIM_V100, max_blocks_simulated=blocks)
            full = cls().profile(csr, device=SIM_V100, max_blocks_simulated=None)
            a = sampled.metrics.global_load_requests
            b = full.metrics.global_load_requests
            if b == 0:
                if a != 0:
                    return InvariantResult(
                        "sampling-consistency", False,
                        f"{fname}/{cls.name}: sampled={a} but full grid issues none",
                    )
                continue
            ratio = a / b
            if not (1.0 / ratio_bound) <= ratio <= ratio_bound:
                return InvariantResult(
                    "sampling-consistency", False,
                    f"{fname}/{cls.name}: sampled/full={ratio:.3f} "
                    f"outside [1/{ratio_bound:g}, {ratio_bound:g}]",
                )
    return InvariantResult(
        "sampling-consistency", True, f"within x{ratio_bound:g} on all fixtures"
    )


# -- metamorphic count invariants -------------------------------------------


def check_relabelling(seeds: Sequence[int]) -> InvariantResult:
    """Counts are invariant under random vertex relabelling."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        edges = clean_edges(_random_edges(rng))
        if edges.shape[0] == 0:
            continue
        n = int(edges.max()) + 1
        perm = rng.permutation(n).astype(np.int64)
        base = _all_counts(edges)
        relabelled = _all_counts(perm[edges])
        ref = count_triangles_matrix(edges)
        for name in base:
            if not base[name] == relabelled[name] == ref:
                return InvariantResult(
                    "relabelling", False,
                    f"seed {seed}, {name}: {base[name]} vs {relabelled[name]} (ref {ref})",
                )
    return InvariantResult("relabelling", True, f"{len(seeds)} seeds x all algorithms")


def check_disjoint_union(seeds: Sequence[int]) -> InvariantResult:
    """count(G1 disjoint-union G2) == count(G1) + count(G2)."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        e1 = clean_edges(_random_edges(rng))
        e2 = clean_edges(_random_edges(rng))
        offset = (int(e1.max()) + 1) if e1.shape[0] else 0
        union = np.concatenate([e1, e2 + offset], axis=0)
        c1, c2, cu = _all_counts(e1), _all_counts(e2), _all_counts(union)
        for name in cu:
            if cu[name] != c1[name] + c2[name]:
                return InvariantResult(
                    "disjoint-union", False,
                    f"seed {seed}, {name}: {cu[name]} != {c1[name]} + {c2[name]}",
                )
    return InvariantResult("disjoint-union", True, f"{len(seeds)} seeds x all algorithms")


def check_isolated_padding(seeds: Sequence[int], *, pad: int = 5) -> InvariantResult:
    """Trailing isolated vertices (empty CSR rows) never change the count."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        edges = clean_edges(_random_edges(rng))
        csr = oriented_csr(edges, ordering="degree")
        padded = CSRGraph(
            row_ptr=np.concatenate([csr.row_ptr, np.full(pad, csr.m, dtype=np.int64)]),
            col=csr.col,
        )
        for cls in all_algorithms():
            a, b = int(cls().count(csr)), int(cls().count(padded))
            if a != b:
                return InvariantResult(
                    "isolated-padding", False,
                    f"seed {seed}, {cls.name}: {a} != padded {b}",
                )
    return InvariantResult("isolated-padding", True, f"{len(seeds)} seeds x all algorithms")


def check_duplicate_idempotence(seeds: Sequence[int]) -> InvariantResult:
    """Duplicate edges, reversed copies, and self-loops are all harmless."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        edges = clean_edges(_random_edges(rng))
        noise = [edges, edges[::-1], edges[:, ::-1]]
        if edges.shape[0]:
            v = int(edges[0, 0])
            noise.append(np.array([[v, v]], dtype=np.int64))
        noisy = np.concatenate([e for e in noise if e.shape[0]], axis=0) if edges.shape[0] else edges
        base, dup = _all_counts(edges), _all_counts(noisy)
        for name in base:
            if base[name] != dup[name]:
                return InvariantResult(
                    "duplicate-idempotence", False,
                    f"seed {seed}, {name}: {base[name]} != {dup[name]}",
                )
    return InvariantResult("duplicate-idempotence", True, f"{len(seeds)} seeds x all algorithms")


def check_parallel_determinism(
    *,
    algorithms: Sequence[str] = ("Polak", "TRUST"),
    datasets: Sequence[str] = ("As-Caida",),
    jobs: int = 2,
    blocks: int = GOLDEN_BLOCKS,
) -> InvariantResult:
    """A parallel matrix run is record-identical to the serial one."""
    serial = run_matrix(
        algorithms, datasets, max_blocks_simulated=blocks, jobs=1
    )
    fanned = run_matrix(
        algorithms, datasets, max_blocks_simulated=blocks, jobs=jobs
    )
    if serial.records != fanned.records:
        mismatch = [
            (a.algorithm, a.dataset)
            for a, b in zip(serial.records, fanned.records)
            if a != b
        ]
        return InvariantResult(
            "parallel-determinism", False, f"jobs=1 vs jobs={jobs} differ on {mismatch}"
        )
    return InvariantResult(
        "parallel-determinism", True, f"jobs=1 == jobs={jobs} on {len(serial.records)} cells"
    )


def check_telemetry(
    *,
    algorithms: Sequence[str] = ("Polak",),
    datasets: Sequence[str] = ("As-Caida",),
    blocks: int = GOLDEN_BLOCKS,
) -> InvariantResult:
    """Telemetry structural invariants over a journaled run plus its resume.

    Three facts any correct tracer must satisfy: spans strictly nest per
    (pid, thread); the per-launch span counter deltas sum to the cell's
    reported totals; and a resumed run emits exactly one terminal
    ``cell_complete`` event per cell (completed cells are replayed from the
    journal, not re-executed twice).
    """
    from ..framework.resilience import new_run_id
    from ..obs.tracer import BufferSink, Tracer, set_tracer

    buf = BufferSink()
    old = set_tracer(Tracer([buf]))
    try:
        run_id = new_run_id()
        matrix = run_matrix(
            algorithms, datasets, max_blocks_simulated=blocks, run_id=run_id
        )
        first_events = list(buf.events)
        buf.events.clear()
        run_matrix(algorithms, datasets, max_blocks_simulated=blocks, resume=run_id)
        resume_events = list(buf.events)
    finally:
        set_tracer(old)

    # 1. strict span nesting per (pid, tid) across both runs
    for events in (first_events, resume_events):
        stacks: dict[tuple, list[str]] = {}
        for e in events:
            key = (e.get("pid"), e.get("tid"))
            kind = e.get("event")
            if kind == "span_begin":
                stacks.setdefault(key, []).append(e["span"])
            elif kind == "span_end":
                stack = stacks.setdefault(key, [])
                if not stack or stack[-1] != e["span"]:
                    return InvariantResult(
                        "telemetry", False,
                        f"span_end {e.get('name')}/{e['span']} does not close the "
                        f"innermost open span on {key}",
                    )
                stack.pop()
        leaked = {k: v for k, v in stacks.items() if v}
        if leaked:
            return InvariantResult("telemetry", False, f"unclosed spans: {leaked}")

    # 2. launch-span counter deltas sum to the cell totals
    launch_req = sum(
        e.get("counters", {}).get("global_load_requests", 0)
        for e in first_events
        if e.get("event") == "span_end" and e.get("name") == "launch"
    )
    total_req = sum(r.global_load_requests or 0 for r in matrix.records if r.usable)
    if abs(launch_req - total_req) > 1e-6 * max(1.0, abs(total_req)):
        return InvariantResult(
            "telemetry", False,
            f"launch span counters sum to {launch_req}, cells report {total_req}",
        )

    # 3. the resumed run emits exactly one terminal event per cell
    counts: dict[tuple[str, str], int] = {}
    for e in resume_events:
        if e.get("msg") == "cell_complete":
            key = (e.get("algorithm"), e.get("dataset"))
            counts[key] = counts.get(key, 0) + 1
    expected = {(r.algorithm, r.dataset) for r in matrix.records}
    if set(counts) != expected or any(v != 1 for v in counts.values()):
        return InvariantResult(
            "telemetry", False,
            f"terminal events per cell on resume: {counts} (want one each of {expected})",
        )
    return InvariantResult(
        "telemetry", True,
        f"nesting + counter conservation + resume terminality on "
        f"{len(matrix.records)} cells",
    )


def _drop_subgraph_edge(csr: CSRGraph, seed: int) -> CSRGraph:
    """Remove one seeded CSR entry from a partition subgraph (fault drill)."""
    import zlib

    if csr.m == 0:
        return csr
    victim = zlib.crc32(f"{seed}|cluster-drill".encode()) % csr.m
    edges = np.delete(csr.edge_array(), victim, axis=0)
    return CSRGraph.from_edges(edges, n=csr.n)


def check_cluster_conservation(
    *,
    parts: Sequence[int] = (2, 4, 8),
    partitioners: Sequence[str] = ("edge1d", "hash2d"),
    seed: int = 0,
    tamper_seed: int | None = None,
) -> InvariantResult:
    """Partition counts sum to the single-device count — triangles are
    neither lost nor double-counted by the cluster layer.

    For every algorithm × fixture × partitioner × device count, the sum of
    per-partition triangle counts plus the plan's cross-partition
    correction (identically 0 for the layered subgraphs — the contract is
    stated in full anyway) must equal the whole-graph count.

    ``tamper_seed`` is the injected-bug drill: it drops one seeded edge
    from the first non-empty partition of every plan before counting, and
    the check must then FAIL for at least one cell — proving the
    invariant actually fires when a partition loses data in flight.
    """
    from ..gpu.cluster import build_plan

    algorithms = [cls() for cls in all_algorithms()]
    checked = 0
    for fname in fixture_names():
        csr = fixture_csr(fname)
        golden = {alg.name: int(alg.count(csr)) for alg in algorithms}
        for partitioner in partitioners:
            for p in parts:
                plan = build_plan(csr, p, partitioner=partitioner, seed=seed)
                subgraphs = [part.csr for part in plan.partitions]
                if tamper_seed is not None:
                    victim = next(
                        (i for i, part in enumerate(plan.partitions) if not part.empty),
                        None,
                    )
                    if victim is not None:
                        subgraphs[victim] = _drop_subgraph_edge(
                            subgraphs[victim], tamper_seed
                        )
                for alg in algorithms:
                    total = sum(int(alg.count(sub)) for sub in subgraphs)
                    total += plan.correction
                    checked += 1
                    if total != golden[alg.name]:
                        return InvariantResult(
                            "cluster-conservation", False,
                            f"{fname}/{alg.name}/{partitioner}@{p}: partitions sum "
                            f"to {total}, single device counts {golden[alg.name]}",
                        )
    return InvariantResult(
        "cluster-conservation", True,
        f"{checked} cells: all algorithms x fixtures x {tuple(partitioners)} "
        f"at {tuple(parts)} devices",
    )


def check_metrics_conservation(
    *,
    algorithms: Sequence[str] = ("Polak",),
    datasets: Sequence[str] = ("As-Caida",),
    blocks: int = GOLDEN_BLOCKS,
    serve_jobs: int = 2,
) -> InvariantResult:
    """The metrics registry conserves — counters agree with ground truth.

    Two cross-checks against independent sources of record:

    * **serve** — admission counters equal the journal's fsync'd record
      counts: ``serve_accepted == journal_accepted_records ==`` accepted
      lines actually on disk in ``jobs.jsonl``, and ``serve_jobs_terminal
      == journal_terminal_records ==`` terminal lines.  A registry that
      drops or double-counts increments (or a journal write the counters
      missed) breaks the equality.
    * **matrix** — per-launch kernel counters conserve across a ``jobs=1``
      run: ``sim_launches`` equals the sum of the records' reported
      ``kernel_launches`` and ``sim_global_load_requests`` equals the sum
      of the records' ``global_load_requests``.
    """
    import json
    import math

    from ..obs.metrics import MetricsRegistry, set_metrics
    from ..obs.tracer import BufferSink, Tracer, set_tracer
    from ..serve.client import ServeClient
    from ..serve.server import TriangleServer

    registry = MetricsRegistry()
    old_registry = set_metrics(registry)
    old_tracer = set_tracer(Tracer([BufferSink()]))
    try:
        # A. serve: admission/terminal counters vs the journal file.
        server = TriangleServer(port=0, workers=1)
        server.start()
        try:
            with ServeClient(port=server.port, client_id="inv9") as client:
                receipts = [
                    client.submit(alg, ds, blocks=blocks)
                    for alg in algorithms for ds in datasets
                    for _ in range(serve_jobs)
                ]
                accepted = [r for r in receipts if r.accepted]
                for r in accepted:
                    r.result(timeout=120.0)
            journal_path = server.journal.path
        finally:
            server.shutdown(drain=False)
        kinds: dict[str, int] = {}
        with journal_path.open(encoding="utf-8") as fh:
            for line in fh:
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail
                kinds[entry.get("kind", "?")] = kinds.get(entry.get("kind", "?"), 0) + 1
        triples = [
            ("serve_accepted", "journal_accepted_records", kinds.get("accepted", 0),
             len(accepted)),
            ("serve_jobs_terminal", "journal_terminal_records",
             kinds.get("terminal", 0), len(accepted)),
        ]
        for counter, journal_counter, on_disk, expected in triples:
            values = (registry.get(counter), registry.get(journal_counter),
                      float(on_disk), float(expected))
            if len(set(values)) != 1:
                return InvariantResult(
                    "metrics-conservation", False,
                    f"{counter}={values[0]:g} {journal_counter}={values[1]:g} "
                    f"journal-file={on_disk} receipts={expected} — must all agree",
                )

        # B. matrix: per-launch kernel counters vs the records' own totals.
        registry.reset()
        matrix = run_matrix(
            algorithms, datasets, max_blocks_simulated=blocks, jobs=1
        )
        launches = sum(
            int(r.extra.get("kernel_launches") or 0) for r in matrix.records
        )
        loads = sum(float(r.global_load_requests or 0.0) for r in matrix.records)
        if registry.get("sim_launches") != float(launches):
            return InvariantResult(
                "metrics-conservation", False,
                f"sim_launches={registry.get('sim_launches'):g} but records "
                f"report {launches} kernel launches",
            )
        if not math.isclose(
            registry.get("sim_global_load_requests"), loads,
            rel_tol=1e-9, abs_tol=1e-6,
        ):
            return InvariantResult(
                "metrics-conservation", False,
                f"sim_global_load_requests={registry.get('sim_global_load_requests'):g}"
                f" but records sum to {loads:g}",
            )
    finally:
        set_tracer(old_tracer)
        set_metrics(old_registry)
    return InvariantResult(
        "metrics-conservation", True,
        f"serve counters == journal ({len(accepted)} jobs) and launch counters "
        f"== record sums over {len(matrix.records)} cells",
    )


def run_invariants(
    *, seeds: int = 6, include_parallel: bool = True
) -> list[InvariantResult]:
    """Run the full invariant catalogue; returns one result per invariant."""
    seed_list = list(range(seeds))
    results = [
        check_metric_ranges(),
        check_sampling_consistency(),
        check_relabelling(seed_list),
        check_disjoint_union(seed_list),
        check_isolated_padding(seed_list),
        check_duplicate_idempotence(seed_list),
        check_telemetry(),
        check_cluster_conservation(),
        check_metrics_conservation(),
    ]
    if include_parallel:
        results.append(check_parallel_determinism())
    return results
