"""The unified testing framework of Section IV.

* :mod:`~repro.framework.runner` — one (algorithm, dataset, device) cell,
  including paper-scale capacity checks (red-cross failures).
* :mod:`~repro.framework.compare` — the full comparison matrix.
* :mod:`~repro.framework.parallel` — process-pool fan-out for the matrix.
* :mod:`~repro.framework.resilience` — checkpoint/resume journal, killable
  cell attempts and their retry policy, validation & quarantine, chaos
  harness.
* :mod:`~repro.framework.scheduler` — priority job queue with deadlines,
  precision shedding, and the one supervision loop that retries timeouts
  and worker deaths (shared by ``run_matrix`` and the ``repro serve``
  daemon).
* :mod:`~repro.framework.report` — Tables I/II and the figure series.
* :mod:`~repro.framework.sweep` — configuration sweeps / ablations.
"""

from .cluster import (
    ClusterRecord,
    PartitionRecord,
    ScaleoutPoint,
    cluster_to_run_record,
    run_cluster,
    run_cluster_matrix,
    scaleout_curve,
)
from .compare import ComparisonMatrix, metric_maximizes, run_matrix
from .parallel import default_jobs, parallel_starmap, run_cells
from .resilience import (
    ChaosSpec,
    RetryPolicy,
    RunJournal,
    chaos_from_env,
    new_run_id,
    parse_chaos,
    run_cells_resilient,
    seeded_jitter,
    validate_record,
)
from .scheduler import (
    CellJob,
    JobHandle,
    JobScheduler,
    shed_blocks,
)
from .report import (
    matrix_to_csv,
    render_cluster,
    render_figure_series,
    render_scaleout,
    render_speedups,
    render_table1,
    render_table2,
)
from .runner import (
    DEFAULT_MAX_BLOCKS,
    RunRecord,
    paper_scale_footprint,
    run_one,
    run_one_safe,
)
from .sweep import SweepPoint, best_config, sweep_config

__all__ = [
    "DEFAULT_MAX_BLOCKS",
    "CellJob",
    "ChaosSpec",
    "ClusterRecord",
    "ComparisonMatrix",
    "JobHandle",
    "JobScheduler",
    "PartitionRecord",
    "RetryPolicy",
    "RunJournal",
    "RunRecord",
    "ScaleoutPoint",
    "SweepPoint",
    "best_config",
    "chaos_from_env",
    "cluster_to_run_record",
    "default_jobs",
    "matrix_to_csv",
    "metric_maximizes",
    "new_run_id",
    "paper_scale_footprint",
    "parallel_starmap",
    "parse_chaos",
    "render_cluster",
    "render_figure_series",
    "render_scaleout",
    "render_speedups",
    "render_table1",
    "render_table2",
    "run_cells",
    "run_cells_resilient",
    "run_cluster",
    "run_cluster_matrix",
    "run_matrix",
    "run_one",
    "run_one_safe",
    "scaleout_curve",
    "seeded_jitter",
    "shed_blocks",
    "sweep_config",
    "validate_record",
]
