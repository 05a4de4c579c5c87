"""Command-line front end for the unified testing framework.

Mirrors how the paper's framework is driven from a shell::

    python -m repro.framework.cli table1
    python -m repro.framework.cli table2
    python -m repro.framework.cli count As-Caida --algorithm GroupTC
    python -m repro.framework.cli figure sim_time_s --datasets As-Caida,Com-Dblp
    python -m repro.framework.cli speedup GroupTC --baselines Polak,TRUST
    python -m repro.framework.cli sweep GroupTC As-Caida chunk 64,128,256
    python -m repro.framework.cli --run-id nightly --cell-timeout 120 \\
        --validate figure sim_time_s
    python -m repro.framework.cli --resume nightly figure sim_time_s
    python -m repro.framework.cli cache prune

All subcommands print to stdout; ``figure``/``speedup`` accept ``--csv``
to dump the raw matrix instead of the formatted series.  The resilience
flags (``--run-id``/``--resume``/``--cell-timeout``/``--validate``) route
matrix commands through :mod:`repro.framework.resilience`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from ..gpu.device import get_device
from ..gpu.trace import TRACE_SCHEMA
from ..graph.io import prune_cache
from ..obs.attribution import LINE_FIELDS
from ..obs.flightrec import install_flight_recorder, maybe_dump
from ..obs.metrics import to_prometheus
from ..obs.tracer import LEVELS
from ..obs.tracer import configure as configure_tracer
from .compare import run_matrix
from .report import (
    matrix_to_csv,
    render_figure_series,
    render_speedups,
    render_table1,
    render_table2,
    render_work_efficiency,
)
from .runner import DEFAULT_MAX_BLOCKS, run_one
from .sweep import best_config, sweep_config

__all__ = ["main", "build_parser"]

FIGURE_METRICS = (
    "sim_time_s",
    "global_load_requests",
    "warp_execution_efficiency",
    "gld_transactions_per_request",
    "comparisons",
    "work_ratio",
)


def _split(value: str | None) -> list[str] | None:
    if not value:
        return None
    return [s.strip() for s in value.split(",") if s.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument grammar (exposed for tests and docs)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the IPDPS-W'24 triangle-counting study.",
    )
    p.add_argument(
        "--device",
        default="sim-v100",
        help="device preset (v100, rtx4090, sim-v100, sim-rtx4090)",
    )
    p.add_argument(
        "--blocks",
        type=int,
        default=DEFAULT_MAX_BLOCKS,
        help="block-sampling budget per kernel launch",
    )
    p.add_argument(
        "--ordering",
        default="degree",
        choices=("degree", "id"),
        help="orientation pre-processing (Section II-B)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the top cumulative "
        "entries to stderr",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for matrix/sweep commands (0 = one per core)",
    )
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per matrix cell; over-budget cells are "
        "killed and retried at a degraded block budget",
    )
    p.add_argument(
        "--run-id",
        default=None,
        help="journal every completed cell under .cache/runs/<id>/ "
        "(enables later --resume)",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume a journaled matrix run: skip its completed cells, "
        "replay missing/failed ones",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="cross-check small/medium cells against the exact CPU "
        "reference; mismatches are quarantined as status=invalid",
    )
    log = p.add_mutually_exclusive_group()
    log.add_argument(
        "--log-level",
        default=None,
        choices=tuple(LEVELS),
        help="structured telemetry level (default: $REPRO_LOG or off); "
        "with --run-id, events also land in .cache/runs/<id>/telemetry.jsonl",
    )
    log.add_argument(
        "--quiet",
        action="store_true",
        help="telemetry errors only (shorthand for --log-level error)",
    )
    log.add_argument(
        "--verbose",
        action="store_true",
        help="full debug telemetry on stderr (shorthand for --log-level debug)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table I (algorithm taxonomy)")
    sub.add_parser("table2", help="regenerate Table II (datasets)")

    c = sub.add_parser("count", help="count triangles in one dataset replica")
    c.add_argument("dataset", help="Table II dataset name")
    c.add_argument("--algorithm", default="GroupTC", help="which implementation")

    f = sub.add_parser("figure", help="one figure's series over the matrix")
    f.add_argument("metric", choices=FIGURE_METRICS)
    f.add_argument("--datasets", help="comma-separated subset (default: all 19)")
    f.add_argument("--algorithms", help="comma-separated subset (default: all 9)")
    f.add_argument("--csv", action="store_true", help="emit the raw matrix as CSV")

    s = sub.add_parser("speedup", help="Figure 15 style speedup table")
    s.add_argument("subject", help="algorithm whose speedup is reported")
    s.add_argument("--baselines", default="Polak,TRUST")
    s.add_argument("--datasets", help="comma-separated subset")

    wk = sub.add_parser(
        "work", help="work-efficiency table (comparisons vs. lower bound)"
    )
    wk.add_argument("--datasets", help="comma-separated subset (default: all 19)")
    wk.add_argument("--algorithms", help="comma-separated subset (default: all 9)")
    wk.add_argument("--csv", action="store_true", help="emit the raw matrix as CSV")

    w = sub.add_parser("sweep", help="configuration sweep for one algorithm")
    w.add_argument("algorithm")
    w.add_argument("dataset")
    w.add_argument("key", help="config key, e.g. chunk / edges_per_warp")
    w.add_argument("values", help="comma-separated integer values")

    pr = sub.add_parser(
        "profile",
        help="nvprof-style profile of one cell: per-kernel counters and "
        "source-line hotspots, optional Chrome timeline export",
    )
    pr.add_argument("algorithm", help="which implementation")
    pr.add_argument("dataset", help="Table II dataset name")
    pr.add_argument("--top", type=int, default=10, help="hotspot lines to show")
    pr.add_argument(
        "--key",
        default="global_load_requests",
        choices=LINE_FIELDS,
        help="counter the hotspot ranking sorts by",
    )
    pr.add_argument(
        "--export-trace",
        default=None,
        metavar="PATH",
        help="write a Chrome/Perfetto trace-event JSON timeline here",
    )

    cl = sub.add_parser(
        "cluster",
        help="simulated multi-GPU scale-out: partition a replica, run each "
        "partition on its own device instance, report speedup/efficiency",
    )
    cl.add_argument("algorithm", help="which implementation")
    cl.add_argument("dataset", help="Table II dataset name")
    cl.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="N",
        help="simulate exactly N devices and print the per-partition "
        "breakdown (default: sweep the 1/2/4/8/16 efficiency curve)",
    )
    cl.add_argument(
        "--partitioner",
        default="hash2d",
        choices=("edge1d", "hash2d"),
        help="edge1d: contiguous CSR chunks; hash2d: TRUST-style hashed "
        "2D vertex grid",
    )
    cl.add_argument(
        "--seed",
        type=int,
        default=0,
        help="partitioner hash seed (pins the hashed 2D grid assignment)",
    )
    cl.add_argument(
        "--counts",
        default=None,
        metavar="N,N,...",
        help="device counts for the curve (default 1,2,4,8,16)",
    )

    sv = sub.add_parser(
        "serve",
        help="run the fault-tolerant job service (line-delimited JSON over "
        "a unix socket or localhost TCP)",
    )
    listen = sv.add_mutually_exclusive_group(required=True)
    listen.add_argument("--socket", default=None, metavar="PATH",
                        help="listen on a unix domain socket at PATH")
    listen.add_argument("--port", type=int, default=None, metavar="N",
                        help="listen on localhost TCP port N (0 = ephemeral)")
    sv.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    sv.add_argument(
        "--server-id", default=None,
        help="stable id for the journal under .cache/serve/<id>/; reusing "
        "an id replays its unfinished jobs on boot",
    )
    sv.add_argument("--workers", type=int, default=2,
                    help="scheduler worker threads (each runs killable "
                    "subprocess attempts)")
    sv.add_argument("--max-queue-depth", type=int, default=64,
                    help="hard admission watermark: reject above this depth")
    sv.add_argument("--soft-queue-depth", type=int, default=16,
                    help="soft watermark: precision shedding engages above this")
    sv.add_argument("--quota-rate", type=float, default=50.0,
                    help="per-client token-bucket refill (jobs/second)")
    sv.add_argument("--quota-burst", type=float, default=100.0,
                    help="per-client token-bucket burst capacity")
    sv.add_argument("--default-deadline", type=float, default=60.0,
                    metavar="SECONDS",
                    help="wall-clock deadline for jobs that do not set one")
    sv.add_argument("--drain-timeout", type=float, default=30.0,
                    metavar="SECONDS",
                    help="graceful-shutdown drain budget; jobs still queued "
                    "after it stay journaled for the next boot")

    ca = sub.add_parser(
        "cache",
        help="maintain the on-disk cache: prune deletes the files this code "
        "can never read (old formats, versions and code digests)",
    )
    ca.add_argument("action", choices=("prune",))

    st = sub.add_parser(
        "stats",
        help="live service health: queue depth, shed level, admission "
        "outcomes, trace-store hit rate, latency percentiles",
    )
    target = st.add_mutually_exclusive_group(required=True)
    target.add_argument("--socket", default=None, metavar="PATH",
                        help="query a server on a unix domain socket")
    target.add_argument("--port", type=int, default=None, metavar="N",
                        help="query a server on localhost TCP port N")
    target.add_argument("--dir", dest="stats_dir", default=None, metavar="RUN_DIR",
                        help="read the newest snapshot from a run directory "
                        "(telemetry.jsonl or flightrec dumps) instead of a "
                        "live server")
    st.add_argument("--host", default="127.0.0.1", help="TCP host to query")
    st.add_argument("--watch", action="store_true",
                    help="refresh continuously (server push / dir re-read)")
    st.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                    help="refresh cadence for --watch")
    st.add_argument("--frames", type=int, default=0, metavar="N",
                    help="with --watch: stop after N rendered frames "
                    "(0 = until interrupted; used by tests and CI)")
    st.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the raw stats frame as JSON")
    st.add_argument("--prom", action="store_true",
                    help="emit the metrics snapshot in Prometheus text format")

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = args.log_level or ("error" if args.quiet else "debug" if args.verbose else None)
    # A resumed run logs into the original run's directory, so the journal
    # and its telemetry stay side by side across interruptions.
    run_id = args.run_id or getattr(args, "resume", None)
    tracer = configure_tracer(level=level, run_id=run_id)
    # Crash flight recorder: a bounded ring of recent events plus the
    # latest metrics snapshot, dumped under .cache/runs/<run_id>/flightrec/
    # on unhandled exceptions, quarantine, worker death, and SIGTERM.
    # Without telemetry configured the ring records warnings and errors
    # only, keeping the disabled-tracing hot path near-free.
    ring_level = level or ("warning" if tracer.min_level >= LEVELS["off"] else "info")
    install_flight_recorder(
        run_id or f"adhoc-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}",
        ring_level="warning" if ring_level == "off" else ring_level,
        excepthook=False,
    )
    # The JSONL sink batches (FLUSH_EVERY); without an explicit close the
    # final sub-batch — or, for a short-lived daemon, everything — is lost.
    try:
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            try:
                return profiler.runcall(_dispatch, args)
            finally:
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        return _dispatch(args)
    except BrokenPipeError:
        # Output piped into a pager/`head` that exited early. Not a crash:
        # point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise again, and leave quietly.
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except BaseException as exc:
        if not isinstance(exc, (KeyboardInterrupt, SystemExit)):
            maybe_dump(
                "unhandled_exception", error=f"{type(exc).__name__}: {exc}"
            )
        raise
    finally:
        tracer.close()


def _dispatch(args: argparse.Namespace) -> int:
    device = get_device(args.device)

    if args.command == "table1":
        print(render_table1())
        return 0

    if args.command == "table2":
        print(render_table2())
        return 0

    if args.command == "cache":
        removed, freed = prune_cache(TRACE_SCHEMA)
        print(f"pruned {removed} files, {freed / 1e6:.1f} MB freed")
        return 0

    if args.command == "count":
        rec = run_one(
            args.algorithm,
            args.dataset,
            device=device,
            ordering=args.ordering,
            max_blocks_simulated=args.blocks,
        )
        if not rec.ok:
            print(f"FAILED: {rec.error}")
            return 1
        print(f"dataset    : {rec.dataset} ({rec.size_class})")
        print(f"algorithm  : {rec.algorithm}")
        print(f"triangles  : {rec.triangles}")
        print(f"sim time   : {rec.sim_time_s * 1e3:.4f} ms on {rec.device}")
        print(f"warp eff   : {rec.warp_execution_efficiency:.2f}")
        print(f"gld t/r    : {rec.gld_transactions_per_request:.2f}")
        print(f"requests   : {rec.global_load_requests:.0f}")
        return 0

    if args.command == "profile":
        # Heavy renderers load lazily: the simulator core must not pay for
        # report/timeline imports on non-profile commands.
        from ..obs.chrome import timeline_to_trace, validate_trace, write_trace
        from ..obs.report import render_report
        from ..obs.session import profile_run
        from ..obs.timeline import build_timeline

        session = profile_run(
            args.algorithm,
            args.dataset,
            max_blocks_simulated=args.blocks,
            ordering=args.ordering,
            device=device,
        )
        rec = session.record
        if not rec.ok:
            print(f"FAILED: {rec.error}")
            return 1
        title = f"{rec.algorithm} on {rec.dataset} ({rec.device})"
        print(render_report(session.collector, key=args.key, top=args.top, title=title))
        if args.export_trace:
            timeline = build_timeline(session.launches)
            trace = timeline_to_trace(timeline, telemetry_events=session.events)
            problems = validate_trace(trace)
            if problems:  # pragma: no cover - defensive
                print(f"WARNING: exported trace failed validation: {problems[:3]}")
            write_trace(trace, args.export_trace)
            print(
                f"wrote Chrome trace: {args.export_trace} "
                f"({len(trace['traceEvents'])} events, "
                f"{timeline.sm_count} SM tracks, load in chrome://tracing)"
            )
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "stats":
        return _stats(args)

    if args.command == "cluster":
        from .cluster import DEVICE_COUNTS, run_cluster, scaleout_curve
        from .report import render_cluster, render_scaleout

        common = dict(
            partitioner=args.partitioner,
            seed=args.seed,
            device=device,
            ordering=args.ordering,
            max_blocks_simulated=args.blocks,
            jobs=args.jobs,
        )
        if args.devices is not None:
            record = run_cluster(args.algorithm, args.dataset, devices=args.devices, **common)
            print(render_cluster(record), end="")
            return 0 if record.ok else 1
        counts = tuple(int(v) for v in _split(args.counts) or ()) or DEVICE_COUNTS
        points = scaleout_curve(
            args.algorithm, args.dataset, device_counts=counts, **common
        )
        title = (
            f"scale-out of {args.algorithm} on {args.dataset} "
            f"({args.partitioner}, seed {args.seed})"
        )
        print(render_scaleout(points, title=title), end="")
        return 0 if all(pt.record.ok for pt in points) else 1

    resilience_kwargs = dict(
        run_id=args.run_id,
        resume=args.resume,
        cell_timeout=args.cell_timeout,
        validate=args.validate,
    )

    if args.command == "figure":
        matrix = run_matrix(
            _split(args.algorithms),
            _split(args.datasets),
            device=device,
            ordering=args.ordering,
            max_blocks_simulated=args.blocks,
            jobs=args.jobs,
            **resilience_kwargs,
        )
        print(matrix_to_csv(matrix) if args.csv else render_figure_series(matrix, args.metric))
        return 0

    if args.command == "work":
        matrix = run_matrix(
            _split(args.algorithms),
            _split(args.datasets),
            device=device,
            ordering=args.ordering,
            max_blocks_simulated=args.blocks,
            jobs=args.jobs,
            **resilience_kwargs,
        )
        print(matrix_to_csv(matrix) if args.csv else render_work_efficiency(matrix))
        return 0

    if args.command == "speedup":
        baselines = tuple(_split(args.baselines) or ())
        algorithms = tuple(dict.fromkeys((args.subject, *baselines)))
        matrix = run_matrix(
            algorithms,
            _split(args.datasets),
            device=device,
            ordering=args.ordering,
            max_blocks_simulated=args.blocks,
            jobs=args.jobs,
            **resilience_kwargs,
        )
        print(render_speedups(matrix, args.subject, baselines))
        return 0

    if args.command == "sweep":
        values = [int(v) for v in _split(args.values) or ()]
        points = sweep_config(
            args.algorithm,
            args.dataset,
            {args.key: values},
            device=device,
            ordering=args.ordering,
            max_blocks_simulated=args.blocks,
            jobs=args.jobs,
        )
        best = best_config(points)
        print(f"sweep of {args.algorithm}.{args.key} on {args.dataset}:")
        for pt in points:
            marker = "  <= best" if pt is best else ""
            print(
                f"  {args.key}={pt.config[args.key]:<8} "
                f"t={pt.sim_time_s * 1e6:10.2f} us  "
                f"eff={pt.warp_execution_efficiency:.2f}{marker}"
            )
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _serve(args: argparse.Namespace) -> int:
    """Boot the job service and block until it shuts down."""
    import signal

    from ..framework.resilience import RetryPolicy
    from ..serve.admission import AdmissionPolicy
    from ..serve.server import TriangleServer

    server = TriangleServer(
        socket_path=args.socket,
        port=args.port,
        host=args.host,
        server_id=args.server_id,
        workers=args.workers,
        admission=AdmissionPolicy(
            max_queue_depth=args.max_queue_depth,
            soft_queue_depth=args.soft_queue_depth,
            quota_rate=args.quota_rate,
            quota_burst=args.quota_burst,
        ),
        retry_policy=RetryPolicy(cell_timeout_s=args.cell_timeout),
        default_deadline_s=args.default_deadline,
        default_blocks=args.blocks,
        validate=args.validate,
        drain_timeout_s=args.drain_timeout,
    )
    # Re-point the flight recorder at the server id so crash dumps land
    # beside this daemon's journal-addressable state.
    install_flight_recorder(args.run_id or server.server_id, excepthook=False)
    server.start()
    # Machine-readable ready line: CI and tests block on this before
    # connecting (the TCP port may have been ephemeral).
    print(f"serve: listening {server.address} server_id={server.server_id}",
          flush=True)

    def _on_signal(signum, frame):  # pragma: no cover - signal path
        maybe_dump("sigterm" if signum == signal.SIGTERM else "sigint")
        server.shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server.wait()
    print(f"serve: stopped server_id={server.server_id}", flush=True)
    return 0


def _emit_stats_frame(frame: dict, args: argparse.Namespace, *, clear: bool) -> None:
    import json as _json

    from ..obs.statsview import render_stats

    if args.as_json:
        print(_json.dumps(frame, default=str), flush=True)
        return
    if args.prom:
        print(to_prometheus(frame.get("metrics") or {}), end="", flush=True)
        return
    if clear and sys.stdout.isatty():  # pragma: no cover - interactive only
        print("\x1b[2J\x1b[H", end="")
    print(render_stats(frame), flush=True)


def _stats(args: argparse.Namespace) -> int:
    """One-shot or live (``--watch``) service health view."""
    from ..obs.statsview import latest_dir_snapshot

    limit = args.frames if args.frames > 0 else None

    if args.stats_dir is not None:
        shown = 0
        try:
            while True:
                frame = latest_dir_snapshot(args.stats_dir)
                if frame is None:
                    print(f"stats: no snapshot found under {args.stats_dir}",
                          file=sys.stderr)
                    return 1
                _emit_stats_frame(frame, args, clear=shown > 0)
                shown += 1
                if not args.watch or (limit is not None and shown >= limit):
                    return 0
                time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0

    from ..serve.client import ServeClient, ServeConnectionClosed, ServeTimeout

    try:
        with ServeClient(socket_path=args.socket, port=args.port,
                         host=args.host, client_id="repro-stats") as client:
            if not args.watch:
                _emit_stats_frame(client.stats(), args, clear=False)
                return 0
            # Subscribe once; the server pushes untagged frames on its own
            # cadence and they land in the client's unrouted stash.
            _emit_stats_frame(client.stats_watch(args.interval), args, clear=False)
            shown = 1
            while limit is None or shown < limit:
                time.sleep(min(args.interval, 0.25))
                for frame in client.take_unrouted("stats"):
                    _emit_stats_frame(frame, args, clear=True)
                    shown += 1
                    if limit is not None and shown >= limit:
                        break
            return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    except (OSError, ServeConnectionClosed, ServeTimeout) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
