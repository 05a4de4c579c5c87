"""Command-line front end for the verification subsystem.

::

    python -m repro.verify golden --check          # diff against tests/goldens
    python -m repro.verify golden --update         # regenerate the snapshots
    python -m repro.verify cluster --check         # scale-out baselines
    python -m repro.verify fuzz --seeds 25 --max-edges 400
    python -m repro.verify engines --seeds 10     # event vs vectorized
    python -m repro.verify invariants --seeds 8

Exit status is 0 only when every check passes.  ``golden`` and
``cluster`` share one handler over the two snapshot kinds of
:mod:`repro.verify.goldens`; ``--check`` names each drifted key as
``fixture / algorithm / ...``.  ``fuzz`` and ``engines`` share one handler
over the fuzz loop of :mod:`repro.verify.differential`, one oracle each,
and print the artifact directory of every disagreeing seed.
"""

from __future__ import annotations

import argparse
import sys

from .differential import IMPLEMENTATIONS, Oracle, run_fuzz
from .engines import ENGINES, engine_oracle, fixture_parity
from .fixtures import GOLDEN_DEVICES
from .goldens import DEFAULT_ATOL, DEFAULT_RTOL, check_device, golden_path, update_goldens
from .invariants import run_invariants

__all__ = ["main", "build_parser"]


def _golden_parser(sub, kind: str, help: str) -> None:
    g = sub.add_parser(kind, help=help)
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="diff against snapshots (default)")
    mode.add_argument("--update", action="store_true", help="rewrite the snapshots")
    g.add_argument(
        "--devices",
        default=",".join(GOLDEN_DEVICES),
        help="comma-separated device presets (default: both simulated GPUs)",
    )
    g.add_argument("--root", default=None, help="snapshot directory (default: tests/goldens)")
    g.add_argument("--rtol", type=float, default=DEFAULT_RTOL, help="relative tolerance")
    g.add_argument("--atol", type=float, default=DEFAULT_ATOL, help="absolute tolerance")


def _fuzz_parser(sub, oracle: Oracle, help: str, seeds: int):
    f = sub.add_parser(oracle.name, help=help)
    f.add_argument(
        "--seeds", type=int, default=seeds, help=f"number of fuzz seeds (default {seeds})"
    )
    f.add_argument(
        "--start-seed", type=int, default=0,
        help="first seed (CI lanes window the seed space with this)",
    )
    f.add_argument(
        "--max-edges", type=int, default=oracle.max_edges, help="raw edge budget per case"
    )
    f.add_argument("--no-shrink", action="store_true", help="skip delta-debugging failures")
    f.add_argument(
        "--artifact-root",
        default=None,
        help=f"failure bundle directory (default: .cache/{oracle.artifact_dir})",
    )
    return f


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.verify",
        description="Golden baselines, differential fuzzing, and invariants.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    _golden_parser(sub, "golden", "check or regenerate metric baselines")
    _golden_parser(sub, "cluster", "check or regenerate scale-out baselines")
    _fuzz_parser(sub, IMPLEMENTATIONS, "differential fuzzing with shrinking", 25)
    e = _fuzz_parser(sub, ENGINES, "event vs vectorized engine parity", 10)
    e.add_argument(
        "--skip-fixtures",
        action="store_true",
        help="skip the fixture x algorithm snapshot diff (fuzz only)",
    )
    e.add_argument("--rtol", type=float, default=DEFAULT_RTOL, help="float tolerance")

    i = sub.add_parser("invariants", help="metamorphic + simulator invariant catalogue")
    i.add_argument("--seeds", type=int, default=6, help="random graphs per metamorphic check")
    i.add_argument(
        "--skip-parallel",
        action="store_true",
        help="skip the jobs=1 vs jobs=N determinism check (spawns workers)",
    )
    return p


def _cmd_golden(args) -> int:
    """``golden`` and ``cluster``: the snapshot kind is the command name."""
    kind = args.command
    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    if args.update:
        for path in update_goldens(tuple(devices), kind=kind, root=args.root):
            print(f"wrote {path}")
        return 0
    status = 0
    for device in devices:
        path = golden_path(device, args.root, kind=kind)
        if not path.exists():
            print(f"{device}: MISSING snapshot {path} (run `{kind} --update`)")
            status = 1
            continue
        diffs = check_device(
            device, kind=kind, root=args.root, rtol=args.rtol, atol=args.atol
        )
        if diffs:
            status = 1
            print(f"{device}: {len(diffs)} value(s) drifted from {path}:")
            for diff in diffs:
                print(f"  {diff}")
        else:
            print(f"{device}: ok ({path})")
    return status


def _cmd_fuzz(args) -> int:
    """``fuzz`` and ``engines``: one fuzz loop, the oracle named by the command."""
    engines = args.command == "engines"
    oracle = engine_oracle(rtol=args.rtol) if engines else IMPLEMENTATIONS
    failures = 0

    def progress(report) -> None:
        nonlocal failures
        if report.ok:
            print(
                f"seed {report.seed:>4} [{report.strategy}] "
                f"{report.edges.shape[0]} edges: ok"
            )
        else:
            failures += 1
            shrunk = report.shrunk_edges
            size = shrunk.shape[0] if shrunk is not None else report.edges.shape[0]
            print(
                f"seed {report.seed:>4} [{report.strategy}] DISAGREEMENT "
                f"{sorted(report.findings)} shrunk to {size} edges "
                f"-> {report.artifact_dir}"
            )

    run_fuzz(
        range(args.start_seed, args.start_seed + args.seeds),
        oracle=oracle,
        max_edges=args.max_edges,
        shrink=not args.no_shrink,
        artifact_root=args.artifact_root,
        progress=progress,
    )
    print(f"{args.seeds} seeds, {failures} disagreement(s)")
    status = 1 if failures else 0
    if engines and not args.skip_fixtures:
        for device in GOLDEN_DEVICES:
            diffs = fixture_parity(device, rtol=args.rtol)
            if diffs:
                status = 1
                print(f"{device}: {len(diffs)} engine-parity diff(s) on fixtures:")
                for diff in diffs:
                    print(f"  {diff}")
            else:
                print(f"{device}: fixture matrix parity ok")
    return status


def _cmd_invariants(args) -> int:
    results = run_invariants(seeds=args.seeds, include_parallel=not args.skip_parallel)
    for result in results:
        print(result)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants hold")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("golden", "cluster"):
        return _cmd_golden(args)
    if args.command in ("fuzz", "engines"):
        return _cmd_fuzz(args)
    return _cmd_invariants(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
