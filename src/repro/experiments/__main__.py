"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig3 table4 ...
    python -m repro.experiments run all --jobs 8
    python -m repro.experiments run all --workers box1:9001,box2:9001
    python -m repro.experiments run all --json results.json
    python -m repro.experiments profile [names...]

Each experiment prints the paper-style table it reproduces.  ``run``
executes the experiments' sweep cells in-process, or on dispatch
workers: ``--jobs N`` spawns N localhost workers for the run (only
where they can win — more than two usable cores and enough pending
cells; otherwise the cells run in-process and a note says so), and
``--workers host:port,...`` uses already-running ``python -m
repro.experiments.serve`` processes on the same checkout instead.
Cell results are cached under ``.repro-cache/`` keyed by config +
source hash (``--no-cache`` forces recompute); the tables land on
stdout — byte-identical whatever ``--jobs`` or the worker fleet is —
while timing, cache accounting and the effective execution mode go to
stderr.  ``profile`` runs the substrate micro-benchmarks (or named
experiments, in-process) under cProfile and prints the top functions
by cumulative time.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from .base import print_result, results_to_json
from .runner import SPECS, run_many


def _import_bench_substrate():
    """Import ``tools.bench_substrate`` as the package it is.

    Works as-is from a repo-root checkout (the repo root is on
    ``sys.path`` for ``python -m`` runs started there); otherwise the
    repo root is appended explicitly.
    """
    try:
        from tools import bench_substrate
    except ImportError:
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[3]
        if str(repo_root) not in sys.path:
            sys.path.append(str(repo_root))
        from tools import bench_substrate
    return bench_substrate


def _profile(names: List[str], top: int, bench: str | None = None) -> int:
    """Run the substrate micro-benchmarks (or experiments) under cProfile."""
    import cProfile
    import pstats

    if bench:
        bench_substrate = _import_bench_substrate()
        wanted = [b.strip() for b in bench.split(",") if b.strip()]
        unknown = [b for b in wanted if b not in bench_substrate.BENCHMARKS]
        if unknown:
            print(f"unknown benchmarks: {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(bench_substrate.BENCHMARKS)}",
                  file=sys.stderr)
            return 2

        def workload():
            for name in wanted:
                fn, scale, _unit = bench_substrate.BENCHMARKS[name]
                fn(scale)

        label = f"substrate benchmarks (full scale): {', '.join(wanted)}"
    elif names:
        unknown = [n for n in names if n not in SPECS]
        if unknown:
            print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
            return 2

        def workload():
            run_many(names, jobs=1, cache=False)

        label = ", ".join(names)
    else:
        # Default: the substrate micro-benchmark suite at reduced scale —
        # the hot paths every experiment sits on.
        bench_substrate = _import_bench_substrate()

        def workload():
            for name, (fn, scale, _unit) in bench_substrate.BENCHMARKS.items():
                fn(max(1, scale // 10))

        label = "substrate micro-benchmarks (1/10 scale)"

    print(f"profiling: {label}")
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("names", nargs="+",
                            help="experiment names, or 'all'")
    fleet = run_parser.add_mutually_exclusive_group()
    fleet.add_argument("--jobs", type=_positive_int, default=None,
                       help="localhost dispatch workers to spawn for the "
                            "cell sweep (default: all cores; 1 = "
                            "in-process)")
    fleet.add_argument("--workers", metavar="HOST:PORT,...", default=None,
                       help="dispatch cells to these cell servers "
                            "(python -m repro.experiments.serve); "
                            "comma-separated host:port endpoints")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="recompute every cell, ignoring and not "
                                 "writing .repro-cache/")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also dump the results as JSON to PATH")
    profile_parser = sub.add_parser(
        "profile",
        help="profile the substrate micro-benchmarks (or experiments) "
             "under cProfile",
    )
    profile_parser.add_argument("names", nargs="*",
                                help="experiment names (default: substrate "
                                     "micro-benchmarks)")
    profile_parser.add_argument("--top", type=int, default=20,
                                help="how many functions to print (default 20)")
    profile_parser.add_argument("--bench", default=None,
                                help="comma-separated substrate benchmark "
                                     "names to profile at full scale "
                                     "(e.g. link_stream,switch_fanout)")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in SPECS:
            print(name)
        return 0

    if args.command == "profile":
        return _profile(args.names, args.top, bench=args.bench)

    # ``all`` means the default set; opt-out specs (rack-incast) run by
    # explicit name only, keeping the run-all transcript byte-stable.
    names = ([n for n, s in SPECS.items() if s.default]
             if args.names == ["all"] else args.names)
    unknown = [n for n in names if n not in SPECS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(SPECS)}", file=sys.stderr)
        return 2
    if args.workers:
        from .dispatch import parse_endpoints

        try:
            parse_endpoints(args.workers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    report = run_many(names, jobs=args.jobs, cache=not args.no_cache,
                      workers=args.workers)
    for result in report.results.values():
        print_result(result)
        print()
    stats = report.stats
    print(f"{len(report.results)} experiment(s), {stats.total} cells "
          f"({stats.hits} cached, {stats.misses} computed) "
          f"in {report.wall_s:.1f}s with jobs={report.jobs} "
          f"[{report.mode}]",
          file=sys.stderr)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(results_to_json(report.results.values()))
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
