"""Crash-safe campaign runner: ``python -m repro.experiments``.

Runs a list of experiments (default: all of them) on the leased shard
executor — per-cell timeouts, bounded retries, ``FAILED`` markers —
recording each finished cell in the result store (``--cache-dir``),
so an interrupted run restarts by running it again and re-executes
only the unfinished cells::

    python -m repro.experiments run --jobs 8 -o report.txt
    # ... killed half-way ...
    python -m repro.experiments run --jobs 8 -o report.txt

The resumed report is byte-identical to an uninterrupted one (see
docs/fault-injection.md for the determinism contract).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from ..core.artifacts import atomic_write_text
from ..core.profile import profile_call
from .campaign import render_report, run_campaign
from .registry import experiment_names
from .shard import FailedCell
from .store import DEFAULT_DIR as DEFAULT_STORE_DIR


def _cmd_run(args) -> int:
    names = args.experiments or experiment_names()
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        known = ", ".join(experiment_names())
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(known: {known})", file=sys.stderr)
        return 2
    jobs, timeout = args.jobs, args.timeout
    if args.profile:
        # cProfile sees only this process, so the cells run here (no
        # worker, and no timeout, which needs a worker to kill), and a
        # served cell executes nothing to measure.
        if jobs not in (None, 1):
            print("--profile forces serial execution (--jobs ignored)",
                  file=sys.stderr)
        if timeout is not None:
            print("--profile runs in-process (--timeout ignored)",
                  file=sys.stderr)
        jobs = timeout = None
    stats: dict = {}
    campaign = partial(
        run_campaign, names, quick=not args.full, seed=args.seed,
        jobs=jobs, timeout_s=timeout, retries=args.retries,
        backoff_s=args.backoff, reseed=args.reseed,
        store_dir=args.cache_dir,
        serve=args.resume or not (args.no_cache or args.profile),
        stats=stats)
    table = None
    if args.profile:
        (cells, results), table = profile_call(campaign)
    else:
        cells, results = campaign()
    # stderr: the stdout report must stay byte-identical whether
    # cells were computed or served from the store
    print(f"cell cache: {stats['served']} hit(s), "
          f"{len(cells) - stats['served']} executed", file=sys.stderr)
    if table is not None:
        print("per-module profile (all cells; see "
              "docs/performance.md):", file=sys.stderr)
        print(table, file=sys.stderr)
    report = render_report(cells, results)
    if args.output:
        atomic_write_text(args.output, report)
        print(f"report written to {args.output}")
    else:
        print(report)
    failed = [r for r in results if isinstance(r, FailedCell)]
    for failure in failed:
        print(f"FAILED {failure.cell['experiment']}: "
              f"{failure.render()}", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="crash-safe, resumable experiment campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment campaign")
    p.add_argument("experiments", nargs="*", metavar="EXP",
                   help="experiments to run (default: all)")
    p.add_argument("--full", action="store_true",
                   help="full-size configuration (slower)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                   help="leased worker processes sharing the result "
                        "store (0 = all cores; unset or 1 = "
                        "in-process); crash-tolerant: survives worker "
                        "SIGKILLs and supervisor death (see "
                        "docs/distributed-campaigns.md)")
    p.add_argument("--timeout", type=float, default=None,
                   metavar="S",
                   help="per-cell wall-clock timeout (a cell runs in "
                        "a worker process, which is killed past it)")
    p.add_argument("--retries", type=int, default=0,
                   help="re-run failed cells up to N extra times "
                        "(with --reseed: N reseeded retry rounds)")
    p.add_argument("--backoff", type=float, default=0.5, metavar="S",
                   help="base for exponential retry backoff")
    p.add_argument("--reseed", action="store_true",
                   help="perturb a cell's seed on each retry "
                        "(trades byte-identical reports for "
                        "progress past seed-specific failures)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="ignored, kept so older command lines still "
                        "parse: finished cells are recorded in the "
                        "store (--cache-dir)")
    p.add_argument("--resume", action="store_true",
                   help="serve stored cells even under --no-cache or "
                        "--profile (a plain rerun already resumes)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every cell instead of serving "
                        "stored ones (e.g. for timing runs); finished "
                        "cells are still recorded")
    p.add_argument("--cache-dir", default=DEFAULT_STORE_DIR, metavar="DIR",
                   help="result-store directory (default: "
                        f"{DEFAULT_STORE_DIR}): every finished cell is "
                        "recorded there and served to later runs; "
                        "rows invalidate automatically when "
                        "src/repro changes")
    p.add_argument("--profile", action="store_true",
                   help="run in-process (--jobs and --timeout are "
                        "ignored) and report per-module call counts "
                        "and cProfile self-time over every cell to "
                        "stderr (recomputes served cells; see "
                        "docs/performance.md)")
    p.add_argument("--output", "-o", default=None,
                   help="write the report to a file (atomically) "
                        "instead of stdout")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
