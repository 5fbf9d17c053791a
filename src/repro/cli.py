"""Command-line interface: ``repro-sched`` / ``python -m repro``.

Subcommands::

    repro-sched list                      # experiments and workloads
    repro-sched experiment fig6 [--full] [--seed N] [--jobs N]
    repro-sched run MG --sched ule --cpus 32 [--trace]
    repro-sched compare MG --cpus 32      # CFS vs ULE on one workload
    repro-sched report [--only EXP ...] [-o FILE]  # one campaign report

``--jobs N`` fans independent simulation cells out to N worker
processes (0 = all cores); results are identical to a serial run —
parallelism only changes the wall clock.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .analysis.stats import percent_diff
from .core.clock import sec, to_sec, usec
from .core.profile import profile_call
from .experiments import (EXPERIMENTS, experiment_names, run_experiment)
from .experiments.base import make_engine, run_workload
from .sched import available_schedulers
from .workloads import make_workload, workload_names


def _cmd_list(args) -> int:
    print("experiments:")
    for name in experiment_names():
        print(f"  {name:<8} {EXPERIMENTS[name][1]}")
    print("\nschedulers:", ", ".join(available_schedulers()))
    print("\nworkloads:")
    names = workload_names()
    for i in range(0, len(names), 6):
        print("  " + ", ".join(names[i:i + 6]))
    return 0


def _cmd_experiment(args) -> int:
    result = run_experiment(args.name, quick=not args.full,
                            seed=args.seed, jobs=args.jobs)
    print(result.text)
    return 0


def _run_one(name: str, sched: str, cpus: int, seed: int,
             noise: bool, sanitize: bool = False,
             faults_path: str | None = None,
             decisions: bool = False) -> tuple:
    faults = None
    if faults_path is not None:
        from .faults import FaultPlan
        faults = FaultPlan.load(faults_path)
    engine = make_engine(sched, ncpus=cpus, seed=seed,
                         ctx_switch_cost_ns=usec(15),
                         sanitize=True if sanitize else None,
                         faults=faults)
    trace = None
    if decisions:
        from .tracing.decisions import attach_decision_trace
        trace = attach_decision_trace(engine)
    if noise:
        from .workloads.noise import KernelNoiseWorkload
        KernelNoiseWorkload().launch(engine, at=0)
    workload = make_workload(name)
    reason = run_workload(engine, workload, sec(600))
    return engine, workload, reason, trace


def _cmd_run(args) -> int:
    run = partial(_run_one, args.name, args.sched, args.cpus, args.seed,
                  args.noise, sanitize=args.sanitize,
                  faults_path=args.faults,
                  decisions=args.decisions is not None)
    table = None
    if args.profile:
        (engine, workload, reason, trace), table = profile_call(run)
    else:
        engine, workload, reason, trace = run()
    perf = workload.performance(engine)
    print(f"{args.name} on {args.sched} ({args.cpus} cpus): "
          f"performance={perf:.4f} ops/s, simulated "
          f"{to_sec(engine.now):.2f}s, end={reason}")
    print(f"  switches={engine.metrics.counter('engine.switches'):.0f} "
          f"migrations={engine.metrics.counter('engine.migrations'):.0f} "
          f"preemptions="
          f"{engine.metrics.counter('engine.preemptions'):.0f}")
    if engine.faults is not None:
        counts = " ".join(f"{k}={v}" for k, v
                          in sorted(engine.faults.counts.items()) if v)
        print(f"  faults: {len(engine.faults.applied)} applied"
              + (f" ({counts})" if counts else ""))
    if args.digest:
        from .tracing.digest import schedule_digest
        print(f"  digest={schedule_digest(engine)}")
    if trace is not None:
        with open(args.decisions, "w") as fh:
            count = trace.write_jsonl(fh)
        print(f"  decisions: {count} pick records -> {args.decisions}")
    if table is not None:
        # stderr: stdout stays the run's result
        print("per-module profile (see docs/performance.md):",
              file=sys.stderr)
        print(table, file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    perfs = {}
    for sched in ("cfs", "ule"):
        engine, workload, _, _ = _run_one(args.name, sched, args.cpus,
                                          args.seed, args.noise,
                                          sanitize=args.sanitize)
        perfs[sched] = workload.performance(engine)
        print(f"  {sched}: {perfs[sched]:.4f} ops/s")
    diff = percent_diff(perfs["ule"], perfs["cfs"])
    print(f"{args.name}: ULE is {diff:+.1f}% vs CFS "
          f"({args.cpus} cpus)")
    return 0


def _cmd_report(args) -> int:
    """Run the experiments as one campaign (``python -m
    repro.experiments run``) and write its report."""
    from .experiments.__main__ import main as campaign_main

    argv = ["run", *(args.only or ()), "--seed", str(args.seed)]
    if args.full:
        argv.append("--full")
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.output:
        argv += ["-o", args.output]
    return campaign_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-sched argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Reproduction of 'The Battle of the Schedulers: "
                    "FreeBSD ULE vs. Linux CFS' (ATC'18)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads") \
        .set_defaults(func=_cmd_list)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", choices=experiment_names())
    p.add_argument("--full", action="store_true",
                   help="full-size configuration (slower)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="fan simulation cells out to N worker "
                        "processes (0 = all cores); rows are "
                        "identical to a serial run")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report",
                       help="run every experiment as one campaign "
                            "(python -m repro.experiments run), "
                            "write one report")
    p.add_argument("--output", "-o", default=None,
                   help="write to a file instead of stdout")
    p.add_argument("--only", nargs="*", default=None,
                   choices=experiment_names(), metavar="EXP",
                   help="subset of experiments")
    p.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="leased campaign worker processes "
                        "(0 = all cores)")
    p.set_defaults(func=_cmd_report)

    for cmd, func, help_ in (("run", _cmd_run, "run one workload"),
                             ("compare", _cmd_compare,
                              "compare CFS vs ULE on one workload")):
        p = sub.add_parser(cmd, help=help_)
        p.add_argument("name", choices=workload_names(), metavar="NAME")
        p.add_argument("--sched", default="ule",
                       choices=available_schedulers())
        p.add_argument("--cpus", type=int, default=32)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--noise", action="store_true",
                       help="add per-CPU kernel-thread noise")
        p.add_argument("--sanitize", action="store_true",
                       help="validate scheduler invariants after "
                            "every event (slow; raises "
                            "SanitizerError on violation)")
        if cmd == "run":
            p.add_argument("--digest", action="store_true",
                           help="print the canonical schedule digest "
                                "(see docs/testing.md)")
            p.add_argument("--faults", default=None, metavar="PLAN",
                           help="inject a fault plan (JSON; see "
                                "docs/fault-injection.md) — hotplug, "
                                "tick jitter, IPI loss, stalls")
            p.add_argument("--profile", action="store_true",
                           help="report per-module call counts and "
                                "cProfile self-time to stderr after "
                                "the run (see docs/performance.md)")
            p.add_argument("--decisions", default=None, metavar="PATH",
                           help="export every pick_next decision as "
                                "tid-free JSONL records (the "
                                "predictive-scheduler training "
                                "format; see docs/scheduler-zoo.md)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
