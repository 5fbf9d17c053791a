"""Chaos gates: ``python -m repro.faults smoke`` / ``shard-chaos``.

``smoke`` — two in-engine checks, both under ``Engine(sanitize=True)``
so every scheduler invariant is validated after every event:

1. one fig5 cell per scheduler under the canned fault plan
   (``plans/chaos-smoke.json``: tick jitter + IPI drop/redelivery +
   clock coarsening + a thread stall), asserting the workload still
   completes;
2. a 4-CPU hotplug cell per scheduler — spinners spread over the
   machine while two cores go offline and come back — asserting the
   drain/rebalance paths leave no runnable thread on a dead core (the
   sanitizer raises if they do) and that the restored cores pick work
   back up.

``shard-chaos`` — the distributed-campaign robustness gate
(docs/distributed-campaigns.md): a bounded sensitivity sweep through
the leased work-stealing shard executor where the *real* processes
are the fault targets — the supervisor is SIGKILLed mid-sweep, the
sweep is resumed, and resumed workers are SIGKILLed by a seeded
:class:`~repro.faults.procchaos.WorkerKiller` — asserting the merged
report is byte-identical to an uninterrupted serial run.

Both are wired into ``make chaos-smoke`` / ``make shard-chaos-smoke``
(part of ``make verify``) and CI.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

from .plan import CoreOffline, CoreOnline, FaultPlan

CANNED_PLAN = Path(__file__).parent / "plans" / "chaos-smoke.json"


def _fig5_cell(sched: str) -> None:
    from ..experiments.fig5_single_core_perf import run_app
    plan = FaultPlan.load(CANNED_PLAN)
    out = run_app("MG", sched, seed=1, sanitize=True, faults=plan)
    print(f"  fig5 MG/{sched}: perf={out['perf']:.3f} ops/s "
          f"digest={out['digest']} (chaos, sanitized)")


def _hotplug_cell(sched: str) -> None:
    from ..core.clock import msec, sec
    from ..experiments.base import make_engine
    from ..workloads.spinner import SpinnerWorkload

    plan = FaultPlan(seed=7, faults=(
        CoreOffline(at_ns=msec(200), cpu=2),
        CoreOffline(at_ns=msec(300), cpu=1),
        CoreOnline(at_ns=msec(600), cpu=2),
        CoreOnline(at_ns=msec(700), cpu=1),
    ))
    engine = make_engine(sched, ncpus=4, seed=1, sanitize=True,
                         faults=plan)
    SpinnerWorkload(count=8, pin_cpu=None).launch(engine, at=0)
    engine.run(until=sec(1))
    offlines = engine.metrics.counter("engine.hotplug_offlines")
    onlines = engine.metrics.counter("engine.hotplug_onlines")
    if offlines != 2 or onlines != 2:
        raise SystemExit(f"hotplug counts off: {offlines}/{onlines}")
    for core in engine.machine.cores:
        if not core.online:
            raise SystemExit(f"cpu {core.index} still offline")
        if engine.nr_runnable_on(core.index) == 0:
            raise SystemExit(
                f"cpu {core.index} got no work back after online "
                f"({sched})")
    print(f"  hotplug 4cpu/{sched}: 2 offline + 2 online, "
          f"drained and rebalanced (sanitized)")


def _cmd_smoke(args) -> int:
    for sched in ("cfs", "ule"):
        _fig5_cell(sched)
        _hotplug_cell(sched)
    print("chaos smoke: OK")
    return 0


# ---------------------------------------------------------------------------
# shard-chaos: worker/supervisor-kill sweep with byte-identity assert
# ---------------------------------------------------------------------------


def shard_chaos_cells(seeds: int = 15) -> list:
    """The gate's sensitivity sweep: spinner cells over scheduler x
    thread-count x seed — cheap (~300 ms simulated each, ~10 ms
    wall), all distinct, fully deterministic."""
    return [{"sweep": "shard-chaos", "sched": sched,
             "threads": threads, "seed": seed}
            for sched in ("cfs", "ule")
            for threads in (2, 3, 4, 6)
            for seed in range(1, seeds + 1)]


def shard_chaos_cell(cell: dict) -> dict:
    """One sweep cell: a short 2-CPU spinner run; the digest pins the
    exact schedule, so report byte-identity proves result integrity
    end to end."""
    from ..core.clock import msec
    from ..experiments.base import make_engine
    from ..tracing.digest import schedule_digest
    from ..workloads.spinner import SpinnerWorkload

    engine = make_engine(cell["sched"], ncpus=2, seed=cell["seed"])
    SpinnerWorkload(count=cell["threads"], pin_cpu=None,
                    name="shard-chaos").launch(engine, at=0)
    engine.run(until=msec(300))
    return {"digest": schedule_digest(engine),
            "switches": engine.metrics.counter("engine.switches"),
            "events": engine.events_processed}


def render_shard_report(cells, results) -> str:
    """Deterministic per-cell report (no timing, no worker identity)
    — the byte-identity comparand."""
    from ..experiments.shard import FailedCell
    lines = ["# shard-chaos sensitivity sweep"]
    for cell, result in zip(cells, results):
        name = (f"{cell['sched']}/t{cell['threads']}"
                f"/s{cell['seed']}")
        if isinstance(result, FailedCell):
            lines.append(f"{name}: {result.render()}")
        else:
            lines.append(f"{name}: digest={result['digest']} "
                         f"switches={result['switches']} "
                         f"events={result['events']}")
    return "\n".join(lines) + "\n"


def _shard_chaos_child(store_dir, workers, lease_s) -> None:
    """Phase-1 supervisor (run in a child so the parent can SIGKILL
    it mid-sweep): starts the sharded sweep and never finishes."""
    from ..experiments.shard import shard_map

    shard_map(shard_chaos_cell, shard_chaos_cells(), workers,
              store_dir=store_dir, lease_s=lease_s)


def _cmd_shard_chaos(args) -> int:
    from ..experiments.parallel import cell_map
    from ..experiments.shard import FailedCell, shard_map
    from ..experiments.store import ShardStore
    from .procchaos import WorkerKiller

    cells = shard_chaos_cells()
    print(f"shard-chaos: {len(cells)} cells, {args.workers} workers, "
          f"{args.kills} worker SIGKILL(s) + 1 supervisor SIGKILL")

    t0 = time.monotonic()
    serial = cell_map(shard_chaos_cell, cells)
    reference = render_shard_report(cells, serial)
    print(f"  serial reference: {len(cells)} cells in "
          f"{time.monotonic() - t0:.1f}s")

    with tempfile.TemporaryDirectory(prefix="shard-chaos-") as tmp:
        store_dir = os.path.join(tmp, "store")

        # phase 1: SIGKILL the supervisor itself mid-sweep (the store
        # is created first, so the child never races its creation, and
        # closed across the fork, so the child takes its own sqlite
        # locks rather than inheriting a connection)
        ShardStore(store_dir).close()
        child = multiprocessing.Process(
            target=_shard_chaos_child,
            args=(store_dir, args.workers, args.lease))
        child.start()
        with ShardStore(store_dir) as store:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                finished = store.counts().get("done", 0)
                if finished >= max(4, len(cells) // 8):
                    break
                if not child.is_alive():  # pragma: no cover - flake guard
                    break
                time.sleep(0.02)
        interrupted_alive = child.is_alive()
        if interrupted_alive:
            os.kill(child.pid, signal.SIGKILL)
        child.join()
        print(f"  phase 1: supervisor SIGKILLed with ~{finished} "
              f"cell(s) stored "
              f"(alive at kill: {interrupted_alive})")

        # phase 2: rerun the same sweep; kill workers while it runs
        killer = WorkerKiller(args.kills, seed=args.seed,
                              min_gap_s=0.05, max_gap_s=0.25)
        stats: dict = {}
        results = shard_map(shard_chaos_cell, cells, args.workers,
                            store_dir=store_dir, lease_s=args.lease,
                            chaos=killer, stats=stats)
        print(f"  phase 2: resumed past {stats['served']} stored "
              f"cell(s); {len(killer.killed)} worker(s) SIGKILLed")

    failed = [r for r in results if isinstance(r, FailedCell)]
    if failed:
        print(f"shard-chaos: FAILED - {len(failed)} cell(s) failed "
              f"(first: {failed[0].render()})", file=sys.stderr)
        return 1
    report = render_shard_report(cells, results)
    if report != reference:
        for line_s, line_r in zip(reference.splitlines(),
                                  report.splitlines()):
            if line_s != line_r:
                print(f"shard-chaos: FAILED - report diverged:\n"
                      f"  serial : {line_s}\n"
                      f"  sharded: {line_r}", file=sys.stderr)
                break
        return 1
    if len(killer.killed) < args.kills:
        print(f"shard-chaos: FAILED - only {len(killer.killed)} of "
              f"{args.kills} worker kills landed (sweep too short? "
              f"raise --kills gaps or cell count)", file=sys.stderr)
        return 1
    print(f"shard-chaos: OK - report byte-identical to serial "
          f"({len(report)} bytes) after 1 supervisor + "
          f"{len(killer.killed)} worker SIGKILL(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="fault-injection utilities (see "
                    "docs/fault-injection.md)")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("smoke",
                       help="chaos smoke gate: fig5 + hotplug cells "
                            "per scheduler under --sanitize")
    p.set_defaults(func=_cmd_smoke)
    p = sub.add_parser("shard-chaos",
                       help="shard-executor chaos gate: SIGKILL the "
                            "supervisor and N workers mid-sweep, "
                            "resume, assert the report is "
                            "byte-identical to a serial run")
    p.add_argument("--workers", type=int, default=3,
                   help="shard worker processes (default: 3 — "
                        "processes, not cores: the gate is about "
                        "crash tolerance, not throughput)")
    p.add_argument("--kills", type=int, default=3,
                   help="worker SIGKILL budget (default: 3)")
    p.add_argument("--seed", type=int, default=7,
                   help="kill-schedule seed")
    p.add_argument("--lease", type=float, default=0.5, metavar="S",
                   help="store lease duration (default: 0.5s — "
                        "short, so stolen cells re-lease quickly)")
    p.set_defaults(func=_cmd_shard_chaos)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
