"""Bench-smoke gate: a per-profile events/sec floor.

A fast (<~15 s) CI stage that runs a small fixed scenario set once
and asserts each profile's throughput stays above its floor.  Each
floor is deliberately ~20x below that profile's observed throughput,
so hardware variance never trips it but an accidental algorithmic
regression (an O(n) scan in the event queue, a quadratic balance
pass) fails fast without waiting for the full ``make bench`` +
baseline comparison.  Per-profile floors matter because the profiles
sit at very different absolute rates: one shared floor low enough for
the slowest profile would leave the fastest with a ~100x blind spot.

Exit status: 0 = all green, 1 = floor violation.  Run via ``make
bench-smoke`` (part of ``make verify`` and CI).  CI uploads
``BENCH_trajectory.json`` and the ``make bench-profile``
per-module breakdown so the cross-PR perf story rides along with
every run.
"""

from __future__ import annotations

import sys
import time

#: per-profile events/sec floors, each ~20x below observed smoke
#: throughput on developer hardware (~½ that in CI): only
#: catastrophic regressions trip
FLOORS = {
    "tick_8x16": 5_000,
    "fig6/cfs": 4_000,
    "fig6/ule": 3_000,
}


def _tick_cell():
    """16 spinners on 8 cores under the 1 ms CFS tick, 500 ms."""
    from repro.core import Engine, ThreadSpec, run_forever
    from repro.core.clock import msec
    from repro.core.topology import smp
    from repro.sched import scheduler_factory

    engine = Engine(smp(8), scheduler_factory("cfs"), seed=1)
    for i in range(16):
        engine.spawn(ThreadSpec(f"s{i}",
                                lambda ctx: iter([run_forever()]),
                                app="app"))
    engine.run(until=msec(500))
    return engine


def _fig6_cell(sched: str):
    """The paper's pin/release load-balancing scenario, truncated."""
    from repro.core.clock import sec
    from repro.experiments.fig6_load_balancing import run_release

    engine, _, _ = run_release(sched, 32, seed=1, timeout_ns=sec(1))
    return engine


SCENARIOS = (
    ("tick_8x16", _tick_cell),
    ("fig6/cfs", lambda: _fig6_cell("cfs")),
    ("fig6/ule", lambda: _fig6_cell("ule")),
)


def main() -> int:
    from repro.tracing.digest import schedule_digest

    failures = []
    for name, build in SCENARIOS:
        t0 = time.perf_counter()
        engine = build()
        wall = time.perf_counter() - t0
        eps = engine.events_processed / wall if wall else 0.0
        print(f"  {name:<12} digest={schedule_digest(engine)} "
              f"{eps:>10,.0f} ev/s")
        floor = FLOORS[name]
        if eps < floor:
            failures.append(f"{name}: {eps:,.0f} ev/s below the "
                            f"{floor:,} floor")
    if failures:
        print("\nbench-smoke: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"bench-smoke: {len(SCENARIOS)} scenarios above their "
          f"per-profile floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
