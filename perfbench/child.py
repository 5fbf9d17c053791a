"""The measured process: runs one workload pass and writes what it saw
as JSON.  Started by ``run.py`` with ``src/`` on ``PYTHONPATH`` and
every ``REPRO_*`` variable removed; not meant to be run by hand.

    child.py WORKLOAD --seed N --out FILE --phase full|cold|setup

Sim workloads: ``full`` runs the workload cold, then repeats it in the
same (now warm) process with every ``Engine.run`` skipped, timing what
a warm rerun redoes besides simulating (engine builds, thread spawns,
digests); ``cold`` runs it once; ``setup`` stops at the first
``Engine.run``.  ``campaign`` runs the campaign CLI once
(``setup`` runs a one-cell campaign); cold or warm is decided by
whether its ``--workdir`` already holds a cache.  Its pool workers
append one line per executed cell to ``--sink``.

Every phase runs under a :class:`hostspeed.Sampler` started first
thing; its samples go to the output with the timestamps ``run.py``
scales each interval by.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed
import workloads

#: tells a re-imported copy of this script in a spawned pool worker
#: where the cell lines go
SINK_ENV = "PERFBENCH_SINK"


def _install_campaign_probe(sink: str, sampler) -> None:
    probe = workloads.EngineProbe().install()
    workloads.stamp_campaign_cells(probe, sink, sampler)


if __name__ != "__main__" and os.environ.get(SINK_ENV):
    # a spawn/forkserver pool worker imports this script as __mp_main__
    _install_campaign_probe(os.environ[SINK_ENV], hostspeed.Sampler())


def _repeat(fn, least: int = 3, most: int = 100,
            seconds: float = 3.0) -> list[float]:
    """Wall times of ``fn()``: at least ``least`` calls, then more
    until ``seconds`` have passed or ``most`` calls were made."""
    times: list[float] = []
    start = time.monotonic()
    while len(times) < least or (len(times) < most and
                                 time.monotonic() - start < seconds):
        t0 = time.monotonic()
        fn()
        times.append(time.monotonic() - t0)
    return times


def _sim(args) -> dict:
    out: dict = {"t_main": time.monotonic()}
    probe = workloads.EngineProbe(setup_only=args.phase == "setup")
    probe.install()
    run = workloads.SIM_FUNCTIONS[args.workload]
    try:
        out["cold"] = run(args.seed)
        out["t_cold_done"] = time.monotonic()
        # the high-water mark so far: the cold pass's peak, before the
        # warm rebuilds leave garbage for the collector
        out["cold_maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        if args.phase == "full":
            probe.skip_runs = True
            out["warm_s"] = _repeat(lambda: run(args.seed))
            out["t_warm_done"] = time.monotonic()
    except workloads.SetupDone:
        pass
    out["t_first_run"] = probe.first_run_at
    out.update(probe.summary())
    return out


def _campaign(args, sampler) -> dict:
    from repro.experiments.__main__ import main
    os.environ[SINK_ENV] = args.sink
    _install_campaign_probe(args.sink, sampler)
    experiments = (workloads.SETUP_EXPERIMENTS if args.phase == "setup"
                   else workloads.CAMPAIGN_EXPERIMENTS)
    out: dict = {"t_main": time.monotonic()}
    out["rc"] = main(workloads.campaign_argv(
        experiments, args.seed, args.workdir, workloads.CAMPAIGN_JOBS))
    out["t_done"] = time.monotonic()
    return out


def main() -> int:
    sampler = hostspeed.Sampler().start()
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--phase", choices=("full", "cold", "setup"),
                        default="full")
    parser.add_argument("--workdir")
    parser.add_argument("--sink")
    args = parser.parse_args()
    try:
        if args.workload == "campaign":
            out = _campaign(args, sampler)
        else:
            out = _sim(args)
    finally:
        sampler.stop()
    out["samples"] = sampler.samples
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
