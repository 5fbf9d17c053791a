"""Fig. 9 — multi-application workloads on 32 cores (§6.4).

Four pairs, each run alone and co-scheduled, under both schedulers;
bars are the performance relative to running alone on CFS:

* **c-ray + EP** (batch + batch): both schedulers treat two batch
  applications alike; EP's small ULE edge survives co-scheduling.
* **fibo + sysbench** (batch + interactive): sysbench is correctly
  prioritized by ULE, yet performs *worse* than on CFS — MySQL's lock
  convoys meet ULE's lack of preemption: when a lock is released, the
  woken MySQL thread does not preempt the running fibo thread, adding
  up to a timeslice of delay per handoff.
* **blackscholes + ferret** (batch + interactive): ULE gives ferret
  absolute priority (it is barely affected), while blackscholes loses
  >80 %; CFS shares fairly and both suffer moderately.
* **apache + sysbench** (interactive + interactive): both schedulers
  perform similarly.

The figure has no quick mode: quick and full runs are the same.
"""

from __future__ import annotations

from ..analysis.report import render_bar_chart, render_table
from ..analysis.stats import percent_diff
from ..core.clock import msec, sec, usec
from ..workloads import (ApacheWorkload, CrayWorkload, FiboWorkload,
                         SysbenchWorkload)
from ..workloads.nas import ep
from ..workloads.parsec import PipelineWorkload, blackscholes
from .base import ExperimentResult, make_engine

CLAIM = ("co-scheduling: batch+batch and interactive+interactive pairs "
         "behave alike on both schedulers; ULE shields the interactive "
         "app of a mixed pair (starving the batch one), except that "
         "missing preemption hurts sysbench's lock handoffs")

CTX_SWITCH_COST_NS = usec(15)
TIMEOUT_NS = sec(120)
NCPUS = 32


def _fibo32():
    return FiboWorkload(work_ns=sec(40))


def _sysbench32():
    # MySQL at 32-core scale: enough threads to saturate the machine
    # and heavy internal lock contention (the paper: "lock contention
    # forces the threads to sleep while waiting for the locks")
    return SysbenchWorkload(nthreads=160, wait_ns=msec(4),
                            transactions_per_thread=150,
                            init_per_thread_ns=msec(2),
                            lock_fraction=0.4)


def _apache32():
    return ApacheWorkload(nworkers=100, outstanding=100,
                          total_requests=60_000)


def _ferret32():
    # ferret at 32-core scale: an unpaced throughput pipeline (the
    # PARSEC configuration processes a fixed dataset flat out) with
    # 128 stage threads -- it swamps blackscholes' 16 threads on both
    # schedulers, but keeps most of the machine for itself under ULE
    return PipelineWorkload(app="ferret", nstages=4, stage_threads=32,
                            items=12000, stage_work_ns=msec(2))


def _cray32():
    # a thread-per-core render (c-ray -t 32), compute-dominated, so
    # the two batch applications have comparable thread counts
    return CrayWorkload(nthreads=64, compute_ns=msec(750),
                        fork_spacing_ns=msec(3))


PAIRS = [
    ("c-ray", _cray32, "EP", ep, "batch + batch"),
    ("fibo", _fibo32, "sysbench", _sysbench32, "batch + interactive"),
    ("blackscholes", blackscholes, "ferret", _ferret32,
     "batch + interactive"),
    ("apache", _apache32, "sysbench", _sysbench32,
     "interactive + interactive"),
]


def _run_pair(sched: str, factories, seed: int = 1) -> list[float]:
    engine = make_engine(sched, ncpus=NCPUS, seed=seed,
                         ctx_switch_cost_ns=CTX_SWITCH_COST_NS)
    workloads = [factory() for factory in factories]
    for wl in workloads:
        wl.launch(engine, at=0)
    engine.run(until=TIMEOUT_NS,
               stop_when=lambda e: all(w.done(e) for w in workloads),
               check_interval=64)
    return [wl.performance(engine) for wl in workloads]


def _run_alone(sched: str, factory, seed: int = 1) -> float:
    return _run_pair(sched, [factory], seed=seed)[0]


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Run this experiment and return its result (see module doc)."""
    result = ExperimentResult("fig9", CLAIM)
    labels = []
    series = {"cfs_multi": [], "ule_single": [], "ule_multi": []}
    # (scheduler, app factory) -> its performance alone; a run is
    # deterministic per seed, and sysbench is alone in two pairs
    alone: dict = {}

    def run_alone(sched, factory):
        key = (sched, factory)
        if key not in alone:
            alone[key] = _run_alone(sched, factory, seed=seed)
        return alone[key]

    for name_a, fa, name_b, fb, kind in PAIRS:
        # baselines: each app alone on CFS (the figure's reference)
        base_a = run_alone("cfs", fa)
        base_b = run_alone("cfs", fb)
        ule_alone_a = run_alone("ule", fa)
        ule_alone_b = run_alone("ule", fb)
        cfs_a, cfs_b = _run_pair("cfs", [fa, fb], seed=seed)
        ule_a, ule_b = _run_pair("ule", [fa, fb], seed=seed)
        for label, base, ule_single, cfs_m, ule_m in (
                (name_a, base_a, ule_alone_a, cfs_a, ule_a),
                (name_b, base_b, ule_alone_b, cfs_b, ule_b)):
            row = dict(pair=f"{name_a}+{name_b}", app=label, kind=kind,
                       cfs_multi_pct=round(percent_diff(cfs_m, base), 1),
                       ule_single_pct=round(
                           percent_diff(ule_single, base), 1),
                       ule_multi_pct=round(percent_diff(ule_m, base), 1))
            result.rows.append(row)
            labels.append(f"{label} ({name_a}+{name_b})")
            series["cfs_multi"].append(row["cfs_multi_pct"])
            series["ule_single"].append(row["ule_single_pct"])
            series["ule_multi"].append(row["ule_multi_pct"])
    result.data["series"] = series

    table = render_table(
        ["pair", "app", "CFS multi %", "ULE single %", "ULE multi %"],
        [[r["pair"], r["app"], r["cfs_multi_pct"], r["ule_single_pct"],
          r["ule_multi_pct"]] for r in result.rows],
        title="Fig. 9: perf improvement relative to running alone on "
              "CFS (%)")
    chart = render_bar_chart(
        labels, series["ule_multi"],
        title="ULE multi-app perf vs alone-on-CFS")
    paper = ("Paper: c-ray+EP similar on both; ferret unaffected under "
             "ULE while blackscholes loses >80%; sysbench under ULE "
             "hurt by missing preemption on MySQL lock handoffs; "
             "apache+sysbench similar on both")
    result.text = "\n\n".join([table, chart, paper])
    return result
