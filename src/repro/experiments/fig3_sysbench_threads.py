"""Fig. 3 — cumulative runtime of sysbench's own threads under ULE
(single application, single core).

The claim (§5.2): sysbench's master forks 128 workers while itself
CPU-bound; workers inherit the master's interactivity at fork time, so
the ~80 forked early are interactive (they run, and their penalty
drops to 0) while the ~48 forked late are batch — and starve forever
while the interactive ones keep the core busy.  Counterintuitively
this *helps* throughput: the machine runs exactly as many threads as
it can, avoiding over-subscription.
"""

from __future__ import annotations

from ..core.clock import msec, sec
from ..core.metrics import TimeSeries
from ..tracing.export import ascii_chart
from ..tracing.samplers import PeriodicSampler
from ..workloads import SysbenchWorkload
from .base import ExperimentResult, make_engine
from .store import shared_run

CLAIM = ("~80 of 128 sysbench threads (the early-forked, interactive "
         "ones) run; the late-forked batch threads starve; throughput "
         "is higher than under CFS")

NTHREADS = 128
BUDGET = 10_000
TIMEOUT_NS = sec(60)


def run_single_app(sched: str, seed: int = 1):
    """Run the 128-thread sysbench alone on one core under ``sched``,
    sampling the paper's Fig. 3 curves (cumulative runtime of the
    master, the interactive workers, and the background workers)."""
    engine = make_engine(sched, ncpus=1, seed=seed)
    sysb = SysbenchWorkload(nthreads=NTHREADS,
                            transactions_per_thread=BUDGET // NTHREADS)
    sysb.launch(engine, at=0)

    def probe(eng):
        workers = sysb.workers
        if not workers:
            return
        half = len(workers) // 2
        early = workers[:half]
        late = workers[half:]
        eng.metrics.series("fig3.master").record(
            eng.now, sysb.master.total_runtime)
        eng.metrics.series("fig3.interactive").record(
            eng.now, sum(t.total_runtime for t in early) / len(early))
        eng.metrics.series("fig3.background").record(
            eng.now, sum(t.total_runtime for t in late) / len(late))

    PeriodicSampler(engine, msec(100), probe, "fig3-runtime")
    engine.run(until=TIMEOUT_NS, stop_when=lambda e: sysb.done(e),
               check_interval=64)
    return engine, sysb


def single_app_record(sched: str, seed: int = 1) -> dict:
    """:func:`run_single_app` under ``sched`` as plain JSON data: the
    worker counts, throughput, latency and Fig. 3 curves that Fig. 3
    and the sensitivity study render, and whether the run drew a
    random number.  Computed once per campaign (see
    :func:`~repro.experiments.store.shared_run`)."""
    def compute() -> dict:
        engine, sysb = run_single_app(sched, seed=seed)
        metrics = engine.metrics
        return {
            "workers": len(sysb.workers),
            "executed": sum(1 for w in sysb.workers
                            if w.total_runtime > 0),
            "starved": len(sysb.starved_workers(engine)),
            "tps": sysb.throughput(engine),
            "latency_ms": sysb.mean_latency_ns(engine) / 1e6,
            "drew": engine.random.drew(),
            "series": {name: metrics.series(f"fig3.{name}").as_data()
                       for name in ("interactive", "background")},
        }
    return shared_run({"run": "fig3_single_app", "sched": sched,
                       "seed": seed}, compute)


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Run this experiment and return its result (see module doc)."""
    result = ExperimentResult("fig3", CLAIM)
    records = {}
    for sched in ("ule", "cfs"):
        rec = records[sched] = single_app_record(sched, seed=seed)
        result.row(sched=sched, workers=rec["workers"],
                   executed=rec["executed"], starved=rec["starved"],
                   tps=round(rec["tps"], 1),
                   latency_ms=round(rec["latency_ms"], 2))
        result.data[f"{sched}_starved"] = rec["starved"]
        result.data[f"{sched}_tps"] = rec["tps"]
        result.data[f"{sched}_latency_ms"] = rec["latency_ms"]

    series = records["ule"]["series"]
    # classification detail for the text report
    ule_rows = result.rows[0]
    lines = [
        "Fig. 3 (ULE, 128-thread sysbench on one core):",
        f"  threads that executed:   {ule_rows['executed']}  "
        f"(paper: ~80 interactive)",
        f"  threads fully starved:   {ule_rows['starved']}  "
        f"(paper: ~48 batch)",
        f"  ULE throughput: {result.data['ule_tps']:.0f} tx/s, "
        f"latency {result.data['ule_latency_ms']:.1f} ms",
        f"  CFS throughput: {result.data['cfs_tps']:.0f} tx/s, "
        f"latency {result.data['cfs_latency_ms']:.1f} ms",
        "  (paper: ULE beats CFS here by avoiding over-subscription)",
    ]
    charts = [
        ascii_chart(TimeSeries.from_data("fig3.interactive",
                                         series["interactive"]),
                    title="Fig. 3 (ULE): mean cumulative runtime, "
                          "early-forked workers (ns)"),
        ascii_chart(TimeSeries.from_data("fig3.background",
                                         series["background"]),
                    title="Fig. 3 (ULE): mean cumulative runtime, "
                          "late-forked workers (ns) - flat = starved"),
    ]
    result.text = "\n".join(lines) + "\n\n" + "\n\n".join(charts)
    return result
