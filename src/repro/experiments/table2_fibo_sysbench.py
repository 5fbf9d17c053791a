"""Table 2 — fibo and sysbench on one core, CFS vs ULE.

Paper numbers (unscaled)::

                              CFS      ULE
    Fibo - Runtime            160 s    158 s
    Sysbench - Transactions/s 290      532
    Sysbench - Avg. latency   441 ms   125 ms

The reproduction is scaled 1/10 in time; the claims that must hold are
the *ratios*: sysbench throughput ~1.8x higher on ULE, sysbench
latency several times lower on ULE, fibo's total runtime roughly equal
(slightly lower on ULE thanks to running alone, cache-cleanly, after
sysbench finishes).
"""

from __future__ import annotations

from ..analysis.report import render_table
from .base import ExperimentResult
from .fibo_sysbench import TIME_SCALE, scenario_record

CLAIM = ("ULE starves fibo while sysbench runs, which doubles sysbench "
         "throughput and cuts its latency versus CFS's fair sharing")


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Run this experiment and return its result (see module doc)."""
    result = ExperimentResult("table2", CLAIM)
    cfs, ule = (scenario_record(sched, seed=seed)
                for sched in ("cfs", "ule"))

    rows = [
        [label, round(cfs[key], ndigits), round(ule[key], ndigits)]
        for label, key, ndigits in (
            ("Fibo - Runtime (s)", "fibo_runtime_s", 2),
            ("Fibo - Completion (s)", "fibo_completion_s", 2),
            ("Sysbench - Transactions/s", "sysbench_tps", 1),
            ("Sysbench - Avg. latency (ms)", "sysbench_latency_ms", 2))]
    for label, c, u in rows:
        result.row(metric=label, cfs=c, ule=u)

    result.data["tps_ratio"] = ule["sysbench_tps"] / cfs["sysbench_tps"]
    result.data["latency_ratio"] = (cfs["sysbench_latency_ms"]
                                    / ule["sysbench_latency_ms"])

    table = render_table(
        ["Metric", "CFS", "ULE"], rows,
        title=f"Table 2 (time scaled 1/{TIME_SCALE}) - fibo + sysbench "
              f"on one core")
    paper = ("Paper (unscaled): fibo 160/158 s; sysbench 290/532 tx/s "
             "(ULE 1.83x); latency 441/125 ms (CFS 3.5x higher)")
    measured = (f"Measured ratios: ULE tx/s {result.data['tps_ratio']:.2f}x "
                f"CFS; CFS latency "
                f"{result.data['latency_ratio']:.2f}x ULE")
    result.text = f"{table}\n\n{paper}\n{measured}"
    return result
