"""Fig. 1 — cumulative runtime of fibo and sysbench on (a) CFS and
(b) ULE.

The claim: on CFS fibo keeps accumulating runtime (more slowly) while
sysbench runs — no starvation; on ULE fibo's curve goes flat the
moment sysbench is up (unbounded starvation) and resumes when
sysbench finishes.
"""

from __future__ import annotations

from ..core.clock import to_sec
from ..core.metrics import TimeSeries
from ..tracing.export import ascii_chart
from .base import ExperimentResult
from .fibo_sysbench import scenario_record

CLAIM = ("fibo shares the core under CFS but is fully starved under "
         "ULE while sysbench runs")


def _flat_interval(series) -> float:
    """Longest time (s) the cumulative-runtime curve stayed flat."""
    longest = 0.0
    flat_start = None
    prev_v = None
    for t, v in series:
        if prev_v is not None and v == prev_v:
            if flat_start is None:
                flat_start = prev_t
            longest = max(longest, to_sec(t - flat_start))
        else:
            flat_start = None
        prev_t, prev_v = t, v
    return longest


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Run this experiment and return its result (see module doc)."""
    result = ExperimentResult("fig1", CLAIM)
    charts = []
    for sched in ("cfs", "ule"):
        series = scenario_record(sched, seed=seed)["series"]
        fibo_series = TimeSeries.from_data("runtime.fibo", series["fibo"])
        sysb_series = TimeSeries.from_data("runtime.sysbench",
                                           series["sysbench"])
        stall = _flat_interval(fibo_series)
        result.row(sched=sched,
                   fibo_final_s=round(to_sec(fibo_series.values[-1]), 2),
                   sysbench_final_s=round(
                       to_sec(sysb_series.values[-1]), 2),
                   fibo_longest_stall_s=round(stall, 2))
        result.data[f"{sched}_fibo_series"] = fibo_series
        result.data[f"{sched}_sysbench_series"] = sysb_series
        label = "(a) CFS" if sched == "cfs" else "(b) ULE"
        charts.append(ascii_chart(
            fibo_series, title=f"Fig. 1{label}: fibo cumulative "
            f"runtime (ns) over time"))
        charts.append(ascii_chart(
            sysb_series, title=f"Fig. 1{label}: sysbench cumulative "
            f"runtime (ns) over time"))

    cfs_stall = result.rows[0]["fibo_longest_stall_s"]
    ule_stall = result.rows[1]["fibo_longest_stall_s"]
    summary = (f"fibo's longest progress stall: CFS {cfs_stall:.2f}s vs "
               f"ULE {ule_stall:.2f}s (paper: CFS never stalls; ULE "
               f"stalls for sysbench's entire execution)")
    result.data["cfs_stall_s"] = cfs_stall
    result.data["ule_stall_s"] = ule_stall
    result.text = "\n\n".join(charts) + "\n\n" + summary
    return result
