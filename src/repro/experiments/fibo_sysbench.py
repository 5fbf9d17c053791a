"""The shared §5.1 scenario: fibo (CPU hog) + sysbench (80 mostly-
sleeping threads) on a single core.

Drives Table 2, Fig. 1 (cumulative runtimes), Fig. 2 (interactivity
penalties) and the seed-sensitivity study.  Table 2, Fig. 1 and the
sensitivity study read the same run, as its :func:`scenario_record`,
so a campaign computes it once per scheduler and seed.  Time is
scaled 1/10 from the paper: fibo carries 16 s of work (paper:
~160 s), runs alone for 0.7 s (paper: 7 s), then sysbench starts with
a fixed global transaction budget.

Expected shape (paper):

* CFS shares the core ~50/50 between the two *applications* (cgroup
  fairness), so sysbench finishes in about twice the time it needs
  alone and fibo keeps progressing (Fig. 1a);
* ULE classifies fibo batch (penalty -> 100) and the sysbench workers
  interactive (penalty -> 0), so fibo starves until sysbench finishes
  and sysbench runs at full speed: ~1.8x the CFS throughput and much
  lower latency (Fig. 1b, Fig. 2, Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.clock import msec, sec, to_msec, to_sec
from ..tracing.samplers import (sample_cumulative_runtime,
                                sample_ule_penalty)
from ..workloads import FiboWorkload, SysbenchWorkload
from .base import make_engine
from .store import shared_run

#: scale w.r.t. the paper (all durations divided by this)
TIME_SCALE = 10

FIBO_WORK_NS = sec(16)
SYSBENCH_START_NS = msec(700)
SYSBENCH_THREADS = 80
SYSBENCH_BUDGET = 8_000
TIMEOUT_NS = sec(120)
SAMPLE_PERIOD_NS = msec(100)


@dataclass
class ScenarioOutcome:
    sched: str
    engine: object
    fibo: FiboWorkload
    sysbench: SysbenchWorkload

    @property
    def digest(self) -> str:
        """Canonical schedule digest (golden-trace regression hook)."""
        from ..tracing.digest import schedule_digest
        return schedule_digest(self.engine)

    @property
    def fibo_runtime_s(self) -> float:
        return to_sec(self.fibo.thread.total_runtime)

    @property
    def fibo_completion_s(self) -> float:
        return to_sec(self.fibo.thread.exited_at)

    @property
    def sysbench_tps(self) -> float:
        return self.sysbench.throughput(self.engine)

    @property
    def sysbench_latency_ms(self) -> float:
        return to_msec(self.sysbench.mean_latency_ns(self.engine))

    @property
    def sysbench_completion_s(self) -> Optional[float]:
        if self.sysbench.finished_at is None:
            return None
        return to_sec(self.sysbench.finished_at)


def run_scenario(sched: str, seed: int = 1,
                 sample_penalty: bool = False) -> ScenarioOutcome:
    """Run the fibo+sysbench scenario under ``sched`` and return the
    outcome with recorded series in ``engine.metrics``."""
    engine = make_engine(sched, ncpus=1, seed=seed, corun_slowdown=1.03)
    fibo = FiboWorkload(work_ns=FIBO_WORK_NS)
    sysb = SysbenchWorkload(nthreads=SYSBENCH_THREADS,
                            transactions_per_thread=(
                                SYSBENCH_BUDGET // SYSBENCH_THREADS))
    fibo.launch(engine, at=0)
    sysb.launch(engine, at=SYSBENCH_START_NS)
    sample_cumulative_runtime(engine, SAMPLE_PERIOD_NS,
                              apps=["fibo", "sysbench"])
    if sample_penalty and sched == "ule":
        sample_ule_penalty(engine, SAMPLE_PERIOD_NS, {
            "fibo": lambda: [t for t in fibo.threads(engine)],
            "sysbench": lambda: [t for t in sysb.workers],
        })
    engine.run(until=TIMEOUT_NS,
               stop_when=lambda e: fibo.done(e) and sysb.done(e),
               check_interval=64)
    return ScenarioOutcome(sched, engine, fibo, sysb)


def scenario_record(sched: str, seed: int = 1) -> dict:
    """The fibo+sysbench run under ``sched`` as plain JSON data: the
    numbers and cumulative-runtime series that Table 2, Fig. 1 and the
    sensitivity study render, and whether the run drew a random
    number.  Computed once per campaign (see
    :func:`~repro.experiments.store.shared_run`)."""
    def compute() -> dict:
        out = run_scenario(sched, seed=seed)
        metrics = out.engine.metrics
        return {
            "fibo_runtime_s": out.fibo_runtime_s,
            "fibo_completion_s": out.fibo_completion_s,
            "sysbench_tps": out.sysbench_tps,
            "sysbench_latency_ms": out.sysbench_latency_ms,
            "drew": out.engine.random.drew(),
            "series": {app: metrics.series(f"runtime.{app}").as_data()
                       for app in ("fibo", "sysbench")},
        }
    return shared_run({"run": "fibo_sysbench", "sched": sched,
                       "seed": seed}, compute)
