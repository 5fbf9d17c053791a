"""Experiment framework: each paper table/figure has a driver module
exposing ``run(quick=...) -> ExperimentResult``.

Experiments run in *scaled* time — the paper's multi-minute benchmarks
are shrunk so the full suite executes in minutes of wall clock while
preserving every ratio the paper reports (which scheduler wins, by
what factor, where behaviour flips).  Each driver documents its scale
factor; EXPERIMENTS.md records paper-vs-measured numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.engine import Engine
from ..core.topology import opteron_6172, single_core
from ..sched import scheduler_factory


@dataclass
class ExperimentResult:
    """The outcome of one experiment driver."""

    #: experiment id, e.g. "table2" or "fig6"
    experiment: str
    #: one-line description (what the paper shows)
    claim: str
    #: structured results, one dict per row/series-point
    rows: list[dict] = field(default_factory=list)
    #: rendered human-readable report
    text: str = ""
    #: free-form extras (series, raw numbers) for tests and plotting
    data: dict[str, Any] = field(default_factory=dict)

    def row(self, **kwargs) -> dict:
        """Append a structured result row and return it."""
        entry = dict(kwargs)
        self.rows.append(entry)
        return entry

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text or repr(self)


#: warm engine pool: one reusable engine per construction signature,
#: recycled with :meth:`Engine.reset` between cells.  Only consulted
#: when ``REPRO_WARM_ENGINES`` is truthy — campaign worker processes
#: turn it on (they run many same-shaped cells back to back and
#: engine construction is a visible slice of small-cell runtime);
#: everything else defaults to fresh construction.
_WARM_POOL: dict = {}


def _warm_enabled() -> bool:
    return os.environ.get("REPRO_WARM_ENGINES", "") not in (
        "", "0", "false", "no")


def make_engine(sched: str, ncpus: int = 1, seed: int = 1,
                corun_slowdown: float = 1.0,
                ctx_switch_cost_ns: int = 0,
                tickless: Optional[bool] = None,
                sanitize: Optional[bool] = None,
                faults=None,
                **sched_options) -> Engine:
    """Engine factory used by all experiment drivers.

    ``ncpus=32`` builds the paper's Opteron topology (4 NUMA nodes of
    8 cores); ``ncpus=1`` the per-core-scheduling setup of §5.
    ``tickless`` overrides the engine-wide NO_HZ default (the
    determinism tests run both settings and compare); ``sanitize``
    overrides the ``REPRO_SANITIZE`` environment default; ``faults``
    injects a :class:`~repro.faults.plan.FaultPlan` (empty plans are
    digest-identical to no plan; see docs/fault-injection.md).

    With ``REPRO_WARM_ENGINES`` set (campaign workers export it), an
    engine with the same construction signature is reused via
    :meth:`Engine.reset` instead of rebuilt — digest-identical to a
    fresh engine (see ``tests/test_engine_reset.py``).  ``seed`` and
    ``faults`` are per-run reset arguments, not part of the
    signature.  Reuse assumes drivers run same-signature engines
    sequentially within a process, which is how every driver and the
    cell executors behave.
    """
    key = None
    if _warm_enabled():
        try:
            key = (sched, ncpus, corun_slowdown, ctx_switch_cost_ns,
                   tickless, sanitize,
                   tuple(sorted(sched_options.items())))
            engine = _WARM_POOL.get(key)
        except TypeError:
            key = None  # unhashable sched_option value: don't pool
            engine = None
        if engine is not None:
            engine.reset(seed=seed, faults=faults)
            return engine
    if ncpus == 1:
        topo = single_core()
    elif ncpus == 32:
        topo = opteron_6172()
    else:
        from ..core.topology import smp
        topo = smp(ncpus)
    engine = Engine(topo, scheduler_factory(sched, **sched_options),
                    seed=seed, corun_slowdown=corun_slowdown,
                    ctx_switch_cost_ns=ctx_switch_cost_ns,
                    tickless=tickless, sanitize=sanitize, faults=faults)
    if key is not None:
        _WARM_POOL[key] = engine
    return engine


def run_workload(engine: Engine, workload, timeout_ns: int,
                 at: int = 0) -> str:
    """Launch a workload and run until it finishes (or timeout)."""
    workload.launch(engine, at=at)
    return engine.run(until=timeout_ns,
                      stop_when=lambda e: workload.done(e),
                      check_interval=32)


SCHEDULERS = ("cfs", "ule")
