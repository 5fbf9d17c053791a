"""Registry of experiment drivers, one per paper table/figure."""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Optional

from ..core.errors import ExperimentError
from .base import ExperimentResult

#: experiment id -> (module, one-line description)
EXPERIMENTS = {
    "table1": ("table1_api",
               "Linux scheduler API vs FreeBSD equivalents"),
    "table2": ("table2_fibo_sysbench",
               "fibo + sysbench on one core: throughput & latency"),
    "fig1": ("fig1_cumulative_runtime",
             "cumulative runtime of fibo/sysbench (starvation)"),
    "fig2": ("fig2_penalty",
             "interactivity penalties of fibo and sysbench over time"),
    "fig3": ("fig3_sysbench_threads",
             "single-app starvation: 128-thread sysbench on ULE"),
    "fig4": ("fig4_penalty_single_app",
             "penalty bifurcation of the 128 sysbench threads"),
    "fig5": ("fig5_single_core_perf",
             "37-app performance comparison on one core"),
    "fig6": ("fig6_load_balancing",
             "512 pinned spinners released: balancing convergence"),
    "fig7": ("fig7_cray_placement",
             "c-ray thread placement and cascading wakeups"),
    "fig8": ("fig8_multicore_perf",
             "37-app performance comparison on 32 cores"),
    "fig9": ("fig9_multi_app",
             "multi-application pairs vs running alone"),
    "i7": ("desktop_i7",
           "cross-validation on the 8-CPU desktop machine (§4.1)"),
    "sensitivity": ("sensitivity",
                    "headline claims across random seeds (mean ± CI)"),
    "latency": ("latency_study",
                "wake-to-run latency distributions (extension)"),
    "predict": ("predict_fidelity",
                "table model next-pick fidelity vs CFS "
                "(schedules as data; docs/scheduler-zoo.md)"),
}

#: experiment id -> engine events its quick mode processes at seed 1,
#: summed over every ``Engine.run``.  Deterministic, so it ranks the
#: experiments by cost without timing them: a campaign pool submits
#: the costliest first.  ``tests/test_experiment_meta.py`` re-measures
#: them (slow tier).
QUICK_EVENTS = {
    "table1": 2,
    "table2": 71_755,
    "fig1": 71_755,
    "fig2": 20_083,
    "fig3": 59_520,
    "fig4": 21_888,
    "fig5": 438_377,
    "fig6": 588_795,
    "fig7": 182_353,
    "fig8": 2_267_456,
    "fig9": 3_084_693,
    "i7": 120_683,
    "sensitivity": 678_150,
    "latency": 56_379,
    "predict": 13_471,
}


def run_experiment(name: str, quick: bool = True, seed: int = 1,
                   jobs: Optional[int] = None) -> ExperimentResult:
    """Run one experiment by id ('table1' ... 'fig9').

    ``jobs`` fans the experiment's cells out to worker processes when
    its driver supports it (drivers whose ``run`` takes a ``jobs``
    parameter); other drivers silently run serially.  Rows never
    depend on ``jobs``.
    """
    try:
        module_name, _ = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {name!r} (known: {known})") from None
    module = importlib.import_module(
        f"repro.experiments.{module_name}")
    if jobs is not None and \
            "jobs" in inspect.signature(module.run).parameters:
        return module.run(quick=quick, seed=seed, jobs=jobs)
    return module.run(quick=quick, seed=seed)


def experiment_names() -> list[str]:
    """All experiment ids, in the paper's order."""
    return list(EXPERIMENTS)


def experiment_claim(name: str) -> str:
    """The one-line claim an experiment reproduces."""
    module_name, _ = EXPERIMENTS[name]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    return module.CLAIM
