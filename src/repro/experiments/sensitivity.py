"""Seed-sensitivity study: are the headline claims robust?

Each key ratio is re-measured across three consecutive seeds starting
at ``seed`` (seven in full mode) and reported as mean with a 95 %
confidence interval.  The paper's claims should hold for *every*
seed, not just a lucky one:

* Table 2: ULE/CFS sysbench throughput ratio stays well above 1;
* Fig. 3: ULE starves a large fraction of the 128 sysbench threads
  while CFS starves none;
* Fig. 6: ULE's balancer converges in tens of seconds, CFS in under a
  second (rough balance).

A row whose runs draw no random number is the same for every seed, so
it runs once (:func:`per_seed`); today that holds for every row but
ULE's time-to-balance.
"""

from __future__ import annotations

from ..analysis.report import render_table
from ..analysis.stats import confidence_interval95, mean, stdev
from ..core.clock import to_sec
from .base import ExperimentResult

CLAIM = ("the headline ratios hold across random seeds: ULE's sysbench "
         "boost, the fig3 starvation split, and the two balancing "
         "convergence regimes")


def per_seed(measure, seeds) -> list:
    """The values of ``measure`` over ``seeds``; ``measure(seed)``
    returns ``(value, drew)``, ``drew`` telling whether its runs drew
    any random number.

    All of a run's seed dependence flows through its engine's
    :class:`~repro.core.rng.RandomSource`, so a seed whose runs drew no
    random number gave the value every later seed would give too: it
    is reused for the remaining seeds instead of being run again.
    """
    values = []
    for s in seeds:
        value, drew = measure(s)
        values.append(value)
        if not drew:
            values += [value] * (len(seeds) - len(values))
            break
    return values


def _tps_ratio(seed: int):
    from .fibo_sysbench import run_scenario
    cfs = run_scenario("cfs", seed=seed)
    ule = run_scenario("ule", seed=seed)
    return (ule.sysbench_tps / cfs.sysbench_tps,
            cfs.engine.random.drew() or ule.engine.random.drew())


def _starved(seed: int):
    from . import fig3_sysbench_threads
    engine, sysb = fig3_sysbench_threads.run_single_app("ule", seed=seed)
    return len(sysb.starved_workers(engine)), engine.random.drew()


def _ule_converge(seed: int):
    from . import fig6_load_balancing
    engine, _, _ = fig6_load_balancing.run_release(
        "ule", nthreads=64, seed=seed)
    return to_sec(engine.now), engine.random.drew()


def _cfs_rough(seed: int):
    from ..analysis.convergence import time_to_balance
    from . import fig6_load_balancing
    engine, _, _ = fig6_load_balancing.run_release(
        "cfs", nthreads=64, seed=seed, timeout_ns=6 * 10**9)
    ttb = time_to_balance(engine.metrics, 32, start_ns=2 * 10**9,
                          tolerance=4)
    return (to_sec(ttb) if ttb is not None else 6.0,
            engine.random.drew())


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Run this experiment and return its result (see module doc)."""
    seeds = tuple(range(seed, seed + (3 if quick else 7)))
    result = ExperimentResult("sensitivity", CLAIM)

    tps_ratios = per_seed(_tps_ratio, seeds)
    starved = per_seed(_starved, seeds)
    ule_converge = per_seed(_ule_converge, seeds)
    cfs_rough = per_seed(_cfs_rough, seeds)

    rows = []
    for label, values, expect in (
            ("table2 ULE/CFS tx-rate ratio", tps_ratios, "> 1.3"),
            ("fig3 starved threads (of 128)", starved, "> 30"),
            ("fig6 ULE time-to-balance (s)", ule_converge, "10..600"),
            ("fig6 CFS rough balance (s)", cfs_rough, "< 1.5")):
        lo, hi = confidence_interval95([float(v) for v in values])
        rows.append([label, round(mean([float(v) for v in values]), 2),
                     round(stdev([float(v) for v in values]), 2),
                     f"[{lo:.2f}, {hi:.2f}]", expect])
        result.row(metric=label,
                   values=[round(float(v), 2) for v in values])
    result.data["tps_ratios"] = tps_ratios
    result.data["starved"] = starved
    result.data["ule_converge_s"] = ule_converge
    result.data["cfs_rough_s"] = cfs_rough

    table = render_table(
        ["metric", "mean", "stdev", "95% CI", "expected"], rows,
        title=f"Seed sensitivity over seeds {list(seeds)}")
    result.text = table
    return result
