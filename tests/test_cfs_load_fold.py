"""The CFS balancer's PELT fold (``CfsScheduler.loads_for``).

The load-bearing property is **bit-identity**: each cpu's entry must
equal, bit for bit (``==``, not approximately), the left-to-right sum
of ``LoadAvg.peek(now, True)`` over the cpu's runnable tasks in
``runnable_threads`` order — the per-average reference whose
arithmetic ``loads_for`` inlines.  The engine is a live ``smp(4)``
CFS run; each case rewrites the runnable tasks' averages into assorted
PELT regimes, so every branch of the fold is taken.  With no tasks
(``n == 0``) every cpu must fold to exactly ``0.0``.
"""

import random

import pytest

from repro.cfs.pelt import HALF_LIFE_NS
from repro.core import Engine, Run, ThreadSpec
from repro.core.clock import msec, sec
from repro.core.topology import smp
from repro.sched import scheduler_factory

#: nice levels with weights 1024, 335, 3121 and 88761
NICES = (0, 5, -5, -20)


def _spinner(ctx):
    yield Run(sec(10))


def _cfs_engine(n):
    """A CFS engine on ``smp(4)`` with ``n`` spinners of assorted
    nice levels, run until every spinner is runnable."""
    rng = random.Random(f"load-fold:{n}")
    engine = Engine(smp(4), scheduler_factory("cfs"))
    for i in range(n):
        engine.spawn(ThreadSpec(f"spin{i}", _spinner,
                                nice=rng.choice(NICES)))
    engine.run(until=msec(20))
    return engine


def _set_regimes(avgs, seed, now):
    """Rewrite ``avgs`` in place into assorted regimes: fresh,
    deep decay, saturated inside the window, saturated but stale,
    zero-delta.  Weights are left alone (the banks cache them)."""
    rng = random.Random(f"load-fold:{seed}")
    for avg in avgs:
        regime = rng.randrange(5)
        if regime == 0:       # fresh, partially ramped
            avg.util_avg = rng.random()
            avg.last_update = now - rng.randrange(1, HALF_LIFE_NS // 4)
        elif regime == 1:     # deep decay, past several half-lives
            avg.util_avg = rng.random()
            avg.last_update = now - rng.randrange(
                HALF_LIFE_NS, 8 * HALF_LIFE_NS)
        elif regime == 2:     # saturated inside the shortcut window
            avg.util_avg = 1.0
            avg.last_update = now - rng.randrange(1, HALF_LIFE_NS)
        elif regime == 3:     # saturated but stale beyond the window
            avg.util_avg = 1.0
            avg.last_update = now - rng.randrange(
                HALF_LIFE_NS, 3 * HALF_LIFE_NS)
        else:                 # updated at this very instant
            avg.util_avg = rng.random()
            avg.last_update = now


def _peek_sum(fair, core, now):
    load = 0.0
    for t in fair.runnable_threads(core):
        load += t.policy.se.avg.peek(now, True)  # peek is u * weight
    return load


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", (0, 1, 2, 7, 40))
def test_loads_for_matches_sequential_peek(seed, n):
    engine = _cfs_engine(n)
    fair = engine.scheduler
    cores = engine.machine.cores
    now = engine.now
    _set_regimes([t.policy.se.avg for core in cores
                  for t in fair.runnable_threads(core)], seed, now)
    fair._load_cache_time = -1  # drop the per-instant memo
    loads = fair.loads_for(range(len(cores)))
    assert loads == [_peek_sum(fair, core, now) for core in cores]



def test_empty_cpus_fold_to_zero():
    engine = _cfs_engine(0)
    fair = engine.scheduler
    fair._load_cache_time = -1
    assert fair.loads_for(range(4)) == [0.0] * 4
