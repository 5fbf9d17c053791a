"""Schedules that run at the co-run speed are pinned.

With ``corun_slowdown > 1`` a thread runs slower while a thread of
another app shares its runqueue.  The engine reads that from per-core
app counts (``Core.apps``), kept wherever it sets or clears a thread's
``rq_cpu``; these digests were recorded when it still walked the
runqueue on every switch, so the counts must give the same answer at
every switch.
"""

import pytest

from repro.experiments.fibo_sysbench import run_scenario
from repro.tracing.digest import schedule_digest
from tests.conftest import corun_engine

#: the §5.1 fibo + sysbench scenario (one core, 81 threads, two apps)
FIBO_SYSBENCH = {"cfs": "b7ad45cde3911787", "ule": "08fd36f649d02738"}

#: ``corun_engine``: two apps over 8 cpus, with wakeup placement,
#: balancer migrations and one forced affinity move
CORUN_I7 = {"cfs": "77026d8ce03fe718", "ule": "e47af4a40e410df1"}


@pytest.mark.parametrize("sched", sorted(FIBO_SYSBENCH))
def test_fibo_sysbench_schedule_is_pinned(sched):
    outcome = run_scenario(sched, seed=1)
    assert outcome.digest == FIBO_SYSBENCH[sched]


@pytest.mark.parametrize("sched", sorted(CORUN_I7))
def test_multicore_corun_schedule_is_pinned(sched):
    engine = corun_engine(sched)
    assert engine.metrics.counter("engine.migrations") > 0
    assert schedule_digest(engine) == CORUN_I7[sched]


@pytest.mark.parametrize("sched", sorted(CORUN_I7))
def test_corun_slowdown_shapes_the_schedule(sched):
    """The pinned run really exercises the slowdown: without it the
    schedule differs."""
    assert schedule_digest(corun_engine(sched, corun_slowdown=1.0)) \
        != CORUN_I7[sched]


def test_core_app_counts_drain_to_empty():
    engine = corun_engine("cfs")
    assert all(core.apps == {} for core in engine.machine.cores)
