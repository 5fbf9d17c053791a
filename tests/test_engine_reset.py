"""``Engine.reset()`` warm-reuse contract: digest-identical to fresh.

Campaign workers recycle one engine per (topology, scheduler)
signature across cells (:func:`repro.experiments.base.make_engine`
under ``REPRO_WARM_ENGINES``), so ``reset()`` must restore *every*
piece of run state a cell can dirty — clock, queues and their
sequence counters, RNG, metrics, tracer, cores, threads, scheduler
runqueues, fault injector.  The oracle is the schedule digest: a
reset engine re-running any cell must produce the byte-identical
digest a freshly constructed engine produces.

Covered here:

* randomized cell sequences (spinner / channel / sleeper mixes over
  both stock schedulers and varying seeds) run fresh-per-cell vs one
  engine reset between cells;
* reset after a *faulted* cell (hotplug offline/online, thread
  stall): the next clean cell must not see leftover offline cores or
  injector state;
* the warm pool itself: ``make_engine`` reuses one object per
  signature when enabled, never reuses across signatures, and stays
  off by default.
"""

import random

import pytest

from repro.core import Engine, Run, Sleep, ThreadSpec, run_forever
from repro.core.clock import msec
from repro.core.topology import smp
from repro.faults.plan import CoreOffline, CoreOnline, FaultPlan, \
    ThreadStall
from repro.sched import scheduler_factory
from repro.sync import Channel
from repro.tracing.digest import schedule_digest

NCPUS = 2
UNTIL = msec(30)


def _spinner_cell(engine, rng):
    def spin(ctx):
        yield run_forever()
    for i in range(rng.randint(1, 4)):
        engine.spawn(ThreadSpec(f"spin{i}", spin,
                                nice=rng.choice((-5, 0, 0, 5))))


def _channel_cell(engine, rng):
    chan = Channel(engine)

    def producer(ctx):
        for i in range(20):
            yield Run(msec(1))
            yield chan.put(i)

    def consumer(ctx):
        while True:
            yield chan.get()
            yield Run(msec(1))

    engine.spawn(ThreadSpec("prod", producer))
    for i in range(rng.randint(1, 3)):
        engine.spawn(ThreadSpec(f"cons{i}", consumer))


def _sleeper_cell(engine, rng):
    def sleeper(ctx):
        for _ in range(10):
            yield Run(msec(rng.randint(1, 3)))
            yield Sleep(msec(rng.randint(1, 3)))
    for i in range(rng.randint(1, 3)):
        engine.spawn(ThreadSpec(f"slp{i}", sleeper))


CELL_KINDS = (_spinner_cell, _channel_cell, _sleeper_cell)


def _cell_sequence(seq_seed: int, n: int = 6):
    """A deterministic mixed sequence of (sched, kind, seed) cells."""
    rng = random.Random(f"engine-reset:{seq_seed}")
    return [(rng.choice(("cfs", "ule")), rng.randrange(len(CELL_KINDS)),
             rng.randint(0, 999)) for _ in range(n)]


def _run_cell(engine, kind_index: int, cell_seed: int) -> str:
    # the populate rng is separate from the engine's RandomSource and
    # deterministic per cell, so both legs build identical workloads
    CELL_KINDS[kind_index](engine, random.Random(cell_seed))
    engine.run(until=UNTIL)
    return schedule_digest(engine)


@pytest.mark.parametrize("seq_seed", (0, 1, 2))
def test_reset_reuse_matches_fresh_over_random_cells(seq_seed):
    cells = _cell_sequence(seq_seed)
    fresh = [
        _run_cell(Engine(smp(NCPUS), scheduler_factory(sched),
                         seed=cell_seed), kind, cell_seed)
        for sched, kind, cell_seed in cells]
    warm_engines = {}
    warm = []
    for sched, kind, cell_seed in cells:
        engine = warm_engines.get(sched)
        if engine is None:
            engine = Engine(smp(NCPUS), scheduler_factory(sched),
                            seed=cell_seed)
            warm_engines[sched] = engine
        else:
            engine.reset(seed=cell_seed)
        warm.append(_run_cell(engine, kind, cell_seed))
    assert warm == fresh


@pytest.mark.parametrize("sched", ("cfs", "ule"))
def test_reset_after_hotplug_and_stall_cell(sched):
    """A clean cell after a faulted one must match a fresh engine —
    leftover offline cores or injector state would skew placement."""
    plan = FaultPlan(faults=(
        CoreOffline(at_ns=msec(5), cpu=1),
        CoreOnline(at_ns=msec(15), cpu=1),
        ThreadStall(at_ns=msec(8), thread="spin0",
                    duration_ns=msec(4)),
    ))
    engine = Engine(smp(NCPUS), scheduler_factory(sched), seed=3,
                    faults=plan)
    faulted = _run_cell(engine, 0, 3)
    # same faulted cell, fresh engine: reset(faults=...) rebuilds the
    # injector exactly
    engine.reset(seed=3, faults=plan)
    assert _run_cell(engine, 0, 3) == faulted
    # clean cell after the faulted one vs a fresh engine
    engine.reset(seed=4)
    warm = _run_cell(engine, 1, 4)
    fresh = _run_cell(Engine(smp(NCPUS), scheduler_factory(sched),
                             seed=4), 1, 4)
    assert warm == fresh
    # and the machine really is whole again
    assert engine.machine.nr_offline == 0
    assert all(core.online for core in engine.machine.cores)


def test_reset_engine_has_drawn_nothing():
    """A recycled engine's random source starts over: a run that
    draws nothing is seed-free (``RandomSource.drew``), whatever the
    engine's previous run drew."""
    engine = Engine(smp(NCPUS), scheduler_factory("ule"), seed=1)
    engine.random.stream("x").randint(0, 9)
    assert engine.random.drew()
    engine.reset(seed=2)
    assert not engine.random.drew()


def test_make_engine_warm_pool(monkeypatch):
    from repro.experiments import base

    monkeypatch.setattr(base, "_WARM_POOL", {})
    monkeypatch.setenv("REPRO_WARM_ENGINES", "1")
    first = base.make_engine("cfs", ncpus=2, seed=1)
    digest_fresh = _run_cell(first, 1, 1)
    again = base.make_engine("cfs", ncpus=2, seed=1)
    assert again is first  # recycled, not rebuilt
    assert _run_cell(again, 1, 1) == digest_fresh
    # a different construction signature never shares an engine
    other = base.make_engine("ule", ncpus=2, seed=1)
    assert other is not first


def test_make_engine_warm_pool_off_by_default(monkeypatch):
    from repro.experiments import base

    monkeypatch.setattr(base, "_WARM_POOL", {})
    monkeypatch.delenv("REPRO_WARM_ENGINES", raising=False)
    a = base.make_engine("cfs", ncpus=2, seed=1)
    b = base.make_engine("cfs", ncpus=2, seed=1)
    assert a is not b
    assert not base._WARM_POOL
