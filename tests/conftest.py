"""Shared test helpers: the scheduler list, engine builders, and the
bug-injection utilities.

Single sources of truth that used to be copied across test modules:

* ``SCHEDULERS`` — every shipped general-purpose scheduler (``rt``
  needs rt_priority-tagged threads, so generic workloads cannot drive
  it); re-exported from :data:`repro.testing.oracles.DEFAULT_SCHEDULERS`
  so the test suite and the fuzz oracles always agree;
* ``behavior_from_plan`` — plan-step lists to behaviour generators,
  promoted into :mod:`repro.testing.fuzzer` and re-exported here;
* ``build_engine`` / ``churn`` / ``inject`` — the sanitizer suite's
  fixtures, shared with the mutation self-checks in
  ``test_differential.py``;
* ``corun_engine`` — a short multi-core co-run of two apps, pinned by
  ``test_corun_speed.py`` and run sanitized by ``test_sanitizer.py``.
"""

from repro.core import Engine, Run, Sleep, ThreadSpec
from repro.core.clock import msec, usec
from repro.core.topology import i7_3770, single_core, smp
from repro.sched import scheduler_factory
from repro.testing.fuzzer import behavior_from_plan  # noqa: F401
from repro.testing.oracles import DEFAULT_SCHEDULERS, ZOO_SCHEDULERS

#: every shipped general-purpose scheduler; "linux" is the rt+fair
#: class stack and must satisfy the same invariants as plain cfs
SCHEDULERS = list(DEFAULT_SCHEDULERS)

#: the policy-DSL zoo (docs/scheduler-zoo.md) — same invariants as the
#: mainline schedulers, exercised with bounded seed budgets in tier-1
ZOO = list(ZOO_SCHEDULERS)


def build_engine(sched="fifo", ncpus=1, *, seed=0, sanitize=None,
                 **kw) -> Engine:
    """An engine on a flat SMP topology (single core for ncpus=1)."""
    topo = single_core() if ncpus == 1 else smp(ncpus)
    return Engine(topo, scheduler_factory(sched), seed=seed,
                  sanitize=sanitize, **kw)


def churn(engine, count=4):
    """Spawn wake/sleep churners so runqueues stay populated."""
    def behavior(ctx):
        while True:
            yield Run(usec(200))
            yield Sleep(usec(100))
    threads = []
    for i in range(count):
        spec = ThreadSpec(f"churn{i}", behavior)
        threads.append(engine.spawn(spec, at=usec(10 * i)))
    return threads


def inject(engine, at, mutate):
    """Post a corruption callback as a normal simulation event."""
    engine.events.post(at, mutate)


def corun_engine(sched, *, corun_slowdown=1.03, sanitize=None) -> Engine:
    """Six CPU hogs and 16 sysbench workers co-running on the 8-cpu
    i7 with the co-run slowdown on, one hog narrowed onto cpu 5 at
    40 ms; returned after the run (~1.5k-3k events, every hog and
    worker done)."""
    from repro.workloads import SysbenchWorkload
    from repro.workloads.base import ComputeWorkload

    engine = Engine(i7_3770(), scheduler_factory(sched), seed=1,
                    corun_slowdown=corun_slowdown, sanitize=sanitize)
    hogs = ComputeWorkload("hog", nthreads=6, work_ns=msec(120),
                           chunk_ns=msec(10))
    sysb = SysbenchWorkload(nthreads=16, wait_ns=msec(2),
                            init_per_thread_ns=msec(1),
                            transactions_per_thread=30)
    hogs.launch(engine, at=0)
    sysb.launch(engine, at=msec(10))
    engine.events.post(msec(40), engine.set_affinity,
                       hogs.threads(engine)[0], [5])
    engine.run(until=msec(2000),
               stop_when=lambda e: hogs.done(e) and sysb.done(e))
    return engine
