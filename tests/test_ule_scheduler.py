"""Integration tests for the ULE scheduler running in the engine.

These verify the paper's §2.2/§5 behaviours: absolute priority of
interactive threads (batch starvation), fork inheritance of
interactivity, slice scaling, count-based balancing (one thread per
invocation), and idle stealing.
"""

import pytest

from repro.core import Engine, Run, Sleep, ThreadSpec, run_forever
from repro.core.clock import msec, sec, usec
from repro.core.topology import opteron_6172, single_core, smp
from repro.sched import scheduler_factory


def make_engine(ncpus=1, seed=1, **sched_kw):
    if ncpus == 1:
        topo = single_core()
    elif ncpus == 32:
        topo = opteron_6172()
    else:
        topo = smp(ncpus)
    return Engine(topo, scheduler_factory("ule", **sched_kw), seed=seed)


def spin(ctx):
    yield run_forever()


def compute(duration):
    def behavior(ctx):
        yield Run(duration)
    return behavior


def interactive_loop(run_ns, sleep_ns, cycles=10**9):
    """A thread that mostly sleeps: stays interactive under ULE."""
    def behavior(ctx):
        for _ in range(cycles):
            yield Run(run_ns)
            yield Sleep(sleep_ns)
    return behavior


def test_single_thread_runs():
    eng = make_engine()
    t = eng.spawn(ThreadSpec("solo", compute(msec(50))))
    assert eng.run(until=sec(2)) == "all-exited"
    assert t.total_runtime == msec(50)


def test_batch_threads_round_robin():
    """Identical CPU hogs share the core (batch fairness)."""
    eng = make_engine()
    ts = [eng.spawn(ThreadSpec(f"w{i}", spin, app="app"))
          for i in range(4)]
    eng.run(until=sec(4))
    for t in ts:
        assert t.total_runtime == pytest.approx(sec(1), rel=0.25)


def test_interactive_classification_over_time():
    """A pure spinner becomes batch; a mostly-sleeping thread stays
    interactive (Fig. 2)."""
    eng = make_engine(ncpus=2)
    hog = eng.spawn(ThreadSpec("hog", spin, affinity=frozenset({0})))
    ia = eng.spawn(ThreadSpec("ia", interactive_loop(msec(1), msec(5)),
                              affinity=frozenset({1})))
    eng.run(until=sec(10))
    assert not hog.policy.interactive
    assert hog.policy.hist.penalty() > 90
    assert ia.policy.interactive
    assert ia.policy.hist.penalty() <= 30


def test_interactive_starves_batch():
    """Enough interactive threads saturating a core starve a batch
    thread completely and unboundedly (§5.1)."""
    eng = make_engine()
    hog = eng.spawn(ThreadSpec("fibo", spin, app="fibo"))
    # let the hog become batch first
    eng.run(until=sec(6))
    hog_runtime_before = hog.total_runtime
    # 20 interactive threads, each wanting 1ms every 4ms -> demand 5x
    # core capacity; each still sleeps >60% of its *own* time.
    for i in range(20):
        eng.spawn(ThreadSpec(f"ia{i}", interactive_loop(msec(1), msec(12)),
                             app="svc"))
    eng.run(until=sec(16))
    starved = hog.total_runtime - hog_runtime_before
    # the batch hog got (almost) nothing for 10 s
    assert starved < msec(500)


def test_cfs_does_not_starve_same_workload():
    """Contrast: the same workload under CFS shares the core."""
    eng = Engine(single_core(), scheduler_factory("cfs"), seed=1)
    hog = eng.spawn(ThreadSpec("fibo", spin, app="fibo"))
    eng.run(until=sec(6))
    before = hog.total_runtime
    for i in range(20):
        eng.spawn(ThreadSpec(f"ia{i}", interactive_loop(msec(1), msec(12)),
                             app="svc"))
    eng.run(until=sec(16))
    assert hog.total_runtime - before > sec(2)


def test_fork_inherits_interactivity():
    """Children inherit the parent's sleep/run history (§5.2)."""
    eng = make_engine(ncpus=2)
    children = []

    def busy_parent(ctx):
        from repro.core.actions import Fork
        # burn CPU to build up a batch history
        yield Run(sec(8))
        child = yield Fork(ThreadSpec("child-of-busy", spin))
        children.append(child)
        yield Run(msec(10))

    eng.spawn(ThreadSpec("parent", busy_parent))
    eng.run(until=sec(9))
    assert len(children) == 1
    # forked child starts batch because the parent was batch
    assert not children[0].policy.interactive


def test_exit_returns_runtime_to_parent():
    eng = make_engine(ncpus=2)

    def parent(ctx):
        from repro.core.actions import Fork
        yield Fork(ThreadSpec("kid", compute(sec(2))))
        for _ in range(100):
            yield Sleep(msec(50))

    p = eng.spawn(ThreadSpec("parent", parent))
    eng.run(until=sec(3))
    # the kid's 2s of runtime was absorbed into the sleeping parent
    assert p.policy.hist.runtime >= sec(1)


def test_no_wakeup_preemption():
    """A woken interactive thread does NOT preempt the running batch
    thread; it waits for the slice to expire (§5.3 apache, §6.4)."""
    eng = make_engine()
    hog = eng.spawn(ThreadSpec("hog", spin, app="hog"))
    eng.run(until=sec(6))  # hog becomes batch

    def sleeper(ctx):
        for _ in range(50):
            yield Sleep(msec(20) + usec(137))
            yield Run(usec(200))

    t = eng.spawn(ThreadSpec("ia", sleeper, app="ia"))
    eng.run(until=msec(7500))
    baseline = t.total_waittime
    waits_before = t.nr_switches
    eng.run(until=sec(9))
    waited = t.total_waittime - baseline
    cycles = t.nr_switches - waits_before
    if cycles:
        # each wake waits some fraction of the hog's remaining slice
        # (ULE slice under load ~7.9-39ms) instead of running at once
        assert waited / cycles > usec(500)


def test_slice_scales_with_load():
    """With 2 runnable threads the effective slice is 5 ticks: the
    running thread is switched out within ~40 ms, so both threads
    alternate at that granularity."""
    eng = make_engine()
    ts = [eng.spawn(ThreadSpec(f"w{i}", spin)) for i in range(2)]
    eng.run(until=msec(500))
    # both ran, and each got switched in multiple times (RR at ~39 ms)
    assert all(t.total_runtime > msec(100) for t in ts)
    assert all(t.nr_switches >= 4 for t in ts)


def test_idle_steal_takes_one_thread():
    eng = make_engine(ncpus=4, balance_enabled=False)
    ts = [eng.spawn(ThreadSpec(f"w{i}", spin, affinity=frozenset({0})))
          for i in range(8)]
    eng.run(until=msec(20))
    for t in ts:
        eng.set_affinity(t, None)
    eng.run(until=msec(200))
    # each idle core stole exactly one thread ("the idle stealing
    # mechanism steals at most one thread")
    counts = [eng.nr_runnable_on(c) for c in range(4)]
    assert counts == [5, 1, 1, 1]
    assert eng.metrics.counter("ule.idle_steals") == 3


def test_periodic_balance_moves_one_per_invocation():
    eng = make_engine(ncpus=4)
    ts = [eng.spawn(ThreadSpec(f"w{i}", spin, affinity=frozenset({0})))
          for i in range(12)]
    eng.run(until=msec(20))
    for t in ts:
        eng.set_affinity(t, None)
    # after idle steal: [9, 1, 1, 1]; periodic balancing then moves one
    # thread at a time from core 0 every 0.5-1.5 s.
    eng.run(until=sec(3))
    moved = eng.metrics.counter("ule.balance_migrations")
    invocations = eng.metrics.counter("ule.balance_invocations")
    assert invocations >= 2
    assert moved <= invocations  # at most one migration per invocation
    counts = sorted(eng.nr_runnable_on(c) for c in range(4))
    assert counts[-1] < 9  # progress was made
    # eventually balances to [3, 3, 3, 3]
    eng.run(until=sec(20))
    counts = [eng.nr_runnable_on(c) for c in range(4)]
    assert counts == [3, 3, 3, 3]


def test_pickcpu_places_forks_on_least_loaded():
    """ULE always forks threads on the core with the lowest number of
    threads (the c-ray/Fig. 7 behaviour)."""
    eng = make_engine(ncpus=4)
    done = []

    def master(ctx):
        from repro.core.actions import Fork
        for i in range(8):
            yield Fork(ThreadSpec(f"child{i}", spin, app="app"))
            yield Run(usec(100))
        done.append(True)
        yield run_forever()

    eng.spawn(ThreadSpec("master", master, app="app"))
    eng.run(until=msec(500))
    counts = [eng.nr_runnable_on(c) for c in range(4)]
    # 8 children + 1 master = 9 threads on 4 cores: perfectly even
    assert done and sorted(counts) == [2, 2, 2, 3]


def test_pickcpu_scan_cost_charged():
    eng = make_engine(ncpus=4, pickcpu_scan_cost_ns=usec(5))

    def sleeper(ctx):
        for _ in range(100):
            yield Run(msec(1))
            yield Sleep(msec(3))

    for i in range(4):
        eng.spawn(ThreadSpec(f"s{i}", sleeper))
    eng.run(until=sec(2))
    assert eng.metrics.counter("ule.pickcpu_scans") > 0
    assert eng.metrics.counter("sched.overhead_ns") > 0


def test_pickcpu_simple_mode_no_scans():
    eng = make_engine(ncpus=4, pickcpu_scan_cost_ns=usec(5),
                      pickcpu_simple=True)

    def sleeper(ctx):
        for _ in range(50):
            yield Run(msec(1))
            yield Sleep(msec(3))

    for i in range(4):
        eng.spawn(ThreadSpec(f"s{i}", sleeper))
    eng.run(until=sec(2))
    assert eng.metrics.counter("ule.pickcpu_scans") == 0


def test_ule_runs_threads_to_completion_multicore():
    eng = make_engine(ncpus=8)
    ts = [eng.spawn(ThreadSpec(f"w{i}", compute(msec(100))))
          for i in range(24)]
    reason = eng.run(until=sec(10))
    assert reason == "all-exited"
    assert all(t.total_runtime == msec(100) for t in ts)


def test_one_priority_computation_per_tick_driven_switch(monkeypatch):
    """16 spinners on one core switch on nearly every stathz tick.  The
    tick scores the outgoing thread, and the requeue in pick_next
    reuses that score (its history has not moved since), so ULE
    computes at most one priority per tick plus one per enqueue."""
    import repro.ule.core as ule_core
    from repro.tracing.digest import schedule_digest
    from repro.ule.core import UleScheduler
    from repro.workloads import SpinnerWorkload

    calls = {"priority": 0, "enqueue": 0}
    compute = ule_core.compute_priority
    enqueue = UleScheduler.enqueue_task

    def counting_compute(*args):
        calls["priority"] += 1
        return compute(*args)

    def counting_enqueue(self, *args):
        calls["enqueue"] += 1
        return enqueue(self, *args)

    monkeypatch.setattr(ule_core, "compute_priority", counting_compute)
    monkeypatch.setattr(UleScheduler, "enqueue_task", counting_enqueue)
    eng = make_engine()
    SpinnerWorkload(count=16, pin_cpu=None).launch(eng, at=0)
    ticks = 2000
    assert eng.run(until=ticks * eng.scheduler.tick_ns) == "deadline"
    assert eng.metrics.counters["engine.switches"] >= ticks
    assert calls["enqueue"] == 16
    assert calls["priority"] <= ticks + calls["enqueue"]
    # the schedule is the one recorded before the skip existed
    assert schedule_digest(eng) == "2430503f0aec534c"


def _count_switch_path_calls(monkeypatch, launch):
    """Run ``launch(engine)``'s threads on one core for 2000 stathz
    ticks, counting the calls a tick-driven switch could make."""
    from repro.ule.core import UleScheduler
    from repro.ule.runq import CalendarRunQueue
    from repro.ule.tdq import Tdq

    calls = {}

    def counting(cls, name, key):
        original = getattr(cls, name)
        calls[key] = 0

        def counted(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    counting(Engine, "_update_curr", "update_curr")
    counting(UleScheduler, "enqueue_task", "enqueue")
    counting(Tdq, "add", "tdq_add")
    counting(CalendarRunQueue, "add", "cal_add")
    counting(CalendarRunQueue, "choose", "cal_choose")
    eng = make_engine()
    launch(eng)
    ticks = 2000
    assert eng.run(until=ticks * eng.scheduler.tick_ns) == "deadline"
    assert eng.metrics.counters["engine.switches"] >= ticks
    # a tick charges the running thread once: the dispatch it
    # triggers has nothing left to account at that instant
    assert calls["update_curr"] <= ticks + calls["enqueue"]
    return eng, calls


def test_tick_driven_switch_is_one_pass(monkeypatch):
    """The 16 spinners of the test above.  They stay interactive
    throughout (their runtime never outweighs the shell's sleep history
    they start with), so their switches never reach the calendar; the
    batch test below covers it."""
    from repro.tracing.digest import schedule_digest
    from repro.workloads import SpinnerWorkload

    eng, calls = _count_switch_path_calls(
        monkeypatch,
        lambda eng: SpinnerWorkload(count=16, pin_cpu=None).launch(
            eng, at=0))
    assert calls["enqueue"] == 16
    assert calls["cal_add"] == calls["cal_choose"] == 0
    assert schedule_digest(eng) == "2430503f0aec534c"


def test_batch_tick_driven_switch_skips_the_calendar_calls(monkeypatch):
    """16 batch spinners of mixed nice: every switch requeues onto the
    calendar and picks from it, in one pass — the calendar's own
    add/choose run only for the enqueues and the first (idle) pick."""
    from repro.tracing.digest import schedule_digest

    def launch(eng):
        for i in range(16):
            eng.spawn(ThreadSpec(f"b{i}", spin, nice=(i % 4) * 3,
                                 tags={"ule_history": (sec(4), 0)}))

    eng, calls = _count_switch_path_calls(monkeypatch, launch)
    assert calls["enqueue"] == 16
    assert calls["tdq_add"] == calls["cal_add"] == 16
    assert calls["cal_choose"] == 1
    # recorded before the fused requeue-and-choose existed
    assert schedule_digest(eng) == "92e29b94e8bd3a13"
