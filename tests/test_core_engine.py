"""Engine behaviour tests, run against the reference FIFO scheduler.

These validate the scheduler-independent contract: action
interpretation, accounting, sleep/wake, fork, affinity, stop
conditions.
"""

import pytest

from repro.core import (Engine, Run, Sleep, ThreadSpec, ThreadState, Yield,
                        run_forever)
from repro.core.actions import Fork
from repro.core.clock import msec, sec
from repro.core.errors import ThreadStateError
from repro.core.topology import single_core, smp
from repro.sched import scheduler_factory


def make_engine(ncpus=1, **kw):
    topo = single_core() if ncpus == 1 else smp(ncpus)
    return Engine(topo, scheduler_factory("fifo"), **kw)


def compute(duration):
    def behavior(ctx):
        yield Run(duration)
    return behavior


def test_single_thread_runs_to_completion():
    eng = make_engine()
    t = eng.spawn(ThreadSpec("worker", compute(msec(5))))
    reason = eng.run(until=sec(1))
    assert reason == "all-exited"
    assert t.state is ThreadState.EXITED
    assert t.total_runtime == msec(5)
    assert eng.now == msec(5)


def test_sleep_then_run_accounting():
    eng = make_engine()

    def behavior(ctx):
        yield Run(msec(2))
        yield Sleep(msec(10))
        yield Run(msec(3))

    t = eng.spawn(ThreadSpec("sleeper", behavior))
    eng.run(until=sec(1))
    assert t.total_runtime == msec(5)
    assert t.total_sleeptime == msec(10)
    assert eng.now == msec(15)


def test_two_threads_share_core():
    eng = make_engine()
    a = eng.spawn(ThreadSpec("a", compute(msec(30))))
    b = eng.spawn(ThreadSpec("b", compute(msec(30))))
    eng.run(until=sec(1))
    assert a.has_exited and b.has_exited
    # Total work is 60 ms on one core.
    assert eng.now == msec(60)
    # Round-robin means both made progress: neither finished before the
    # other's work could have run entirely serially.
    assert max(a.exited_at, b.exited_at) == msec(60)
    assert min(a.exited_at, b.exited_at) >= msec(30)


def test_threads_run_in_parallel_on_two_cores():
    eng = make_engine(ncpus=2)
    a = eng.spawn(ThreadSpec("a", compute(msec(30))))
    b = eng.spawn(ThreadSpec("b", compute(msec(30))))
    eng.run(until=sec(1))
    assert eng.now == msec(30)
    assert a.exited_at == b.exited_at == msec(30)


def test_fork_child_runs():
    eng = make_engine(ncpus=2)
    children = []

    def parent(ctx):
        yield Run(msec(1))
        child = yield Fork(ThreadSpec("child", compute(msec(2))))
        children.append(child)
        yield Run(msec(1))

    eng.spawn(ThreadSpec("parent", parent))
    eng.run(until=sec(1))
    assert len(children) == 1
    assert children[0].has_exited
    assert children[0].parent.name == "parent"
    assert children[0].total_runtime == msec(2)


def test_spawn_at_future_time():
    eng = make_engine()
    t = eng.spawn(ThreadSpec("late", compute(msec(1))), at=msec(50))
    eng.run(until=sec(1))
    assert t.created_at == msec(50)
    assert t.exited_at == msec(51)


def test_run_forever_never_exits():
    eng = make_engine()

    def spin(ctx):
        yield run_forever()

    t = eng.spawn(ThreadSpec("spin", spin))
    reason = eng.run(until=msec(100))
    assert reason == "deadline"
    assert t.is_running
    assert t.total_runtime == msec(100)


def test_yield_rotates_between_threads():
    eng = make_engine()
    order = []

    def nice_guy(ctx):
        for _ in range(3):
            yield Run(msec(1))
            order.append(ctx.thread.name)
            yield Yield()

    eng.spawn(ThreadSpec("y1", nice_guy))
    eng.spawn(ThreadSpec("y2", nice_guy))
    eng.run(until=sec(1))
    # Yield lets the other thread in between each 1 ms chunk.
    assert order == ["y1", "y2", "y1", "y2", "y1", "y2"]


def test_affinity_restricts_placement():
    eng = make_engine(ncpus=4)
    t = eng.spawn(ThreadSpec("pinned", compute(msec(5)),
                             affinity=frozenset({2})))
    eng.run(until=sec(1))
    assert t.cpu == 2


def test_set_affinity_narrowing_moves_running_thread():
    eng = make_engine(ncpus=2)

    def spin(ctx):
        yield run_forever()

    t = eng.spawn(ThreadSpec("spin", spin, affinity=frozenset({0})))
    eng.run(until=msec(5))
    assert t.cpu == 0
    eng.set_affinity(t, {1})
    eng.run(until=msec(10))
    assert t.cpu == 1
    assert t.is_running


def test_set_affinity_widening_does_not_move():
    eng = make_engine(ncpus=2)

    def spin(ctx):
        yield run_forever()

    a = eng.spawn(ThreadSpec("a", spin, affinity=frozenset({0})))
    b = eng.spawn(ThreadSpec("b", spin, affinity=frozenset({0})))
    eng.run(until=msec(5))
    eng.set_affinity(a, None)
    eng.set_affinity(b, None)
    # Widening alone moves nothing; only balancing would.  FIFO steals
    # on idle, so after some time one thread is stolen by cpu 1.
    eng.run(until=msec(100))
    cpus = {a.cpu, b.cpu}
    assert cpus == {0, 1}


def test_stop_when_condition():
    eng = make_engine()
    eng.spawn(ThreadSpec("spin", lambda ctx: iter([run_forever()])))
    reason = eng.run(until=sec(10),
                     stop_when=lambda e: e.now >= msec(50),
                     check_interval=1)
    assert reason == "condition"
    assert eng.now < sec(10)


def test_engine_stop_from_callback():
    eng = make_engine()
    eng.spawn(ThreadSpec("spin", lambda ctx: iter([run_forever()])))
    eng.events.post(msec(7), eng.stop, "bailed")
    assert eng.run(until=sec(1)) == "bailed"
    assert eng.now == msec(7)


def test_migrate_running_thread_rejected():
    eng = make_engine(ncpus=2)

    def spin(ctx):
        yield run_forever()

    t = eng.spawn(ThreadSpec("spin", spin))
    eng.run(until=msec(1))
    assert t.is_running
    with pytest.raises(ThreadStateError):
        eng.migrate_thread(t, 1)


def test_wait_time_accounted():
    eng = make_engine()
    a = eng.spawn(ThreadSpec("a", compute(msec(20))))
    b = eng.spawn(ThreadSpec("b", compute(msec(20))))
    eng.run(until=sec(1))
    # One core, 40 ms of work: both threads waited while the other ran.
    assert a.total_waittime + b.total_waittime > 0
    assert a.total_runtime == b.total_runtime == msec(20)


def test_metrics_switch_counter():
    eng = make_engine()
    eng.spawn(ThreadSpec("a", compute(msec(5))))
    eng.spawn(ThreadSpec("b", compute(msec(5))))
    eng.run(until=sec(1))
    assert eng.metrics.counter("engine.switches") >= 2
    assert eng.metrics.counter("engine.exits") == 2


def test_exited_threads_stay_dead():
    eng = make_engine()
    t = eng.spawn(ThreadSpec("a", compute(msec(1))))
    eng.run(until=sec(1))
    # waking an exited thread is a no-op
    eng.wake_thread(t)
    assert t.has_exited


def test_charge_overhead_delays_completion():
    eng = make_engine()
    t = eng.spawn(ThreadSpec("a", compute(msec(10))))
    eng.events.post(msec(2), eng.charge_overhead, 0, msec(3))
    eng.run(until=sec(1))
    assert t.exited_at == msec(13)
    assert eng.machine.cores[0].sched_overhead_ns == msec(3)


def test_profiled_total_counts_executed_events_only():
    """The queue-pop bucket keeps its self-time row but is not counted
    as events: the reported total equals the events the loop ran."""
    from repro.core.profile import QUEUE_BUCKET, global_profiler

    global_profiler().clear()
    eng = Engine(smp(4), scheduler_factory("cfs"), profile=True)

    def sleeper(ctx):
        for _ in range(20):
            yield Run(msec(1))
            yield Sleep(msec(2))

    for i in range(6):
        eng.spawn(ThreadSpec(f"spin{i}", lambda ctx: iter([run_forever()])))
        eng.spawn(ThreadSpec(f"sleep{i}", sleeper))
    eng.run(until=msec(100))
    profiler = eng.profiler
    try:
        assert profiler.counts[QUEUE_BUCKET] > eng.events_processed
        assert profiler.total_events == eng.events_processed
        report = profiler.report().splitlines()
        assert any(line.startswith(QUEUE_BUCKET) for line in report)
        total = report[-1].split()
        assert total[0] == "total"
        assert int(total[1]) == eng.events_processed
    finally:
        profiler.clear()
