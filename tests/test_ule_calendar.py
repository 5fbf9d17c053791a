"""Tests for ULE's calendar (timeshare) runqueue."""

import functools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Engine, ThreadSpec, run_forever
from repro.core.clock import msec, sec
from repro.core.errors import SchedulerError
from repro.core.thread import ThreadState
from repro.core.topology import single_core
from repro.sched import scheduler_factory
from repro.ule.core import UleThreadState
from repro.ule.interactivity import SleepRunHistory
from repro.ule.params import UleTunables
from repro.ule.runq import CalendarRunQueue
from repro.ule.tdq import Tdq


class FakeThread:
    _n = 0

    def __init__(self, name):
        FakeThread._n += 1
        self.tid = FakeThread._n
        self.name = name


def test_calendar_basic_fifo():
    cal = CalendarRunQueue(8)
    a, b = FakeThread("a"), FakeThread("b")
    cal.add(a, 0)
    cal.add(b, 0)
    assert cal.choose() is a
    assert cal.choose() is b
    assert cal.choose() is None


def test_calendar_priority_spreads_around_circle():
    cal = CalendarRunQueue(8)
    near, far = FakeThread("near"), FakeThread("far")
    cal.add(far, 5)
    cal.add(near, 1)
    assert cal.choose() is near
    assert cal.choose() is far


def test_calendar_rotation_bounds_waiting():
    """After the insertion origin rotates, a previously 'far' thread
    becomes 'near': no batch thread waits more than one lap."""
    cal = CalendarRunQueue(8)
    laggard = FakeThread("laggard")
    cal.add(laggard, 7)  # worst priority: 7 buckets away
    # rotate the insertion origin; new arrivals at priority 0 now land
    # *behind* the laggard's bucket once the origin passes it
    for _ in range(7):
        cal.advance()
    eager = FakeThread("eager")
    cal.add(eager, 0)  # lands at bucket (7+0)%8 = 7, behind laggard
    assert cal.choose() is laggard
    assert cal.choose() is eager


def test_calendar_at_head_resumes_first():
    cal = CalendarRunQueue(8)
    a, b = FakeThread("a"), FakeThread("b")
    cal.add(a, 2)
    cal.add(b, 0, at_head=True)  # preempted thread resumes first
    assert cal.choose() is b


def test_calendar_remove():
    cal = CalendarRunQueue(8)
    a, b = FakeThread("a"), FakeThread("b")
    cal.add(a, 3)
    cal.add(b, 3)
    cal.remove(a)
    assert len(cal) == 1
    assert cal.choose() is b
    with pytest.raises(SchedulerError):
        cal.remove(a)


def test_calendar_first_priority_distance():
    cal = CalendarRunQueue(8)
    assert cal.first_priority() is None
    cal.add(FakeThread("x"), 4)
    assert cal.first_priority() == 4
    cal.add(FakeThread("y"), 1)
    assert cal.first_priority() == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                min_size=1, max_size=40),
       st.integers(0, 20))
def test_property_calendar_conserves_threads(adds, rotations):
    cal = CalendarRunQueue(64)
    threads = []
    for pri, head in adds:
        t = FakeThread("t")
        cal.add(t, pri, at_head=head)
        threads.append(t)
        cal.check_invariants()
    for _ in range(rotations):
        cal.advance()
    drained = []
    while cal:
        drained.append(cal.choose())
        cal.check_invariants()
    assert sorted(t.tid for t in drained) == \
        sorted(t.tid for t in threads)


def test_batch_threads_share_core_via_calendar():
    """End to end: two batch hogs with *different* batch priorities
    still share the core (the calendar prevents batch-vs-batch
    starvation, §2.2)."""
    eng = Engine(single_core(), scheduler_factory("ule"), seed=8)

    def spin(ctx):
        yield run_forever()

    # a heavy hog plus a nice-10 hog: worse batch priority, but the
    # calendar still cycles to it every lap
    a = eng.spawn(ThreadSpec("a", spin, nice=0))
    b = eng.spawn(ThreadSpec("b", spin, nice=10))
    eng.run(until=sec(10))
    assert b.total_runtime > sec(1)
    assert a.total_runtime > b.total_runtime * 0.8


# ---------------------------------------------------------------------
# UleScheduler.pick_next's fused requeue-and-choose (a running
# incumbent), checked against its oracle: Tdq.add then Tdq.choose
# ---------------------------------------------------------------------

# a small band so wrap-around and both clamp edges come up often:
# batch priorities 3..10 file at calendar distances 0..7
SMALL = UleTunables(nqueues=8, interact_prio_max=2, batch_prio_min=3)


class PolicyThread:
    """The fields the pick reads: a running thread whose ULE state was
    scored from its current history (so the given priority stands)."""

    def __init__(self, tid, priority, interactive):
        self.tid = tid
        self.nice = 0
        self.state = ThreadState.RUNNING
        self.policy = UleThreadState(SleepRunHistory(SMALL))
        self.policy.prio_inputs = (0, 0, 0)
        self.policy.priority = priority
        self.policy.interactive = interactive


def _build(insert_idx, remove_idx, ops):
    """A tdq driven through ``ops`` from an empty calendar positioned at
    ``insert_idx``/``remove_idx``; returns it and its threads by tid."""
    tdq = Tdq(0, SMALL)
    tdq.timeshare.insert_idx = insert_idx
    tdq.timeshare.remove_idx = remove_idx
    threads = {}
    for op in ops:
        if op[0] == "add":
            _, priority, interactive = op
            t = PolicyThread(len(threads) + 1, priority, interactive)
            threads[t.tid] = t
            tdq.add(t)
        elif op[0] == "advance":
            tdq.timeshare.advance()
        else:
            tdq.choose()
    return tdq, threads


def _state(tdq, threads):
    ts, rt = tdq.timeshare, tdq.realtime
    return ([[t.tid for t in b] for b in ts._buckets], ts._bitmap,
            ts.remove_idx, ts.insert_idx, ts.count, dict(ts._bucket_of),
            [[t.tid for t in q] for q in rt._queues], rt.bitmap,
            rt.count,
            {tid: (t.policy.queued, t.policy.queued_interactive,
                   t.policy.queued_priority, t.policy.ticks_used)
             for tid, t in threads.items()})


@functools.lru_cache(maxsize=None)
def _small_ule():
    """A ULE scheduler on SMALL (its pick of a running incumbent
    touches no scheduler state, so the examples share one)."""
    return Engine(single_core(),
                  scheduler_factory("ule", tunables=SMALL)).scheduler


def _check_requeue_choose(insert_idx, remove_idx, ops, incumbents):
    """Run the same switches through both paths.  Each round the
    incumbent (a fresh thread, or the last pick re-scored to the given
    priority and class) is requeued and the next thread chosen, after
    ``rotate`` stathz advances of the insertion origin."""
    sched = _small_ule()
    fused, fused_threads = _build(insert_idx, remove_idx, ops)
    oracle, oracle_threads = _build(insert_idx, remove_idx, ops)
    core = SimpleNamespace(rq=fused, current=None)
    oracle_curr = None
    for fresh, priority, interactive, rotate in incumbents:
        if fresh or oracle_curr is None:
            tid = len(fused_threads) + 1
            core.current = fused_threads[tid] = PolicyThread(
                tid, priority, interactive)
            oracle_curr = oracle_threads[tid] = PolicyThread(
                tid, priority, interactive)
        else:
            for t in (core.current, oracle_curr):
                t.policy.priority = priority
                t.policy.interactive = interactive
        for _ in range(rotate):
            fused.timeshare.advance()
            oracle.timeshare.advance()
        got = sched.pick_next(core)
        oracle.add(oracle_curr)
        want = oracle.choose()
        want.policy.ticks_used = 0
        assert got.tid == want.tid
        assert _state(fused, fused_threads) == \
            _state(oracle, oracle_threads)
        fused.timeshare.check_invariants()
        fused.realtime.check_invariants()
        core.current = got
        oracle_curr = want


# (priority, interactive): interactive threads live in the realtime
# queue's range; batch priorities reach past both ends of the band
_CLASSED_PRIORITY = st.one_of(
    st.tuples(st.integers(0, 7), st.just(True)),
    st.tuples(st.integers(-2, 13), st.just(False)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7),
       st.lists(st.one_of(
           _CLASSED_PRIORITY.map(lambda p: ("add",) + p),
           st.just(("advance",)),
           st.just(("choose",))), max_size=24),
       st.lists(st.tuples(st.booleans(), _CLASSED_PRIORITY,
                          st.integers(0, 9)).map(
                              lambda x: (x[0],) + x[1] + (x[2],)),
                min_size=1, max_size=12))
def test_property_requeue_choose_matches_add_then_choose(
        insert_idx, remove_idx, ops, incumbents):
    """Random calendars (both indices anywhere on the circle, wrapping
    as the tick advances the insertion origin), incumbents with
    priorities below the batch band and past its top, interactive
    incumbents and a non-empty realtime queue."""
    _check_requeue_choose(insert_idx, remove_idx, ops, incumbents)


@pytest.mark.parametrize("insert_idx,remove_idx,ops,incumbents", [
    # a lone incumbent on an empty tdq, away from the removal index
    (5, 2, [], [(True, 6, False, 0)]),
    # lone, removal index behind the origin: the pick wraps past 7
    (6, 7, [], [(True, 9, False, 0)] + [(False, 9, False, 1)] * 9),
    # the incumbent's bucket is the first occupied one (others later)
    (0, 0, [("add", 10, False)], [(True, 3, False, 0)]),
    # ... and that bucket already holds a thread: it is picked instead
    (0, 0, [("add", 4, False)], [(True, 4, False, 0)]),
    # another bucket comes first, behind the wrap
    (6, 6, [("add", 3, False), ("advance",), ("advance",)],
     [(True, 9, False, 0)]),
    # clamp edges: just below the batch band and one past its top
    (3, 1, [("add", -2, False), ("add", 13, False)],
     [(True, 2, False, 0), (False, 11, False, 3)]),
    # a non-empty realtime queue: falls through to add + choose
    (2, 0, [("add", 1, True), ("add", 5, False)], [(True, 7, False, 0)]),
    # an interactive incumbent: falls through to add + choose
    (2, 0, [("add", 5, False)], [(True, 1, True, 0)]),
])
def test_requeue_choose_matches_add_then_choose(insert_idx, remove_idx,
                                                ops, incumbents):
    _check_requeue_choose(insert_idx, remove_idx, ops, incumbents)


def test_requeue_choose_keeps_the_range_check():
    """A priority that clamps outside the calendar (a band wider than
    the calendar) is rejected like ``CalendarRunQueue.add`` rejects
    it."""
    sched = _small_ule()
    tdq = Tdq(0, SMALL)
    tdq.timeshare = CalendarRunQueue(4)
    core = SimpleNamespace(rq=tdq, current=PolicyThread(1, 10, False))
    with pytest.raises(SchedulerError):
        sched.pick_next(core)
