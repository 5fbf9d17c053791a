"""Unit tests for ULE building blocks: runq, interactivity, priority,
tunables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import msec, sec
from repro.ule.interactivity import SleepRunHistory
from repro.ule.params import UleTunables
from repro.ule.priority import compute_priority
from repro.ule.runq import RunQueue


TUN = UleTunables()


# ------------------------------------------------------------------ runq

class FakeThread:
    def __init__(self, name):
        self.name = name


def test_runq_fifo_within_priority():
    q = RunQueue()
    a, b = FakeThread("a"), FakeThread("b")
    q.add(a, 5)
    q.add(b, 5)
    assert q.choose() is a
    assert q.choose() is b
    assert q.choose() is None


def test_runq_priority_order():
    q = RunQueue()
    lo, hi = FakeThread("lo"), FakeThread("hi")
    q.add(lo, 40)
    q.add(hi, 3)
    assert q.first_priority() == 3
    assert q.choose() is hi
    assert q.choose() is lo


def test_runq_at_head():
    q = RunQueue()
    a, b = FakeThread("a"), FakeThread("b")
    q.add(a, 5)
    q.add(b, 5, at_head=True)
    assert q.choose() is b


def test_runq_remove():
    q = RunQueue()
    a, b = FakeThread("a"), FakeThread("b")
    q.add(a, 5)
    q.add(b, 7)
    q.remove(a, 5)
    assert len(q) == 1
    assert q.choose() is b
    q.check_invariants()


def test_runq_remove_missing_raises():
    from repro.core.errors import SchedulerError
    q = RunQueue()
    with pytest.raises(SchedulerError):
        q.remove(FakeThread("x"), 5)


def test_runq_priority_bounds():
    from repro.core.errors import SchedulerError
    q = RunQueue(64)
    with pytest.raises(SchedulerError):
        q.add(FakeThread("x"), 64)
    with pytest.raises(SchedulerError):
        q.add(FakeThread("x"), -1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=50))
def test_property_runq_drains_in_priority_order(priorities):
    q = RunQueue()
    for i, pri in enumerate(priorities):
        q.add(FakeThread(i), pri)
        q.check_invariants()
    drained = []
    while q:
        pri = q.first_priority()
        q.choose()
        drained.append(pri)
        q.check_invariants()
    assert drained == sorted(priorities)


# -------------------------------------------------------- interactivity

def test_penalty_all_sleep_is_zero():
    hist = SleepRunHistory(TUN, runtime=0, sleeptime=sec(3))
    assert hist.penalty() == 0


def test_penalty_all_run_is_max():
    hist = SleepRunHistory(TUN, runtime=sec(3), sleeptime=0)
    assert hist.penalty() == 100


def test_penalty_equal_split_is_mid():
    # FreeBSD returns exactly HALF (50) at r == s; the formula is
    # continuous around that point.
    hist = SleepRunHistory(TUN, runtime=sec(1), sleeptime=sec(1))
    assert hist.penalty() == 50
    hist = SleepRunHistory(TUN, runtime=sec(1), sleeptime=sec(1) + 1)
    assert 49 <= hist.penalty() <= 50


def test_penalty_formula_matches_freebsd():
    # sleeping 2x as much as running: m * r/s = 25
    hist = SleepRunHistory(TUN, runtime=sec(1), sleeptime=sec(2))
    assert hist.penalty() == 25
    # running 2x as much as sleeping: 2m - m * s/r = 75
    hist = SleepRunHistory(TUN, runtime=sec(2), sleeptime=sec(1))
    assert hist.penalty() == 75
    # running 4x as much: 2m - m/4 = 87 (not the paper-typo 62.5)
    hist = SleepRunHistory(TUN, runtime=sec(4), sleeptime=sec(1))
    assert hist.penalty() == 87


def test_penalty_monotone_in_runtime():
    pens = [SleepRunHistory(TUN, runtime=r, sleeptime=sec(1)).penalty()
            for r in range(0, 5 * 10**9, 10**8)]
    assert pens == sorted(pens)


def test_interactive_threshold_sixty_percent_sleep():
    """Paper: with nice 0 the threshold corresponds roughly to sleeping
    more than 60% of the time."""
    # 62% sleep: penalty = 50/(0.62/0.38) = 30.6 -> just interactive
    hist = SleepRunHistory(TUN, runtime=msec(380), sleeptime=msec(625))
    assert hist.is_interactive(0)
    # 50% sleep: not interactive
    hist = SleepRunHistory(TUN, runtime=msec(500), sleeptime=msec(500))
    assert not hist.is_interactive(0)


def test_negative_nice_helps_interactivity():
    hist = SleepRunHistory(TUN, runtime=msec(500), sleeptime=msec(600))
    # penalty ~41: batch at nice 0, interactive at nice -15
    assert not hist.is_interactive(0)
    assert hist.is_interactive(-15)


def test_history_decay_keeps_window_bounded():
    hist = SleepRunHistory(TUN)
    for _ in range(100):
        hist.add_runtime(msec(200))
        hist.add_sleeptime(msec(100))
    assert hist.runtime + hist.sleeptime <= (TUN.slp_run_max_ns // 5) * 6


def test_history_decay_preserves_ratio_roughly():
    hist = SleepRunHistory(TUN)
    for _ in range(200):
        hist.add_runtime(msec(100))
        hist.add_sleeptime(msec(300))
    share = hist.cpu_share()
    assert share == pytest.approx(0.25, abs=0.05)


def test_fork_copy_and_absorb():
    parent = SleepRunHistory(TUN, runtime=sec(1), sleeptime=sec(2))
    child = parent.copy()
    assert child.penalty() == parent.penalty()
    child.add_runtime(sec(1))
    before = parent.runtime
    parent.absorb(child)
    assert parent.runtime > before


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**10), st.integers(0, 10**10))
def test_property_penalty_bounded(run, sleep):
    hist = SleepRunHistory(TUN, runtime=run, sleeptime=sleep)
    assert 0 <= hist.penalty() <= TUN.interact_max


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 10**9)),
                min_size=1, max_size=40))
def test_property_history_window_bounded(steps):
    hist = SleepRunHistory(TUN)
    for is_run, delta in steps:
        if is_run:
            hist.add_runtime(delta)
        else:
            hist.add_sleeptime(delta)
        assert hist.runtime + hist.sleeptime <= \
            max((TUN.slp_run_max_ns // 5) * 6, delta + TUN.slp_run_max_ns)


# ------------------------------------------------------------ priority

def test_interactive_priority_interpolation():
    # a never-run thread has penalty 0, so nice alone sweeps the score
    never_ran = SleepRunHistory(TUN, runtime=0, sleeptime=sec(1))
    assert compute_priority(TUN, never_ran, 0) == (0, True)
    pris = []
    for nice in range(20):
        pri, interactive = compute_priority(TUN, never_ran, nice)
        assert interactive
        pris.append(pri)
    assert pris == sorted(pris)  # monotone
    # penalty 20 + nice 10 sits on the threshold: the band's worst
    at_thresh = SleepRunHistory(TUN, runtime=2, sleeptime=5)
    assert at_thresh.score(10) == TUN.interact_thresh
    assert compute_priority(TUN, at_thresh, 10) == \
        (TUN.interact_prio_max, True)


def test_batch_priority_rises_with_usage():
    lazy = SleepRunHistory(TUN, runtime=msec(400), sleeptime=msec(100))
    hog = SleepRunHistory(TUN, runtime=sec(4), sleeptime=0)
    lazy_pri, lazy_interactive = compute_priority(TUN, lazy, 0)
    hog_pri, hog_interactive = compute_priority(TUN, hog, 0)
    assert not lazy_interactive and not hog_interactive
    assert hog_pri > lazy_pri


def test_batch_priority_in_band():
    for run, sleep in [(sec(5), 0), (sec(1), sec(1)), (sec(2), sec(1))]:
        hist = SleepRunHistory(TUN, runtime=run, sleeptime=sleep)
        for nice in range(-20, 20):
            pri, interactive = compute_priority(TUN, hist, nice)
            if not interactive:
                assert TUN.batch_prio_min <= pri <= TUN.nqueues - 1


def _priority_oracle(tun, hist, nice):
    """compute_priority composed from the SleepRunHistory methods (the
    score and cpu_share the paper defines) and the band mappings."""
    score = hist.score(nice)
    if score <= tun.interact_thresh:
        return score * tun.interact_prio_max // tun.interact_thresh, True
    lo, hi = tun.batch_prio_min, tun.nqueues - 1
    span = hi - lo
    usage_span = (span * 3) // 5
    usage = int(hist.cpu_share() * usage_span)
    nice_off = (nice + 20) * (span - usage_span) // 40
    return max(lo, min(hi, lo + usage + nice_off)), False


_LIMIT = TUN.slp_run_max_ns
#: r=0, s=0, r=s=0, equal shares, histories on either side of the
#: decay limit and of the halving threshold, and (29, 50), where
#: ``int(m * (r / s))`` is 28 but ``int(m * r / s)`` would be 29
_EDGE_HISTORIES = [
    (0, 0), (0, 1), (1, 0), (1, 1), (0, _LIMIT), (_LIMIT, 0),
    (_LIMIT // 2, _LIMIT // 2), (_LIMIT - 1, 1), (1, _LIMIT - 1),
    (_LIMIT // 2, _LIMIT // 2 - 1), ((_LIMIT // 5) * 6, 0),
    ((_LIMIT // 5) * 3, (_LIMIT // 5) * 3 + 1), (2, 5), (3, 5), (29, 50),
]


@pytest.mark.parametrize("run,sleep", _EDGE_HISTORIES)
def test_compute_priority_matches_oracle_at_edges(run, sleep):
    hist = SleepRunHistory(TUN, runtime=run, sleeptime=sleep)
    for nice in range(-20, 20):
        assert compute_priority(TUN, hist, nice) == \
            _priority_oracle(TUN, hist, nice), (run, sleep, nice)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 * _LIMIT), st.integers(0, 2 * _LIMIT),
       st.integers(-20, 19))
def test_property_compute_priority_matches_oracle(run, sleep, nice):
    hist = SleepRunHistory(TUN, runtime=run, sleeptime=sleep)
    assert compute_priority(TUN, hist, nice) == \
        _priority_oracle(TUN, hist, nice)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 10**9)),
                min_size=1, max_size=40), st.integers(-20, 19))
def test_property_compute_priority_matches_oracle_decayed(steps, nice):
    # histories as the decay leaves them, not only as constructed
    hist = SleepRunHistory(TUN)
    for ran, delta in steps:
        if ran:
            hist.add_runtime(delta)
        else:
            hist.add_sleeptime(delta)
        assert compute_priority(TUN, hist, nice) == \
            _priority_oracle(TUN, hist, nice)


def test_compute_priority_classifies():
    sleeper = SleepRunHistory(TUN, runtime=msec(100), sleeptime=sec(2))
    pri, interactive = compute_priority(TUN, sleeper, 0)
    assert interactive
    assert pri <= TUN.interact_prio_max
    hog = SleepRunHistory(TUN, runtime=sec(3), sleeptime=0)
    pri, interactive = compute_priority(TUN, hog, 0)
    assert not interactive
    assert pri >= TUN.batch_prio_min


# ------------------------------------------------------------ tunables

def test_slice_matches_paper():
    tun = UleTunables()
    # one thread: 10 ticks (~78 ms)
    assert tun.slice_for_load(1) == 10
    assert abs(tun.slice_ns - msec(78)) < msec(1)
    # divided by thread count
    assert tun.slice_for_load(2) == 5
    assert tun.slice_for_load(10) == 1
    # floored at 1 tick (1/127th of a second)
    assert tun.slice_for_load(100) == 1
