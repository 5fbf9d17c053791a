"""Schedule-digest pins for the periodic tick.

Every core's tick runs through ``Engine._tick``: NO_HZ parking, the
repost, accounting, the scheduler's ``task_tick``/``idle_tick`` and the
dispatch-or-rearm epilogue.  These pins record the schedules of small
tick-heavy runs: 12 spinners plus a sleeper on 4 cores, the spinners
finishing at staggered times so idle ticks park late in the run.  Each
runs with tickless on and off and no fault plan, and once more with a
core offlined and re-onlined mid-run (the phase-aligned re-arm), so any
change to the tick path that moves a schedule shows up as a digest
mismatch.
"""

import pytest

from repro.core import Engine, Run, Sleep, ThreadSpec
from repro.core.clock import msec, usec
from repro.core.topology import smp
from repro.sched import scheduler_factory
from repro.tracing.digest import schedule_digest

#: schedule digests of :func:`_tick_heavy_engine`, per scheduler; a
#: digest is tickless-invariant, so one pin covers both settings
TICK_PINS = {
    "cfs": "c6044fcb3156c454",
    "ule": "7b68ef8b5a2d4ea5",
    "eevdf": "7b8e116fbcbac79c",
    "lottery": "8e45515206ab7092",
}

#: the same run with cpu 2 offlined at 40 ms and onlined at 70 ms
HOTPLUG_PINS = {
    "cfs": "33cb0522fa617d36",
    "ule": "56c254311a5beb34",
    "eevdf": "fcb418d49aa002e2",
    "lottery": "92b8284678d2f435",
}


def _spinner(ms):
    def behavior(ctx):
        yield Run(msec(ms))
    return behavior


def _sleeper(ctx):
    for i in range(40):
        yield Run(usec(250 + 90 * (i % 3)))
        yield Sleep(msec(2) + usec(311))


def _tick_heavy_engine(sched: str, tickless: bool,
                       hotplug: bool = False) -> Engine:
    engine = Engine(smp(4), scheduler_factory(sched), seed=5,
                    tickless=tickless)
    for i in range(12):
        engine.spawn(ThreadSpec(f"spin{i}", _spinner(10 + 4 * i),
                                app=f"app{i % 3}"), at=usec(50 * i))
    engine.spawn(ThreadSpec("sleeper", _sleeper, app="io"))
    if hotplug:
        engine.events.post(msec(40), engine.offline_core, 2)
        engine.events.post(msec(70), engine.online_core, 2)
    engine.run(until=msec(150))
    return engine


@pytest.mark.parametrize("tickless", (True, False))
@pytest.mark.parametrize("sched", sorted(TICK_PINS))
def test_tick_heavy_schedule_is_pinned(sched, tickless):
    engine = _tick_heavy_engine(sched, tickless)
    assert (engine.metrics.counter("engine.tick_stops") > 0) == tickless
    assert schedule_digest(engine) == TICK_PINS[sched]


@pytest.mark.parametrize("tickless", (True, False))
@pytest.mark.parametrize("sched", sorted(HOTPLUG_PINS))
def test_hotplug_rearm_schedule_is_pinned(sched, tickless):
    engine = _tick_heavy_engine(sched, tickless, hotplug=True)
    assert engine.metrics.counter("engine.hotplug_offlines") == 1
    assert engine.metrics.counter("engine.hotplug_onlines") == 1
    assert schedule_digest(engine) == HOTPLUG_PINS[sched]


def _timer_thread(first, period, count):
    """Sleeps ``first``, then ``count`` times ``period``; it never
    runs, so each timer lands exactly ``period`` after the last."""
    def behavior(ctx):
        yield Sleep(first)
        for _ in range(count):
            yield Sleep(period)
    return behavior


def _worker(ctx):
    for _ in range(8):
        yield Run(msec(4))
        yield Sleep(msec(1))


#: schedule digest of :func:`_same_instant_engine`, recorded before the
#: tick stopped re-arming completion timers it cannot be the last to arm
SAME_INSTANT_PIN = "57d2f68f46a4cc88"


def _same_instant_engine() -> Engine:
    """A worker on cpu 0 whose 4 ms Runs end exactly on cpu 0's ticks,
    with timer threads whose wakeups land on those same instants, some
    posted before that tick was posted and some after."""
    engine = Engine(smp(2), scheduler_factory("cfs"), seed=3)
    engine.spawn(ThreadSpec("s0", _timer_thread(msec(3), msec(1), 30),
                            app="io"))
    engine.spawn(ThreadSpec("s1", _timer_thread(msec(9), msec(7), 5),
                            app="io"))
    engine.spawn(ThreadSpec("a", _worker, app="a", affinity={0}))
    engine.run(until=msec(40))
    return engine


def test_run_deadline_on_a_tick_keeps_its_same_instant_order():
    """A completion due at the next tick's instant is re-armed after
    that tick is reposted, as it always was; re-arming it one tick
    earlier, or not at all, moves it ahead of the tick and changes
    this schedule."""
    assert schedule_digest(_same_instant_engine()) == SAME_INSTANT_PIN


def test_a_long_run_posts_few_completion_events(monkeypatch):
    """A 40 ms Run on one CFS cpu is armed once at dispatch and once
    more by the last tick before its deadline, not re-armed on each
    of the 40 ticks.  It starts between ticks (a deadline on a tick
    instant is re-armed by that tick too, to keep its place behind
    the tick) and ends before the ~48 ms slice after which CFS's tick
    asks for a resched even with one task (whose dispatch re-arms)."""
    from repro.core.events import EventQueue

    engine = Engine(smp(1), scheduler_factory("cfs"))

    def spin(ctx):
        yield Run(msec(40))

    engine.spawn(ThreadSpec("spin", spin), at=usec(500))
    posts = []
    post = EventQueue.post

    def counting(queue, time, callback, *args, **kwargs):
        if callback == engine._on_run_complete:
            posts.append(time)
        return post(queue, time, callback, *args, **kwargs)

    monkeypatch.setattr(EventQueue, "post", counting)
    engine.run()
    assert engine.threads[0].total_runtime == msec(40)
    assert len(posts) <= 2, posts


def _run_sleep(run_us, sleep_us, count):
    def behavior(ctx):
        for _ in range(count):
            yield Run(usec(run_us))
            yield Sleep(usec(sleep_us))
    return behavior


#: schedule digest of :func:`_overhead_charge_engine`, recorded before
#: the tick stopped re-arming completion timers it cannot move
OVERHEAD_CHARGE_PIN = "8433e803c6f062fa"


def _overhead_charge_engine() -> Engine:
    """ULE with a ``sched_pickcpu`` scan cost on 2 cpus: every wakeup
    charges overhead to a running thread, and the charge re-arms its
    completion from the last accounting point, so a later tick moves
    that deadline back."""
    from repro.experiments.base import make_engine

    engine = make_engine("ule", ncpus=2, seed=2,
                         pickcpu_scan_cost_ns=5000)
    for i in range(2):
        engine.spawn(ThreadSpec(f"spin{i}",
                                _run_sleep(9000 + 137 * i, 300, 6)))
    for i in range(4):
        engine.spawn(ThreadSpec(f"io{i}", _run_sleep(
            150 + 20 * i, 1100 + 70 * i, 60)))
    engine.run(until=msec(120))
    return engine


def test_overhead_charged_deadline_is_rearmed_by_the_tick():
    """The tick re-arms a completion whose time is not ``now +
    run_remaining``, even when that time lies past the next tick."""
    assert schedule_digest(_overhead_charge_engine()) == \
        OVERHEAD_CHARGE_PIN
