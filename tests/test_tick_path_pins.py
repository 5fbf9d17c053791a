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
