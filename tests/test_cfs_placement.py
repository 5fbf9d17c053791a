"""Unit tests for CFS wake placement heuristics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Engine, Run, Sleep, ThreadSpec, run_forever
from repro.core.clock import msec, sec
from repro.core.topology import smp
from repro.cfs.placement import record_wakee, select_task_rq_fair, wake_wide
from repro.sched import scheduler_factory
from repro.sync import Channel


def make_engine(ncpus=4):
    return Engine(smp(ncpus), scheduler_factory("cfs"), seed=13)


def spin(ctx):
    yield run_forever()


class FakeState:
    def __init__(self):
        self.last_wakee = None
        self.wakee_flips = 0
        self.wakee_flip_ts = 0


def test_record_wakee_counts_distinct_wakees():
    state = FakeState()
    a, b = object(), object()
    record_wakee(state, a, now=0)
    record_wakee(state, a, now=1)  # same wakee: no flip
    record_wakee(state, b, now=2)
    record_wakee(state, a, now=3)
    assert state.wakee_flips == 3


def test_record_wakee_decays_every_second():
    state = FakeState()
    wakees = [object() for _ in range(8)]
    for i, w in enumerate(wakees):
        record_wakee(state, w, now=i)
    flips_before = state.wakee_flips
    record_wakee(state, object(), now=2 * 10**9)
    assert state.wakee_flips <= flips_before // 2 + 1


def test_wake_wide_detects_one_to_many():
    """A dispatcher that wakes many distinct workers goes 'wide'."""
    eng = make_engine(ncpus=4)
    chan = Channel(eng)
    n = 12

    def dispatcher(ctx):
        for round_ in range(20):
            yield Sleep(msec(2))
            for _ in range(n):
                yield chan.put(round_)

    def worker(ctx):
        while True:
            item = yield chan.get()
            yield Run(msec(1))

    disp = eng.spawn(ThreadSpec("disp", dispatcher, app="svc"))
    workers = [eng.spawn(ThreadSpec(f"w{i}", worker, app="svc"))
               for i in range(n)]
    eng.run(until=sec(1))
    # the dispatcher accumulated wakee flips well above the LLC size
    state = eng.scheduler.state_of(disp)
    assert state.wakee_flips > 4
    # and its wakees were spread across the machine
    used_cpus = {w.cpu for w in workers}
    assert len(used_cpus) >= 3


def test_wake_wide_formula():
    """The kernel's rule: wide only when the *slave* also flips at
    least factor times and master >= slave * factor."""
    eng = make_engine(ncpus=4)  # one LLC of 4 -> factor 4
    sched = eng.scheduler
    master = eng.spawn(ThreadSpec("m", spin))
    slave = eng.spawn(ThreadSpec("s", spin))
    eng.run(until=msec(1))
    ms, ss = sched.state_of(master), sched.state_of(slave)
    ms.wakee_flips, ss.wakee_flips = 40, 5
    assert wake_wide(sched, master, slave)
    ms.wakee_flips, ss.wakee_flips = 40, 2  # slave below factor
    assert not wake_wide(sched, master, slave)
    ms.wakee_flips, ss.wakee_flips = 10, 5  # master < slave * factor
    assert not wake_wide(sched, master, slave)


def test_one_to_one_stays_affine():
    """A ping-pong pair is kept close (not spread machine-wide)."""
    eng = make_engine(ncpus=4)
    a2b, b2a = Channel(eng), Channel(eng)

    def ping(ctx):
        for i in range(200):
            yield a2b.put(i)
            yield b2a.get()
            yield Run(msec(1))

    def pong(ctx):
        for _ in range(200):
            yield a2b.get()
            yield Run(msec(1))
            yield b2a.put(None)

    a = eng.spawn(ThreadSpec("ping", ping, app="pp"))
    b = eng.spawn(ThreadSpec("pong", pong, app="pp"))
    eng.run(until=sec(2))
    sa = eng.scheduler.state_of(a)
    sb = eng.scheduler.state_of(b)
    # each always wakes the same partner: flips stay at 1
    assert sa.wakee_flips <= 1
    assert sb.wakee_flips <= 1
    assert not wake_wide(eng.scheduler, a, b)
    # pair migrated rarely (placement kept them on their CPUs)
    assert a.nr_migrations + b.nr_migrations <= 4


def test_fork_spreads_to_idle_cpus():
    eng = make_engine(ncpus=4)
    ts = [eng.spawn(ThreadSpec(f"s{i}", spin)) for i in range(4)]
    eng.run(until=msec(100))
    assert {t.cpu for t in ts} == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# fork placement against a brute-force oracle
# ----------------------------------------------------------------------

def _napper(ctx):
    while True:
        yield Run(msec(3))
        yield Sleep(msec(4))


def _dormant(ctx):
    yield Sleep(sec(100))


def _oracle_load(sched, cpu):
    """``cpu``'s load as a plain sum of every runnable task's
    ``LoadAvg.peek``, bypassing the per-instant memo."""
    core = sched.machine.cores[cpu]
    now = sched.engine.now
    return sum(t.policy.se.avg.peek(now, True)
               for t in sched.runnable_threads(core))


def _oracle_fork_cpu(sched, thread):
    """The allowed online cpu with the least ``(load, h_nr_running,
    cpu)``, written as one ``min`` over every candidate."""
    machine = sched.machine
    allowed = [c for c in range(len(machine))
               if thread.allows_cpu(c) and machine.cores[c].online]
    allowed = allowed or machine.online_cpus()
    rqs = sched.root_group.cfs_rqs
    return min(allowed, key=lambda c: (_oracle_load(sched, c),
                                       rqs[c].h_nr_running, c))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_fork_placement_matches_oracle(data):
    """On random CFS states -- affinity masks, mixed nice, app groups,
    decayed and unequal loads from sleepers, all-idle and all-busy
    machines, one offlined core -- a fork lands on the oracle's cpu."""
    ncpus = data.draw(st.sampled_from([2, 4, 6, 8]))
    cpus = list(range(ncpus))
    eng = Engine(smp(ncpus, cpus_per_llc=2), scheduler_factory("cfs"),
                 seed=data.draw(st.integers(0, 9)))
    sched = eng.scheduler
    masks = st.one_of(st.none(), st.frozensets(
        st.sampled_from(cpus), min_size=1))
    shape = data.draw(st.sampled_from(["idle", "busy", "mixed"]))
    if shape == "busy":
        # every cpu holds a spinner of its own
        for cpu in cpus:
            eng.spawn(ThreadSpec(f"pin{cpu}", spin,
                                 affinity=frozenset({cpu}), app="pinned"))
    if shape != "idle":
        for i in range(data.draw(st.integers(0, 2 * ncpus))):
            eng.spawn(ThreadSpec(
                f"w{i}", data.draw(st.sampled_from([spin, _napper])),
                nice=data.draw(st.sampled_from([-5, 0, 0, 5, 19])),
                affinity=data.draw(masks),
                app=data.draw(st.sampled_from([None, "a", "b"]))))
    probe = eng.spawn(ThreadSpec("probe", _dormant))
    eng.run(until=msec(data.draw(st.integers(1, 60))))
    if data.draw(st.booleans()):
        eng.offline_core(data.draw(st.sampled_from(cpus)))
    probe.affinity = data.draw(masks)

    want = _oracle_fork_cpu(sched, probe)
    assert select_task_rq_fair(sched, probe, True, None) == want


def test_fork_load_tie_breaks_on_queued_threads():
    """cpus 0 and 1 tie at the least load -- one saturated spinner
    each, plus a fresh fork (zero PELT load) on cpu 0 -- while cpu 2
    carries two spinners: a fork goes to cpu 1, the tied cpu with
    fewer queued threads, as the oracle says."""
    eng = Engine(smp(3), scheduler_factory("cfs"), seed=13)
    sched = eng.scheduler
    for name, cpu in (("a", 0), ("b", 1), ("c", 2), ("d", 2)):
        eng.spawn(ThreadSpec(name, spin, affinity=frozenset({cpu})))
    probe = eng.spawn(ThreadSpec("probe", _dormant))
    eng.run(until=sec(2))
    eng.spawn(ThreadSpec("fresh", spin, affinity=frozenset({0})))
    loads = [_oracle_load(sched, cpu) for cpu in range(3)]
    assert loads[0] == loads[1] < loads[2]
    assert select_task_rq_fair(sched, probe, True, None) == 1
    assert _oracle_fork_cpu(sched, probe) == 1
