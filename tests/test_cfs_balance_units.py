"""Unit-level tests for the CFS balancing gates."""

import pytest

from repro.cfs.balance import (MEMO_HORIZON_NS, can_migrate_task,
                                load_balance)
from repro.core import Engine, Run, Sleep, ThreadSpec, run_forever
from repro.core.clock import msec, sec, usec
from repro.core.topology import opteron_6172, smp
from repro.sched import scheduler_factory
from repro.tracing.digest import schedule_digest
from repro.workloads import SpinnerWorkload


def spin(ctx):
    yield run_forever()


def make_engine(ncpus=4, **kw):
    topo = opteron_6172() if ncpus == 32 else smp(ncpus)
    return Engine(topo, scheduler_factory("cfs", **kw), seed=51)


def pinned_spinners(eng, count, cpu):
    return [eng.spawn(ThreadSpec(f"p{cpu}-{i}", spin, app="app",
                                 affinity=frozenset({cpu})))
            for i in range(count)]


def test_can_migrate_rejects_running_and_affinity():
    eng = make_engine(ncpus=2)
    a = eng.spawn(ThreadSpec("a", spin, affinity=frozenset({0})))
    b = eng.spawn(ThreadSpec("b", spin, affinity=frozenset({0})))
    eng.run(until=msec(20))
    running = a if a.is_running else b
    queued = b if running is a else a
    sched = eng.scheduler
    assert not can_migrate_task(sched, running, 1, None)
    # queued thread is pinned to cpu 0: cannot go to 1
    assert not can_migrate_task(sched, queued, 1, None)
    eng.set_affinity(queued, None)
    # cache hot right after running? it never ran; allow
    assert can_migrate_task(sched, queued, 1, None)


def test_cache_hot_blocks_until_failures():
    eng = make_engine(ncpus=2)
    a = eng.spawn(ThreadSpec("a", spin))
    eng.run(until=msec(10))
    sched = eng.scheduler
    domain = sched.cpurq(eng.machine.cores[1]).domains[0]
    # simulate: thread ran very recently
    a.last_ran = eng.now
    a.state = a.state  # no-op; just clarity
    # while running it's excluded anyway; test the hot window on a
    # queued clone
    b = eng.spawn(ThreadSpec("b", spin, affinity=frozenset({0})))
    eng.run(until=msec(12))
    eng.set_affinity(b, None)
    queued = b if not b.is_running else a
    queued.last_ran = eng.now
    domain.nr_balance_failed = 0
    assert not can_migrate_task(sched, queued, 1, domain)
    domain.nr_balance_failed = 5
    assert can_migrate_task(sched, queued, 1, domain)


def test_imbalance_within_threshold_not_balanced():
    """5 vs 4 equal spinners inside an LLC (117% threshold ~ 1.17 <
    5/4=1.25... but moving would invert): the anti-ping-pong rule
    leaves it alone."""
    eng = make_engine(ncpus=2)
    pinned_spinners(eng, 3, 0)
    pinned_spinners(eng, 2, 1)
    eng.run(until=msec(50))
    for t in eng.threads:
        eng.set_affinity(t, None)
    eng.run(until=sec(2))
    counts = sorted(eng.nr_runnable_on(c) for c in range(2))
    assert counts == [2, 3]


def test_numa_threshold_gates_cross_node_moves():
    """Across NUMA nodes a 25% imbalance persists (the threshold)."""
    eng = make_engine(ncpus=32)
    # node 0 carries 5 spinners/core, the other three nodes 4/core:
    # node ratio 1.25 sits exactly at the tolerance
    for cpu in range(8):
        pinned_spinners(eng, 5, cpu)
    for cpu in range(8, 32):
        pinned_spinners(eng, 4, cpu)
    eng.run(until=msec(50))
    for t in eng.threads:
        eng.set_affinity(t, None)
    eng.run(until=sec(3))
    node0 = sum(eng.nr_runnable_on(c) for c in range(8))
    assert node0 == 40
    for node in range(1, 4):
        total = sum(eng.nr_runnable_on(c)
                    for c in range(8 * node, 8 * node + 8))
        assert total == 32


def test_big_numa_imbalance_is_balanced():
    eng = make_engine(ncpus=32)
    for cpu in range(8):
        pinned_spinners(eng, 8, cpu)  # node0: 64 threads
    eng.run(until=msec(50))
    for t in eng.threads:
        eng.set_affinity(t, None)
    eng.run(until=sec(5))
    node0 = sum(eng.nr_runnable_on(c) for c in range(8))
    # 64 threads over 4 nodes: node0 ends near 16-24 (within the
    # 25% tolerance of 16), far below 64
    assert node0 < 32


def test_newidle_pull_happens_immediately():
    """A core that *becomes* idle pulls work in its very next pick —
    long before the lazy idle-periodic balancing would."""
    eng = make_engine(ncpus=2)
    a = eng.spawn(ThreadSpec("a", lambda ctx: iter([Run(msec(10))]),
                             app="app", affinity=frozenset({1})))
    b = eng.spawn(ThreadSpec("b", spin, app="app",
                             affinity=frozenset({0})))
    c = eng.spawn(ThreadSpec("c", spin, app="app",
                             affinity=frozenset({0})))
    eng.run(until=msec(5))
    eng.set_affinity(b, None)
    eng.set_affinity(c, None)
    # 'a' exits at 10 ms; cpu1's pick runs newidle and steals b or c
    eng.run(until=msec(12))
    counts = [eng.nr_runnable_on(i) for i in range(2)]
    assert counts == [1, 1]
    assert eng.metrics.counter("cfs.newidle_calls") > 0


def _spinner_engine(per_cpu, until):
    """Two cpus, ``per_cpu[i]`` spinners pinned to cpu i, run to
    ``until``."""
    eng = make_engine(ncpus=2)
    threads = []
    for cpu, count in enumerate(per_cpu):
        threads += pinned_spinners(eng, count, cpu)
    eng.run(until=until)
    return eng, threads


def _fold_calls(sched, monkeypatch):
    """Record the cpu sets ``sched.loads_for`` is asked to fold."""
    calls = []
    real = sched.loads_for

    def recording(cpus):
        calls.append(frozenset(cpus))
        return real(cpus)

    monkeypatch.setattr(sched, "loads_for", recording)
    return calls


def test_weight_bound_skips_balanced_pass(monkeypatch):
    """2 vs 2 saturated spinners: the remote cpu's runnable weight
    (2048) cannot clear the 117% gate against the local group's
    projected load, so the pass returns without folding anything."""
    eng, _ = _spinner_engine((2, 2), msec(300))
    sched = eng.scheduler
    core = eng.machine.cores[0]
    domain = sched.cpurq(core).domains[0]
    domain.nr_balance_failed = 3
    calls = _fold_calls(sched, monkeypatch)
    assert load_balance(sched, core, domain, idle=False) == 0
    assert domain.nr_balance_failed == 0
    assert calls == []


def _group(sched, domain, cpus):
    """The shared :class:`GroupLoad` of ``domain``'s group ``cpus``."""
    for gid in domain.group_ids:
        group = sched.group_loads[gid]
        if group.cpus == frozenset(cpus):
            return group
    raise LookupError(cpus)


def test_pass_without_memo_folds_span(monkeypatch):
    """3 ms after spawn no pass has run yet, so no group has a memo:
    the remote weight (one nice-0 task, 1024) clears the bound against
    the local load of ~130, so the span is folded, the exact loads
    show nothing to move, and both groups are memoed."""
    eng, _ = _spinner_engine((2, 1), msec(3))
    sched = eng.scheduler
    core = eng.machine.cores[0]
    domain = sched.cpurq(core).domains[0]
    assert all(group.deficit is None for group in sched.group_loads)
    domain.nr_balance_failed = 3
    calls = _fold_calls(sched, monkeypatch)
    assert load_balance(sched, core, domain, idle=False) == 0
    assert domain.nr_balance_failed == 0
    assert calls == [frozenset({0}), domain.span]
    assert sched.cpu_load(1) < sched.cpu_load(0)
    for cpu in (0, 1):
        assert _group(sched, domain, {cpu}).t0 == eng.now
        assert _group(sched, domain, {cpu}).deficit is not None


def test_ramp_up_pass_proven_from_memos(monkeypatch):
    """5 ms after spawn PELT is still ramping, so the runnable weight
    alone proves nothing (1024 against a local load of ~210), but the
    memos cpu 0's 4 ms pass left project both loads: the pass returns
    without any fold."""
    eng, _ = _spinner_engine((2, 1), msec(5))
    sched = eng.scheduler
    core = eng.machine.cores[0]
    domain = sched.cpurq(core).domains[0]
    remote = _group(sched, domain, {1})
    assert remote.weight > sched.cpu_load(0)
    assert remote.t0 == msec(4)
    domain.nr_balance_failed = 3
    calls = _fold_calls(sched, monkeypatch)
    assert load_balance(sched, core, domain, idle=False) == 0
    assert domain.nr_balance_failed == 0
    assert calls == []


@pytest.mark.parametrize("change", ["enqueue", "dequeue", "renice"])
def test_runnable_change_drops_group_memo(change):
    """An enqueue, a dequeue or a renice on any cpu of a group drops
    the group's memo; groups not holding that cpu keep theirs."""
    eng = Engine(smp(4, cpus_per_llc=2), scheduler_factory("cfs"), seed=51)
    threads = {cpu: pinned_spinners(eng, 2, cpu) for cpu in range(4)}
    eng.run(until=msec(30))
    sched = eng.scheduler
    core = eng.machine.cores[0]
    machine = sched.cpurq(core).domains[-1]
    for group in sched.group_loads:
        group.deficit = None
    load_balance(sched, core, machine, idle=False)
    near = _group(sched, machine, {0, 1})
    far = _group(sched, machine, {2, 3})
    assert near.deficit is not None and far.deficit is not None
    queued = next(t for t in threads[2] if not t.is_running)
    if change == "enqueue":
        eng.spawn(ThreadSpec("new", spin, app="app",
                             affinity=frozenset({3})))
    elif change == "dequeue":
        # leaves cpu 2 (a dequeue is all that touches cpus 2-3) and is
        # enqueued on cpu 0, which drops the near memo too
        eng.set_affinity(queued, {0})
    else:
        eng.set_nice(queued, 5)
    assert far.deficit is None
    assert far.bounds(eng.now) is None
    assert (near.deficit is None) == (change == "dequeue")


def test_no_memo_in_the_instant_of_a_renice():
    """A renice leaves the cpu's per-instant load cache as it was, so a
    fold later in the same instant may read the pre-renice load: the
    group takes no memo until a later instant."""
    eng, threads = _spinner_engine((2, 1), msec(3))
    sched = eng.scheduler
    core = eng.machine.cores[0]
    domain = sched.cpurq(core).domains[0]
    load_balance(sched, core, domain, idle=False)
    local = _group(sched, domain, {0})
    assert local.deficit is not None
    eng.set_nice(threads[0], 5)
    load_balance(sched, core, domain, idle=False)
    assert local.deficit is None


def test_memo_older_than_horizon_is_ignored():
    eng, _ = _spinner_engine((2, 2), msec(20))
    group = eng.scheduler.group_loads[0]
    group.t0, group.deficit = eng.now, 0.0
    assert group.bounds(eng.now + MEMO_HORIZON_NS) is not None
    assert group.bounds(eng.now + MEMO_HORIZON_NS + 1) is None


def test_imbalanced_pass_migrates_as_before():
    """4 vs 1 spinners, unpinned: cpu1's pass pulls exactly one task
    (p0-0), the same move the pass made before the bound existed."""
    eng, threads = _spinner_engine((4, 1), msec(200))
    for thread in threads:
        eng.set_affinity(thread, None)
    sched = eng.scheduler
    core = eng.machine.cores[1]
    domain = sched.cpurq(core).domains[0]
    assert load_balance(sched, core, domain, idle=False) == 1
    assert domain.nr_balance_failed == 0
    assert [eng.nr_runnable_on(c) for c in range(2)] == [3, 2]
    assert sorted(t.name for t in sched.runnable_threads(core)) == \
        ["p0-0", "p1-0"]


def test_numa128_release_digest_pinned():
    """128 cores in 4 NUMA nodes: 256 spinners pinned to cpu 0, every
    7th reniced to +5 and all unpinned at 50 ms.  Hundreds of
    migrations across both domain levels, so any change to which
    passes move what shows in the digest."""
    eng = Engine(smp(128, cpus_per_llc=8, numa_nodes=4),
                 scheduler_factory("cfs"), seed=3)
    SpinnerWorkload(count=256, pin_cpu=0, unpin_at=msec(50)).launch(
        eng, at=0)
    eng.run(until=msec(50))
    for i, thread in enumerate(eng.threads):
        if i % 7 == 0:
            eng.set_nice(thread, 5)
    eng.run(until=msec(400))
    assert eng.metrics.counter("cfs.balance_migrations") == 654
    assert schedule_digest(eng) == "f19f091fb0a1f80d"
