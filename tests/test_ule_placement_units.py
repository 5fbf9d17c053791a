"""Unit tests for ULE's sched_pickcpu decision ladder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Engine, Run, Sleep, ThreadSpec, run_forever
from repro.core.clock import msec, sec, usec
from repro.core.schedflags import SelectFlags
from repro.core.topology import smp
from repro.sched import scheduler_factory
from repro.ule.placement import _search_lowpri, sched_pickcpu


def spin(ctx):
    yield run_forever()


def make_engine(ncpus=4, **kw):
    return Engine(smp(ncpus), scheduler_factory("ule", **kw), seed=91)


def test_affine_placement_returns_home_when_prompt():
    """A recently-run thread whose home core would run it promptly is
    placed back there (step 1 of §2.2's ladder)."""
    eng = make_engine()

    def napper(ctx):
        while True:
            yield Run(msec(1))
            yield Sleep(msec(2))

    t = eng.spawn(ThreadSpec("nap", napper))
    eng.run(until=msec(200))
    home = t.cpu
    cpu = eng.scheduler.select_task_rq(t, SelectFlags.WAKEUP)
    assert cpu == home


def test_affinity_window_expires():
    """A thread that has not run for longer than the affinity window
    is placed by the load search instead."""
    eng = make_engine()

    def one_shot(ctx):
        yield Run(msec(1))
        yield Sleep(sec(5))  # sleeps past the 500 ms affinity window
        yield Run(msec(1))

    t = eng.spawn(ThreadSpec("cold", one_shot))
    # load up the thread's home core so the fallback search avoids it
    eng.run(until=msec(50))
    home = t.cpu
    hogs = [eng.spawn(ThreadSpec(f"h{i}", spin,
                                 affinity=frozenset({home})))
            for i in range(3)]
    eng.run(until=sec(6))
    # woken cold: placed away from its crowded old home
    assert t.cpu != home


def test_lowpri_search_prefers_core_where_thread_runs_first():
    """Placement passes over a core whose running thread has *better*
    priority than the newcomer, choosing one where the newcomer would
    run first — even at equal load (§2.2's min-priority search)."""
    eng = make_engine(ncpus=2)
    # cpu0: a batch hog (bad priority ~56)
    hog = eng.spawn(ThreadSpec("hog", spin, affinity=frozenset({0}),
                               tags={"ule_history": (sec(4), 0)}))
    # cpu1: a *running* strongly-interactive spinner (priority ~10)
    svc = eng.spawn(ThreadSpec("svc", spin, affinity=frozenset({1}),
                               tags={"ule_history": (0, sec(4900) // 1000)}))
    eng.run(until=sec(1))
    assert svc.policy.interactive  # still inside its sleep credit
    # a mildly-interactive newcomer (priority ~ 24, worse than svc's
    # but better than the hog's): only cpu0 passes the lowpri test
    probe = eng.spawn(ThreadSpec(
        "probe", spin,
        tags={"ule_history": (sec(1), sec(1) + sec(1) // 10)}))
    eng.run(until=sec(1) + msec(1))
    hog_pri = hog.policy.priority
    svc_pri = svc.policy.priority
    probe_pri = probe.policy.priority
    assert svc_pri < probe_pri < hog_pri
    assert probe.rq_cpu == 0


def test_pickcpu_scan_cost_scales_with_cores():
    from repro.experiments.base import make_engine as mk
    costs = {}
    for ncpus in (4, 16):
        eng = mk("ule", ncpus=ncpus, seed=1,
                 pickcpu_scan_cost_ns=usec(1))

        def sleeper(ctx):
            for _ in range(200):
                yield Run(msec(1))
                yield Sleep(msec(3))

        for i in range(ncpus):
            eng.spawn(ThreadSpec(f"s{i}", sleeper))
        eng.run(until=sec(2))
        wakeups = max(1.0, eng.metrics.counter("ule.pickcpu_scans"))
        costs[ncpus] = eng.metrics.counter("sched.overhead_ns")
    # more cores -> more scanning work overall
    assert costs[16] > costs[4]


def test_fork_balances_by_thread_count_not_load():
    """ULE forks onto the core with the fewest threads even when PELT
    would say otherwise ('ULE simply picks the core with the lowest
    number of running threads')."""
    eng = make_engine(ncpus=2)
    # cpu0 runs one long-established hog; cpu1 runs two fresh ones
    eng.spawn(ThreadSpec("old", spin, affinity=frozenset({0})))
    eng.run(until=sec(1))
    for i in range(2):
        eng.spawn(ThreadSpec(f"new{i}", spin, affinity=frozenset({1})))
    eng.run(until=sec(1) + msec(10))
    t = eng.spawn(ThreadSpec("fork", spin))
    eng.run(until=sec(1) + msec(50))
    assert t.rq_cpu == 0  # fewer threads, despite the older hog


# ----------------------------------------------------------------------
# sched_pickcpu against a brute-force oracle
# ----------------------------------------------------------------------

def _oracle_lowest_priority(tdq):
    """The best priority on ``tdq`` as a plain ``min`` over every
    queued thread (calendar threads at their bucket's distance from
    the removal index) and the running one."""
    tun = tdq.tunables
    cal = tdq.timeshare
    prios = [tun.nqueues]
    prios += [t.policy.queued_priority for t in tdq.realtime.threads()]
    prios += [tun.batch_prio_min
              + (cal._bucket_of[t.tid] - cal.remove_idx) % cal.nbuckets
              for t in cal.threads()]
    if tdq.core.current is not None:
        prios.append(tdq.core.current.policy.priority)
    return min(prios)


def _oracle_pickcpu(sched, thread):
    """§2.2's ladder written out step by step, each search a ``min``
    over the cpus that pass; returns (choice, cores scanned)."""
    tun = sched.tunables
    machine = sched.machine
    tdqs = sched.tdqs()
    allowed = [c for c in range(len(machine))
               if thread.allows_cpu(c) and machine.cores[c].online]
    allowed = allowed or machine.online_cpus()
    if len(allowed) == 1:
        return allowed[0], 0
    now, last, pri = sched.engine.now, thread.cpu, thread.policy.priority

    def search(cpus):
        ok = [c for c in cpus if _oracle_lowest_priority(tdqs[c]) > pri]
        return min(ok, key=lambda c: (tdqs[c].load, c)) if ok else None

    choice, scanned = None, 0
    if (last is not None and last in allowed
            and now - thread.last_ran < tun.affinity_ns):
        scanned += 1
        if _oracle_lowest_priority(tdqs[last]) > pri:
            choice = last
    if choice is None and last is not None:
        for idx, (_, _, cpus) in enumerate(
                sched.topology.levels_above_sorted(last)):
            if now - thread.last_ran < tun.affinity_ns * 2 ** idx:
                group = [c for c in cpus if c in allowed]
                if group:
                    choice = search(group)
                    scanned += len(group)
                break
    if choice is None:
        choice = search(allowed)
        scanned += len(allowed)
    if choice is None:
        scanned += len(allowed)
        choice = min(allowed, key=lambda c: (tdqs[c].load, c))
    return choice, scanned


#: (runtime, sleeptime) seeds: strongly interactive, mildly
#: interactive, batch, and no history
_HISTORIES = [(0, sec(4)), (sec(1), sec(1) + sec(1) // 10),
              (sec(4), 0), None]


def _napper(ctx):
    while True:
        yield Run(msec(3))
        yield Sleep(msec(2))


def _dormant(ctx):
    yield Sleep(sec(100))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_pickcpu_matches_oracle(data):
    """On random ULE states — per-cpu loads, realtime and timeshare
    threads at mixed priorities, running threads, affinity masks, one
    offlined core — ``sched_pickcpu``'s choice, ``ule.pickcpu_scans``
    and ``sched.overhead_ns`` equal the oracle's, and the scan's
    runs-first test on every tdq agrees with a plain min."""
    ncpus = data.draw(st.sampled_from([2, 4, 6, 8]))
    cpus = list(range(ncpus))
    cost = data.draw(st.integers(1, usec(5)))
    eng = Engine(smp(ncpus, cpus_per_llc=2), scheduler_factory(
        "ule", pickcpu_scan_cost_ns=cost), seed=data.draw(st.integers(0, 9)))
    sched = eng.scheduler
    masks = st.one_of(st.none(), st.frozensets(
        st.sampled_from(cpus), min_size=1))
    for i in range(data.draw(st.integers(0, 3 * ncpus))):
        history = data.draw(st.sampled_from(_HISTORIES))
        eng.spawn(ThreadSpec(
            f"w{i}", data.draw(st.sampled_from([spin, _napper])),
            affinity=data.draw(masks),
            tags={} if history is None else {"ule_history": history}))
    probe = eng.spawn(ThreadSpec("probe", _dormant))
    eng.run(until=msec(data.draw(st.integers(1, 40))))
    if data.draw(st.booleans()):
        eng.offline_core(data.draw(st.sampled_from(cpus)))

    for cpu, tdq in enumerate(sched.tdqs()):
        best = _oracle_lowest_priority(tdq)
        for pri in sorted({0, max(best - 1, 0), best,
                           sched.tunables.nqueues}):
            runs_first = _search_lowpri(sched, (cpu,), pri)[0] == cpu
            assert runs_first == (best > pri)

    aff = sched.tunables.affinity_ns
    probe.cpu = data.draw(st.one_of(st.none(), st.sampled_from(cpus)))
    probe.last_ran = eng.now - data.draw(st.sampled_from(
        [0, aff - 1, aff, 2 * aff - 1, 2 * aff, 4 * aff - 1, 4 * aff]))
    probe.affinity = data.draw(masks)
    probe.policy.priority = data.draw(st.integers(0, 63))

    _assert_pickcpu_matches_oracle(eng, probe, cost)


def _assert_pickcpu_matches_oracle(eng, probe, cost):
    """``sched_pickcpu``'s choice and its billed scan (``scanned``
    cores, ``cost`` ns each) equal the oracle's; returns both."""
    sched = eng.scheduler
    want, scanned = _oracle_pickcpu(sched, probe)
    scans = eng.metrics.counter("ule.pickcpu_scans")
    overhead = eng.metrics.counter("sched.overhead_ns")
    assert sched_pickcpu(sched, probe, None) == want
    assert eng.metrics.counter("ule.pickcpu_scans") - scans == scanned
    assert (eng.metrics.counter("sched.overhead_ns") - overhead
            == scanned * cost)
    return want, scanned


def test_fork_takes_lowest_idle_cpu():
    """A fresh unrestricted thread on a machine with idle cpus takes
    the lowest-numbered idle one, billed as a full machine scan (the
    idle-mask answer of step 3)."""
    eng, probe = _engine_with_sleeping_probe()
    for cpu in (0, 1, 2, 4, 6):
        eng.spawn(ThreadSpec(f"pin{cpu}", spin, affinity=frozenset({cpu})))
    eng.run(until=msec(5))
    probe.cpu = None
    for pri in (0, 40, 63):
        probe.policy.priority = pri
        assert _assert_pickcpu_matches_oracle(eng, probe, usec(1)) == (3, 8)


def test_busy_machine_where_no_cpu_qualifies():
    """Every cpu runs a thread at a better priority than the
    newcomer's: the search finds no cpu it would run first on, falls
    back to the least-loaded one, and bills the rescan (2 x cores)."""
    eng, probe = _engine_with_sleeping_probe()
    for cpu in range(8):
        for i in range(1 if cpu == 5 else 2):
            eng.spawn(ThreadSpec(f"pin{cpu}.{i}", spin,
                                 affinity=frozenset({cpu}),
                                 tags={"ule_history": _HISTORIES[0]}))
    eng.run(until=msec(5))
    assert eng.scheduler._idle_mask == 0
    probe.cpu = None
    probe.policy.priority = 63
    assert _assert_pickcpu_matches_oracle(eng, probe, usec(1)) == (5, 16)


def _engine_with_sleeping_probe():
    """An 8-cpu ULE engine billing 1 us per scanned core, and a probe
    thread that has already gone to sleep (so it loads no cpu)."""
    eng = Engine(smp(8, cpus_per_llc=2), scheduler_factory(
        "ule", pickcpu_scan_cost_ns=usec(1)), seed=3)
    probe = eng.spawn(ThreadSpec("probe", _dormant))
    eng.run(until=msec(1))
    assert probe.rq_cpu is None
    return eng, probe
