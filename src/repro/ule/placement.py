"""ULE thread placement: ``sched_pickcpu`` (§2.2).

The paper's description, implemented literally:

1. if the thread is cache-affine to the core it last ran on (it ran
   there recently) and would run promptly there, it is placed there;
2. otherwise ULE finds the highest topology level that is still
   affine, and searches it for a core whose minimum priority is worse
   than the thread's (so the thread would run immediately);
3. failing that, the same search over all cores of the machine;
4. failing that, the core with the lowest number of running threads.

Each core examined costs ``pickcpu_scan_cost_ns`` of CPU time, charged
to the core performing the wakeup — §6.3 measures this cost at 13 % of
all cycles for sysbench ("at worst, may scan all cores three times"),
and validates it by replacing the function with "return the previous
CPU" (``pickcpu_simple``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.thread import SimThread
    from .core import UleScheduler


def sched_pickcpu(sched: "UleScheduler", thread: "SimThread",
                  waker: Optional["SimThread"]) -> int:
    """Choose the CPU for a new or waking thread (see module doc).

    Offline (hotplugged-away) CPUs are excluded throughout — FreeBSD
    masks the scan with the online CPU set; a mask with no online CPU
    falls back to the whole online machine (the engine breaks affinity
    on the drain path the same way).

    The ``scanned`` count billed to ``ule.pickcpu_scans`` and
    ``sched.overhead_ns`` is the *model's* cost: the cores the
    kernel's scan examines.  The simulator may reach the same answer
    without visiting them: step 3 of an unrestricted thread on a fully
    online machine reads the lowest idle cpu off
    ``UleScheduler._idle_mask`` and is billed the full pass.
    """
    tun = sched.tunables
    machine = sched.machine
    ncpus = len(machine)
    if thread.affinity is None and machine.nr_offline == 0:
        # Unrestricted thread on a fully online machine: the filter
        # below would pass every cpu — reuse one shared ascending list.
        allowed = _all_cpus(sched, ncpus)
        unrestricted = True
    else:
        cores = machine.cores
        allowed = [c for c in range(ncpus)
                   if thread.allows_cpu(c) and cores[c].online]
        if not allowed:
            allowed = machine.online_cpus()
        unrestricted = False
    if len(allowed) == 1:
        return allowed[0]
    if tun.pickcpu_simple:
        # The paper's validation experiment: previous CPU, no scan.
        prev = thread.cpu
        return prev if prev is not None and prev in allowed else allowed[0]

    now = sched.engine.now
    last = thread.cpu
    scanned = 0
    pri = thread.policy.priority
    choice = None

    # 1. cache affinity on the last core.
    if last is not None and (unrestricted or last in allowed):
        if now - thread.last_ran < tun.affinity_ns:
            scanned += 1
            choice = _search_lowpri(sched, (last,), pri)[0]

    if choice is None and last is not None:
        # 2. the highest affine topology level around the last core.
        affine_group = None
        for idx, (_, group, cpus) in enumerate(
                sched.topology.levels_above_sorted(last)):
            window = tun.affinity_ns * (2 ** idx)
            if now - thread.last_ran < window:
                affine_group = (cpus if unrestricted else
                                [c for c in cpus if c in allowed])
                break
        if affine_group:
            choice = _search_lowpri(sched, affine_group, pri)[0]
            scanned += len(affine_group)

    if choice is None:
        # 3. retry over the whole machine; 4. failing that, the least
        # loaded core, found by the same pass (and billed as a rescan).
        scanned += len(allowed)
        idle = sched._idle_mask
        if unrestricted and idle and pri < tun.nqueues:
            # The pass would stop at the lowest-numbered idle cpu: an
            # idle tdq's best priority is ``nqueues`` and no load
            # beats 0.  Billed as the full pass all the same.
            choice = (idle & -idle).bit_length() - 1
        else:
            choice, least = _search_lowpri(sched, allowed, pri)
            if choice is None:
                scanned += len(allowed)
                choice = least

    _charge_scan(sched, thread, waker, scanned)
    return choice


def _all_cpus(sched: "UleScheduler", ncpus: int) -> list:
    """The shared ascending cpu list (never mutated by the scan)."""
    cpus = getattr(sched, "_pickcpu_all", None)
    if cpus is None or len(cpus) != ncpus:
        cpus = sched._pickcpu_all = list(range(ncpus))
    return cpus


def _search_lowpri(sched: "UleScheduler", cpus, pri: int):
    """One pass over ``cpus``: the least-loaded CPU whose best queued
    priority is worse than ``pri`` (i.e. the thread would run
    immediately), and the least-loaded CPU overall; ties go to the
    first in ``cpus`` order.

    A tdq's best priority is the lowest of its realtime queue's first,
    its calendar's first (offset into the batch band) and its running
    thread's, and ``nqueues`` when it holds nothing (load 0).  It is
    never worse than ``nqueues``: a calendar thread far round the
    circle sits past the batch band's end, but no further back than an
    empty tdq.  So at ``pri >= nqueues`` no CPU qualifies, and the pass
    only looks for the least-loaded one.  Otherwise the test stops at
    the first of them at or better than ``pri``, so a busy cpu is
    usually ruled out by its running thread alone.

    A CPU whose load cannot beat the best qualifying one skips the
    priority test, and a qualifying empty CPU ends the pass — nothing
    beats load 0 (the overall answer is then unused)."""
    tdqs = sched.tdqs()
    tun = sched.tunables
    if pri >= tun.nqueues:
        return None, min(cpus, key=lambda cpu: tdqs[cpu].load,
                         default=None)
    # realtime priorities at or better than ``pri``: bits 0..pri
    rt_blocks = (2 << pri) - 1
    # a calendar thread sits in the batch band, so it can only be at
    # or better than a batch ``pri``
    batch_min = tun.batch_prio_min
    batch_blocks = pri >= batch_min
    found = found_load = least = least_load = None
    for cpu in cpus:
        tdq = tdqs[cpu]
        load = tdq.load
        if least is None or load < least_load:
            least, least_load = cpu, load
        if found is not None and load >= found_load:
            continue
        if load == 0:
            found = cpu
            break
        curr = tdq.core.current
        if curr is not None and curr.policy.priority <= pri:
            continue
        if tdq.realtime.bitmap & rt_blocks:
            continue
        if batch_blocks:
            queue = tdq.timeshare
            if queue.count and batch_min + queue.first_priority() <= pri:
                continue
        found, found_load = cpu, load
    return found, least


def _charge_scan(sched: "UleScheduler", thread: "SimThread",
                 waker: Optional["SimThread"], scanned: int) -> None:
    """Bill the wakeup-path CPU for the cores it examined."""
    cost = sched.tunables.pickcpu_scan_cost_ns * scanned
    if cost <= 0:
        return
    if waker is not None and waker.is_running and waker.cpu is not None:
        cpu = waker.cpu
    elif thread.cpu is not None:
        cpu = thread.cpu
    else:
        cpu = 0
    sched.engine.metrics.incr("ule.pickcpu_scans", scanned)
    sched.engine.charge_overhead(cpu, cost)
