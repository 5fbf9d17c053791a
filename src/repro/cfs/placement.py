"""Thread placement: ``select_task_rq_fair``.

The paper (§2.1) describes the two regimes CFS distinguishes on
wakeup:

* **1-to-1 communication** — the woken thread is kept close to the
  waker: the candidate set is the waker's LLC (plus the wakee's
  previous CPU), and an idle sibling is preferred.
* **1-to-many producer/consumer** — a waker that wakes many distinct
  threads spreads its wakees machine-wide onto the least loaded CPU.

The regime is detected with the kernel's ``wake_wide`` heuristic on
decaying *wakee-flip* counters.  Forked threads always take the slow
path (machine-wide idlest CPU).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..core.clock import NSEC_PER_SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.thread import SimThread
    from .core import CfsScheduler

_H_NR_RUNNING = attrgetter("h_nr_running")


def record_wakee(waker_state, wakee: "SimThread", now: int) -> None:
    """Update the waker's wakee-flip counter (decays by half every
    second, increments when the wakee changes)."""
    if now - waker_state.wakee_flip_ts > NSEC_PER_SEC:
        waker_state.wakee_flips //= 2
        waker_state.wakee_flip_ts = now
    if waker_state.last_wakee is not wakee:
        waker_state.last_wakee = wakee
        waker_state.wakee_flips += 1


def wake_wide(sched: "CfsScheduler", waker: "SimThread",
              wakee: "SimThread") -> bool:
    """The kernel's 1-to-many detector: compare master/slave flip
    counts against the LLC size."""
    factor = len(sched.topology.llc_of(waker.cpu or 0))
    master = sched.state_of(waker).wakee_flips
    slave = sched.state_of(wakee).wakee_flips
    if master < slave:
        master, slave = slave, master
    if slave < factor or master < slave * factor:
        return False
    return True


def select_task_rq_fair(sched: "CfsScheduler", thread: "SimThread",
                        is_fork: bool,
                        waker: Optional["SimThread"]) -> int:
    """Choose a CPU for a forked or waking thread.

    Offline (hotplugged-away) CPUs are excluded from the candidate
    set, like the kernel masking with ``cpu_active_mask``; a mask with
    no online CPU falls back to the whole online machine (the engine's
    ``_constrain_cpu`` breaks affinity the same way).
    """
    machine = sched.machine
    cores = machine.cores
    if thread.affinity is None and machine.nr_offline == 0:
        allowed = range(len(cores))
        if is_fork:
            # An empty cpu's key (0.0, 0, cpu) is the least possible,
            # so the slow path's answer is the first empty cpu.
            weights = sched.runnable_weight
            if 0 in weights:
                return weights.index(0)
    else:
        allowed = [c for c in range(len(cores))
                   if thread.allows_cpu(c) and cores[c].online]
        if not allowed:
            allowed = machine.online_cpus()
    if len(allowed) == 1:
        return allowed[0]
    prev_cpu = thread.cpu if thread.cpu is not None else allowed[0]
    if not cores[prev_cpu].online:
        prev_cpu = allowed[0]

    if is_fork:
        # Forks take the slow path: the idlest CPU machine-wide
        # (SD_BALANCE_FORK).
        return find_idlest_cpu(sched, allowed)

    # Wakeups never search globally in Linux 4.9 (SD_BALANCE_WAKE is
    # off): the candidate set is the LLC around either the waker's CPU
    # (1-to-1 pattern) or the thread's previous CPU (1-to-many), which
    # is how micro load (a kernel thread occupying the previous CPU)
    # can bounce a woken thread onto a sibling that already has a
    # runnable thread — the paper's MG misplacement (§6.3).
    target = prev_cpu
    if waker is not None and waker.cpu is not None:
        record_wakee(sched.state_of(waker), thread, sched.engine.now)
        if not wake_wide(sched, waker, thread):
            waker_cpu = waker.cpu
            if waker_cpu in allowed and \
                    sched.cpu_load(waker_cpu) <= sched.cpu_load(prev_cpu):
                target = waker_cpu
    return select_idle_sibling(sched, thread, target, allowed)


def _cpu_is_idle(sched: "CfsScheduler", cpu: int) -> bool:
    """The kernel's ``idle_cpu()``: nothing running *or queued*."""
    return sched.nr_runnable(sched.machine.cores[cpu]) == 0


def select_idle_sibling(sched: "CfsScheduler", thread: "SimThread",
                        target: int, allowed: Iterable[int]) -> int:
    """Prefer an idle CPU sharing a cache with ``target``."""
    allowed = set(allowed)
    if target in allowed and _cpu_is_idle(sched, target):
        return target
    prev = thread.cpu
    if (prev is not None and prev in allowed
            and _cpu_is_idle(sched, prev)
            and sched.topology.shares_llc(prev, target)):
        return prev
    for cpu in sorted(sched.topology.llc_of(target)):
        if cpu in allowed and _cpu_is_idle(sched, cpu):
            return cpu
    if target in allowed:
        return target
    return find_idlest_cpu(sched, sorted(allowed))


def find_idlest_cpu(sched: "CfsScheduler", allowed: Sequence[int]) -> int:
    """The slow path: the allowed CPU with the smallest load, breaking
    ties by queued-thread count (fresh forks all have zero PELT load,
    so pure load comparison would pile them onto one CPU), then by
    the lower cpu number.

    The answer is the minimum of ``(cpu_load, h_nr_running, cpu)``.
    The kernel finds it by walking the domains group by group, a cost
    the model does not bill; the simulator's own cost is the host's.
    Over every cpu it uses C-level ``min``/``count``/``index`` on the
    ``loads_for`` memo list (then complete) and reads ``h_nr_running``
    only of the cpus tied at the least load.  An unrestricted fork
    never gets here while a cpu is empty: ``select_task_rq_fair``
    answers with the first cpu whose ``runnable_weight`` is 0."""
    loads = sched.loads_for(allowed)
    rqs = sched.root_group.cfs_rqs
    if len(allowed) == len(loads):
        least = min(loads)
        ties = loads.count(least)
        if ties == len(loads):
            # every cpu ties on load: the fewest queued threads wins
            queued = list(map(_H_NR_RUNNING, rqs))
            return queued.index(min(queued))
        # visit only the cpus tied at the minimum, in ascending order
        best = cpu = loads.index(least)
        best_nr = rqs[cpu].h_nr_running
        for _ in range(ties - 1):
            cpu = loads.index(least, cpu + 1)
            nr = rqs[cpu].h_nr_running
            if nr < best_nr:
                best, best_nr = cpu, nr
        return best
    best = min(((loads[cpu], rqs[cpu].h_nr_running, cpu)
                for cpu in allowed), default=None)
    return best[2] if best is not None else 0
