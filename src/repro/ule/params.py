"""ULE tunables (FreeBSD 11.1 defaults, as the paper describes them).

* interactivity scaling factor ``m = 50``, threshold 30;
* 5 seconds of sleep/run history with the ``sched_interact_update``
  decay;
* timeslice of 10 stathz ticks (~78 ms) divided by the number of
  runnable threads, floored at 1 tick (~7.9 ms);
* full preemption disabled (only "kernel-priority" wakeups preempt);
* periodic balancing by core 0 every 0.5–1.5 s (uniformly random),
  moving at most one thread per donor/receiver pair;
* idle stealing of at most one thread, walking up the topology;
* a modelled per-core scan cost for ``sched_pickcpu`` (§6.3 measures
  it at up to 13 % of CPU cycles for sysbench).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.clock import FREEBSD_TICK_NSEC, msec, sec, usec


@dataclass
class UleTunables:
    """All ULE knobs in one place (ablation benches vary these)."""

    #: interactivity scaling factor (SCHED_INTERACT_HALF)
    interact_half: int = 50
    #: maximum interactivity penalty
    interact_max: int = 100
    #: score at or below which a thread is interactive
    interact_thresh: int = 30
    #: sleep + run history ceiling (SCHED_SLP_RUN_MAX), 5 s
    slp_run_max_ns: int = sec(5)
    #: stathz tick length
    tick_ns: int = FREEBSD_TICK_NSEC
    #: base timeslice in stathz ticks ("10 ticks (78ms)")
    slice_ticks: int = 10
    #: minimum timeslice in ticks
    slice_min_ticks: int = 1
    #: threads sharing a core before the slice divides
    slice_threshold: int = 1
    #: periodic balancer interval bounds (chosen randomly each round)
    balance_min_ns: int = msec(500)
    balance_max_ns: int = msec(1500)
    #: enable the periodic balancer (the FreeBSD bug [1] disabled it;
    #: the authors fixed it, so it defaults to on)
    balance_enabled: bool = True
    #: a victim must have at least this many runnable threads to be
    #: stolen from (steal_thresh)
    steal_thresh: int = 2
    #: how recently a thread must have run on a CPU to be considered
    #: cache-affine to it
    affinity_ns: int = msec(500)
    #: modelled CPU cost of examining one core in sched_pickcpu
    pickcpu_scan_cost_ns: int = usec(0)
    #: replace sched_pickcpu by "previous CPU" (the §6.3 validation
    #: experiment)
    pickcpu_simple: bool = False
    #: FreeBSD's sched_shouldpreempt remote rule: an *interactive*
    #: thread placed on a remote core running a *batch* thread preempts
    #: it (tdq_notify IPI path).  Local wakeups never preempt user
    #: threads — the behaviour the paper describes in §5.3/§6.4.
    remote_interactive_preempt: bool = True
    #: number of runq priority levels
    nqueues: int = 64
    #: interactive priorities occupy [0, interact_prio_max]
    interact_prio_max: int = 29
    #: batch priorities occupy [batch_prio_min, nqueues - 1]
    batch_prio_min: int = 30

    def __post_init__(self) -> None:
        #: :meth:`slice_for_load` by load, for the stathz tick to index
        #: without a call; every load past the end gets the last entry,
        #: ``slice_min_ticks`` (a ticking core has load >= 1)
        top = max(self.slice_ticks, self.slice_threshold) + 1
        self.slice_table = (self.slice_ticks,) + tuple(
            self.slice_for_load(load) for load in range(1, top + 1))

    @property
    def slice_ns(self) -> int:
        return self.slice_ticks * self.tick_ns

    def slice_for_load(self, load: int) -> int:
        """Timeslice in ticks for a core running ``load`` threads:
        10 ticks for one thread, divided by the count otherwise,
        floored at one tick."""
        if load <= self.slice_threshold:
            return self.slice_ticks
        return max(self.slice_min_ticks, self.slice_ticks // load)
