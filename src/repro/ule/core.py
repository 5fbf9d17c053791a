"""The ULE scheduler, as ported to the Linux-style scheduler API.

Faithful to §2.2 and §3 of the paper:

* two runqueues per core — interactive threads get absolute priority
  over batch threads, which may starve unboundedly;
* the interactivity penalty over ~5 s of sleep/run history classifies
  threads; forked children inherit the parent's history, and a dying
  child's runtime is returned to the parent;
* timeslices of 10 stathz ticks (~78 ms) divided by the core's thread
  count (floor 1 tick, ~7.9 ms), expiring at the same rate regardless
  of priority;
* no full preemption: a wakeup never preempts a running user thread
  (the apache/ab and MySQL effects of §5.3 and §6.4);
* placement via ``sched_pickcpu`` with a modelled per-core scan cost;
* periodic balancing of thread *counts* by core 0 every 0.5–1.5 s,
  one migration per donor/receiver pair; idle cores steal at most one
  thread, walking up the topology.

Port deviations kept from §3: the running thread stays accounted to
its runqueue, and is never migrated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..core.schedflags import DequeueFlags, EnqueueFlags, SelectFlags
from ..core.thread import ThreadState
from ..sched.base import SchedClass
from . import balance, placement
from .interactivity import SleepRunHistory
from .params import UleTunables
from .priority import compute_priority
from .tdq import Tdq

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine
    from ..core.machine import Core
    from ..core.thread import SimThread


class UleThreadState:
    """Per-thread ULE state (``td_sched``), hangs off ``thread.policy``."""

    __slots__ = ("hist", "priority", "interactive", "prio_inputs",
                 "queued", "queued_interactive", "queued_priority",
                 "ticks_used")

    def __init__(self, hist: SleepRunHistory):
        self.hist = hist
        self.priority = 0
        self.interactive = True
        #: the ``(runtime, sleeptime, nice)`` that ``priority`` and
        #: ``interactive`` were computed from; every compute site sets
        #: it, so ``pick_next`` and ``enqueue_task`` skip the recompute
        #: when the inputs are unchanged
        self.prio_inputs: Optional[tuple] = None
        self.queued = False
        self.queued_interactive = True
        self.queued_priority = 0
        #: stathz ticks consumed since last picked (slice accounting)
        self.ticks_used = 0


# schedlint: ignore[missing-slots] -- one instance per engine; fault injection patches methods and attributes
class UleScheduler(SchedClass):
    """FreeBSD ULE (11.1-era behaviour, the paper's port)."""

    name = "ule"

    def __init__(self, engine: "Engine",
                 tunables: Optional[UleTunables] = None, **overrides):
        super().__init__(engine)
        self.tunables = tunables or UleTunables(**overrides)
        self.tick_ns = self.tunables.tick_ns
        self._started = False
        self._rng = engine.random.stream("ule.balance")
        #: CPU the in-flight wakeup executes on (waker's CPU, or the
        #: woken thread's old CPU for timer wakeups); consumed by
        #: check_preempt_wakeup to decide local vs remote.
        self._wake_origin = None
        #: number of tdqs at or above ``steal_thresh`` load — O(1)
        #: backing for :meth:`needs_tick`'s steal-poll superset
        self._nr_loaded = 0
        #: bitmask of the cpus whose tdq holds nothing (bit ``cpu`` set
        #: while ``tdq.load == 0``), kept beside ``_nr_loaded``; an
        #: unrestricted ``sched_pickcpu`` answers its machine-wide
        #: search from it while any cpu idles
        self._idle_mask = 0
        #: per-cpu tdq list (``core.rq`` is bound once at engine init
        #: and never replaced); built lazily on first use
        self._tdqs: Optional[list] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def init_core(self, core: "Core") -> Tdq:
        tdq = Tdq(core.index, self.tunables)
        tdq.core = core
        self._idle_mask |= 1 << core.index
        return tdq

    def tdq_of(self, cpu: int) -> Tdq:
        """The per-CPU ULE state of ``cpu``."""
        tdqs = self._tdqs
        if tdqs is None:
            tdqs = self.tdqs()
        return tdqs[cpu]

    def tdqs(self) -> list:
        """All per-CPU tdqs, indexed by cpu (hot paths index this list
        instead of chasing ``machine.cores[cpu].rq`` per lookup)."""
        tdqs = self._tdqs
        if tdqs is None:
            tdqs = self._tdqs = [core.rq for core in self.machine.cores]
        return tdqs

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.tunables.balance_enabled and len(self.machine) > 1:
            self._schedule_balance()

    def _schedule_balance(self) -> None:
        delay = self._rng.randint(self.tunables.balance_min_ns,
                                  self.tunables.balance_max_ns)
        self.engine.events.post(self.engine.now + delay,
                                self._periodic_balance, label="ule-lb")

    def _periodic_balance(self) -> None:
        balance.periodic_balance(self)
        self._schedule_balance()

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------

    def state_of(self, thread: "SimThread") -> UleThreadState:
        """The thread's ULE state (``thread.policy``)."""
        return thread.policy

    def interactivity_score(self, thread: "SimThread") -> int:
        """The classifier input: sleep/run penalty plus nice.

        Differential-oracle hook — the cached classification on the
        thread state must agree with this recomputed score at every
        observation point.
        """
        return self.state_of(thread).hist.score(thread.nice)

    def is_interactive(self, thread: "SimThread") -> bool:
        """Recompute the interactivity classification from history."""
        return self.state_of(thread).hist.is_interactive(thread.nice)

    def task_fork(self, parent: Optional["SimThread"],
                  child: "SimThread") -> None:
        if parent is not None and isinstance(parent.policy, UleThreadState):
            # "When a thread is created, it inherits the runtime and
            # sleeptime (and thus the interactivity) of its parent."
            hist = parent.policy.hist.copy()
        else:
            init = child.spec.tags.get("ule_history")
            if init is not None:
                run_ns, sleep_ns = init
            else:
                # Top-level processes spring from an interactive shell:
                # plenty of sleep history, no runtime (like bash).
                run_ns, sleep_ns = 0, self.tunables.slp_run_max_ns // 2
            hist = SleepRunHistory(self.tunables, run_ns, sleep_ns)
        state = UleThreadState(hist)
        child.policy = state
        self._update_priority(child)

    def task_dead(self, thread: "SimThread") -> None:
        # "When a thread dies, its runtime in the last 5 seconds is
        # returned to its parent" — penalizing interactive parents
        # that spawn batch children.
        parent = thread.parent
        if parent is not None and not parent.has_exited \
                and isinstance(parent.policy, UleThreadState):
            parent.policy.hist.absorb(thread.policy.hist)
            self._update_priority_queued(parent)

    def task_waking(self, thread: "SimThread", slept_ns: int) -> None:
        self.state_of(thread).hist.add_sleeptime(slept_ns)

    def task_nice_changed(self, thread: "SimThread") -> None:
        # The score (penalty + nice) may now cross the interactivity
        # threshold; recompute and requeue.
        self._update_priority_queued(thread)

    def _update_priority(self, thread: "SimThread") -> None:
        state = self.state_of(thread)
        hist = state.hist
        state.priority, state.interactive = compute_priority(
            self.tunables, hist, thread.nice)
        state.prio_inputs = hist.runtime, hist.sleeptime, thread.nice

    def _update_priority_queued(self, thread: "SimThread") -> None:
        """Recompute priority, requeueing if the thread sits in a FIFO."""
        state = self.state_of(thread)
        if state.queued and thread.rq_cpu is not None:
            tdq = self.tdq_of(thread.rq_cpu)
            tdq.rem(thread)
            self._update_priority(thread)
            tdq.add(thread)
        else:
            self._update_priority(thread)

    # ------------------------------------------------------------------
    # enqueue / dequeue (sched_add / sched_wakeup / sched_rem)
    # ------------------------------------------------------------------

    def enqueue_task(self, core: "Core", thread: "SimThread",
                     flags: EnqueueFlags) -> None:
        # _update_priority inlined (every wakeup/migration lands here);
        # a migrated or just-forked thread keeps its current priority
        state = thread.policy
        hist = state.hist
        inputs = hist.runtime, hist.sleeptime, thread.nice
        if inputs != state.prio_inputs:
            state.priority, state.interactive = compute_priority(
                self.tunables, hist, thread.nice)
            state.prio_inputs = inputs
        tdq: Tdq = core.rq
        tdq.add(thread)
        tdq.load += 1
        load = tdq.load
        if load == 1:
            self._idle_mask &= ~(1 << core.index)
        if load == self.tunables.steal_thresh:
            self._nr_loaded += 1

    def dequeue_task(self, core: "Core", thread: "SimThread",
                     flags: DequeueFlags) -> None:
        tdq: Tdq = core.rq
        state = self.state_of(thread)
        if state.queued:
            tdq.rem(thread)
        tdq.load -= 1
        load = tdq.load
        if load == 0:
            self._idle_mask |= 1 << core.index
        if load == self.tunables.steal_thresh - 1:
            self._nr_loaded -= 1

    # ------------------------------------------------------------------
    # picking (sched_choose)
    # ------------------------------------------------------------------

    def pick_next(self, core: "Core") -> Optional["SimThread"]:
        tdq: Tdq = core.rq
        prev = core.current
        if prev is None or prev.state is not ThreadState.RUNNING:
            nxt = tdq.choose()
            if nxt is None and balance.idle_steal(self, core) is not None:
                nxt = tdq.choose()
            if nxt is not None:
                nxt.policy.ticks_used = 0  # state_of, inlined
            return nxt
        # Put the incumbent back at the tail of its FIFO with a current
        # priority and choose (sched_switch; is_running and
        # _update_priority inlined — this runs on every pick).  After a
        # tick-driven resched its history is what the tick just scored,
        # so the tick's priority is reused.
        state = prev.policy
        hist = state.hist
        inputs = hist.runtime, hist.sleeptime, prev.nice
        tun = self.tunables
        if inputs != state.prio_inputs:
            state.priority, state.interactive = compute_priority(
                tun, hist, prev.nice)
            state.prio_inputs = inputs
        if state.interactive or tdq.realtime.count:
            tdq.add(prev)
            nxt = tdq.choose()
            nxt.policy.ticks_used = 0
            return nxt
        # A batch incumbent and no realtime thread: Tdq.add then
        # Tdq.choose in one calendar pass (the switch of an all-batch
        # core; tests/test_ule_calendar.py checks it against them).
        pri = state.priority - tun.batch_prio_min
        if pri < 0:
            pri = 0
        elif pri > tun.nqueues - 1:
            pri = tun.nqueues - 1
        nxt = tdq.timeshare.requeue_choose(prev, pri)
        state.queued = nxt is not prev
        state.queued_interactive = False
        state.queued_priority = pri
        nxt_state = nxt.policy
        nxt_state.queued = False
        nxt_state.ticks_used = 0
        return nxt

    def yield_task(self, core: "Core") -> None:
        pass  # requeue-at-tail happens in pick_next (sched_relinquish)

    # ------------------------------------------------------------------
    # ticks and accounting
    # ------------------------------------------------------------------

    def update_curr(self, core: "Core", thread: "SimThread",
                    delta_ns: int) -> None:
        # state_of inlined: runs on every accounting point
        thread.policy.hist.add_runtime(delta_ns)

    def task_tick(self, core: "Core") -> None:
        thread = core.current
        if thread is None:
            return
        # FreeBSD recomputes the running thread's priority every stathz
        # tick (sched_clock), reclassifying it as its history evolves,
        # and rotates the timeshare calendar's insertion origin
        # (state_of and _update_priority inlined: runs every tick).
        state = thread.policy
        hist = state.hist
        nice = thread.nice
        state.priority, state.interactive = compute_priority(
            self.tunables, hist, nice)
        state.prio_inputs = hist.runtime, hist.sleeptime, nice
        tdq: Tdq = core.rq
        tdq.timeshare.advance()
        state.ticks_used += 1
        # sched_clock compares the used ticks against the *current*
        # load-adjusted slice, so the effective slice shrinks the
        # moment more threads become runnable.
        slices = self.tunables.slice_table
        top = len(slices) - 1
        load = tdq.load
        if state.ticks_used < slices[load if load < top else top]:
            return
        if tdq.realtime.count or tdq.timeshare.count:
            core.need_resched = True
        else:
            # Alone on the core: keep running, restart the slice.
            state.ticks_used = 0

    def idle_tick(self, core: "Core") -> None:
        # The FreeBSD idle loop keeps polling for stealable work.
        if self._nr_loaded == 0:
            # No tdq reaches steal_thresh, so the scan below cannot
            # match — same outcome, O(1).
            return
        steal_thresh = self.tunables.steal_thresh
        index = core.index
        for other in self.machine.cores:
            rq = other.rq
            if other is not core and rq.load >= steal_thresh \
                    and rq.transferable(index) is not None:
                core.need_resched = True
                return

    def needs_tick(self, core: "Core") -> bool:
        # idle_tick only ever acts when some tdq carries at least
        # ``steal_thresh`` load, so a machine with no loaded tdq can
        # park every idle core's tick.  The O(1) counter is a
        # conservative superset of idle_tick's condition (it ignores
        # transferability), which the NO_HZ contract permits.
        return not core.is_idle or self._nr_loaded > 0

    # ------------------------------------------------------------------
    # wakeup preemption (disabled, per the paper)
    # ------------------------------------------------------------------

    def check_preempt_wakeup(self, core: "Core",
                             thread: "SimThread") -> None:
        curr = core.current
        if curr is None or not curr.is_running:
            core.need_resched = True
            return
        # FreeBSD's sched_shouldpreempt: a *remote* enqueue of an
        # interactive thread onto a core running a batch thread sends a
        # preemption IPI.  "Remote" means the wakeup executed on a
        # different CPU than the one chosen (tdq_notify); a thread
        # woken by a timer fires its callout on the CPU it slept on.
        if not self.tunables.remote_interactive_preempt:
            return
        state = self.state_of(thread)
        if not state.interactive:
            return
        if self.state_of(curr).interactive:
            return
        origin = self._wake_origin
        if origin is not None and origin != core.index:
            core.need_resched = True
            self.engine.metrics.incr("ule.remote_preemptions")

    # ------------------------------------------------------------------
    # placement (sched_pickcpu)
    # ------------------------------------------------------------------

    def select_task_rq(self, thread: "SimThread", flags: SelectFlags,
                       waker: Optional["SimThread"] = None) -> int:
        if waker is not None and waker.is_running \
                and waker.cpu is not None:
            self._wake_origin = waker.cpu
        else:
            self._wake_origin = thread.cpu
        return placement.sched_pickcpu(self, thread, waker)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def runnable_threads(self, core: "Core") -> Iterable["SimThread"]:
        out = list(core.rq.queued_threads())
        if core.current is not None:
            out.append(core.current)
        return out

    def nr_runnable(self, core: "Core") -> int:
        """``tdq_load``: runnable threads incl. the running one."""
        return core.rq.load
