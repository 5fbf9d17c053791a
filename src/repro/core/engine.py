"""The discrete-event simulation engine.

The engine owns the clock, the event queue, the machine, the thread
population, and exactly one scheduler (a
:class:`~repro.sched.base.SchedClass` instance).  It interprets thread
behaviours (see :mod:`repro.core.actions`) and calls into the scheduler
through the Linux-style API of the paper's Table 1.

Execution model
---------------

Threads run on cores.  Time only advances through the event queue; the
engine accounts CPU time lazily at scheduling events (context switches,
ticks, wakeups touching the core) instead of simulating every cycle.

The engine deliberately mirrors the structure the paper's port targets:

* the currently running thread *stays in the runqueue* (the Linux
  convention the authors adopted for their ULE port);
* wakeup placement goes through ``select_task_rq`` before
  ``enqueue_task``, and may trigger wakeup preemption;
* periodic scheduler work (load balancing, slice expiry) is driven by
  per-core tick events at the scheduler's native tick rate (1 ms for
  CFS, ~7.87 ms stathz for ULE);
* like a NO_HZ/dynticks kernel, the engine parks the periodic tick on
  cores that are idle and whose scheduler reports no periodic work
  (:meth:`~repro.sched.base.SchedClass.needs_tick`), and re-arms it —
  phase-aligned to the original stagger, so the schedule is identical
  to an always-tick run — from the wakeup/enqueue path.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Optional

from . import actions as act
from .errors import DeadlockError, SimulationError, ThreadStateError
from .events import EventQueue
from .machine import Core, Machine
from .metrics import MetricRegistry
from .rng import RandomSource
from .schedflags import DequeueFlags, EnqueueFlags, SelectFlags
from .thread import SimThread, ThreadState
from .topology import Topology

#: ``run_remaining`` value meaning "spin forever".
RUN_FOREVER = math.inf

#: hoisted singleton flag members (enum attribute access and Flag
#: arithmetic are surprisingly costly on the per-wakeup path)
_ENQ_WAKEUP = EnqueueFlags.WAKEUP
_ENQ_NEW = EnqueueFlags.NEW

#: default for :class:`Engine`'s ``tickless`` parameter.  Tickless idle
#: produces bit-identical schedules (see ``tests/test_tickless.py``);
#: flip this (or pass ``tickless=False``) to force the always-tick
#: engine, e.g. when bisecting a determinism report.
TICKLESS_DEFAULT = True


def _sanitize_from_env() -> bool:
    """``REPRO_SANITIZE`` truthiness (unset/0/false/no/off = off)."""
    value = os.environ.get("REPRO_SANITIZE", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


class Tracer:
    """Dispatch point for observation hooks.

    Experiments register callbacks; the engine invokes them at the
    corresponding lifecycle points.  All hooks are optional and add no
    cost when absent.
    """

    __slots__ = ("on_switch", "on_wake", "on_migrate", "on_exit",
                 "on_preempt", "on_fault")

    def __init__(self):
        self.on_switch: list[Callable] = []      # (core, prev, next)
        self.on_wake: list[Callable] = []        # (thread, cpu, waker)
        self.on_migrate: list[Callable] = []     # (thread, src, dst)
        self.on_exit: list[Callable] = []        # (thread,)
        self.on_preempt: list[Callable] = []     # (core, preempted, by)
        self.on_fault: list[Callable] = []       # (kind, detail)

    @staticmethod
    def _fire(hooks: list, *args) -> None:
        for hook in hooks:
            hook(*args)


# schedlint: ignore[missing-slots] -- one instance per run; fault hooks and tests monkeypatch attributes
class Engine:
    """A single simulation run."""

    def __init__(self, topology: Topology, scheduler_factory,
                 seed: int = 0, corun_slowdown: float = 1.0,
                 ctx_switch_cost_ns: int = 0,
                 tickless: Optional[bool] = None,
                 sanitize: Optional[bool] = None,
                 faults=None):
        self.now = 0
        self.events = EventQueue()
        #: events executed by :meth:`run` (for events/sec reporting)
        self.events_processed = 0
        #: park the periodic tick on quiescent idle cores (NO_HZ)
        self.tickless = TICKLESS_DEFAULT if tickless is None else tickless
        self._nr_stopped_ticks = 0
        self.random = RandomSource(seed)
        self.metrics = MetricRegistry()
        self.tracer = Tracer()
        self.machine = Machine(self, topology, corun_slowdown=corun_slowdown)
        self.threads: list[SimThread] = []
        self.live_threads = 0
        #: modelled direct + cache cost of one context switch, charged
        #: as lost progress to the incoming thread (drives the paper's
        #: apache/ab preemption effect, §5.3)
        self.ctx_switch_cost_ns = ctx_switch_cost_ns
        self._stopped = False
        self._stop_reason: Optional[str] = None

        self.scheduler = scheduler_factory(self)
        for core in self.machine.cores:
            core.rq = self.scheduler.init_core(core)
        self._ticks_started = False

        #: fault injector (:mod:`repro.faults`), or None.  An *empty*
        #: ``FaultPlan`` leaves this None so the engine posts no extra
        #: events and takes no extra branches — the event stream (and
        #: therefore the schedule digest) is byte-identical to a
        #: no-faults run.  See docs/fault-injection.md.
        self.faults = None
        if faults is not None and not faults.is_empty():
            # imported lazily: repro.faults imports this engine module
            from ..faults.injector import FaultInjector
            self.faults = FaultInjector(self, faults)

        #: post-event invariant checker; None (the default) costs one
        #: local None test per event in :meth:`run`
        self.sanitizer = None
        if _sanitize_from_env() if sanitize is None else sanitize:
            # imported lazily: repro.analysis.__init__ imports modules
            # that import this engine module
            from ..analysis.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(self)

    # ------------------------------------------------------------------
    # thread creation
    # ------------------------------------------------------------------

    def spawn(self, spec: act.ThreadSpec, at: Optional[int] = None,
              parent: Optional[SimThread] = None) -> SimThread:
        """Create a thread; it becomes runnable at ``at`` (default: now).

        Returns the thread object immediately even for delayed spawns.
        """
        thread = SimThread(self, spec, parent=parent)
        self.threads.append(thread)
        self.live_threads += 1
        if at is None or at <= self.now:
            self._activate_new(thread)
        else:
            self.events.post(at, self._activate_new, thread,
                             label=f"spawn:{spec.name}")
        return thread

    def _activate_new(self, thread: SimThread) -> None:
        """Make a NEW thread runnable: fork bookkeeping, placement,
        enqueue, and possible preemption of the target CPU."""
        if thread.state is not ThreadState.NEW:
            raise ThreadStateError(f"{thread} already activated")
        thread.created_at = self.now
        self.scheduler.task_fork(thread.parent, thread)
        cpu = self.scheduler.select_task_rq(thread, SelectFlags.FORK,
                                            waker=thread.parent)
        cpu = self._constrain_cpu(thread, cpu)
        self._enqueue(thread, cpu, EnqueueFlags.NEW)

    # ------------------------------------------------------------------
    # wakeups, blocking, migration
    # ------------------------------------------------------------------

    def wake_thread(self, thread: SimThread,
                    waker: Optional[SimThread] = None) -> None:
        """Transition a sleeping/blocked thread to RUNNABLE.

        Safe to call redundantly: waking a runnable or exited thread is
        a no-op (as in both kernels).
        """
        # is_blocked, inlined (per wakeup)
        state = thread.state
        if state is not ThreadState.SLEEPING \
                and state is not ThreadState.BLOCKED:
            return
        if thread.sleep_event is not None:
            thread.sleep_event.cancel()
            thread.sleep_event = None
        slept = 0
        if thread.sleep_start is not None:
            slept = self.now - thread.sleep_start
            thread.total_sleeptime += slept
            thread.sleep_start = None
        self.scheduler.task_waking(thread, slept)
        cpu = self.scheduler.select_task_rq(thread, SelectFlags.WAKEUP,
                                            waker=waker)
        # _constrain_cpu's accept path, inlined (per wakeup)
        affinity = thread.affinity
        if not ((affinity is None or cpu in affinity)
                and self.machine.cores[cpu].online):
            cpu = self._constrain_cpu(thread, cpu)
        self._enqueue(thread, cpu, EnqueueFlags.WAKEUP)
        hooks = self.tracer.on_wake
        if hooks:
            Tracer._fire(hooks, thread, cpu, waker)

    def _constrain_cpu(self, thread: SimThread, cpu: int) -> int:
        """Clamp a placement decision to the thread's affinity mask and
        to online CPUs.  A mask whose every CPU is offline falls back to
        any online core (the kernel's ``select_fallback_rq`` breaks
        affinity the same way)."""
        cores = self.machine.cores
        if thread.allows_cpu(cpu) and cores[cpu].online:
            return cpu
        mask = thread.affinity if thread.affinity is not None \
            else range(len(cores))
        allowed = [c for c in sorted(mask) if cores[c].online]
        if not allowed:
            allowed = self.machine.online_cpus()
        # Prefer an idle allowed CPU, else the first allowed one.
        for candidate in allowed:
            if cores[candidate].is_idle:
                return candidate
        return allowed[0]

    def _enqueue(self, thread: SimThread, cpu: int,
                 flags: EnqueueFlags) -> None:
        core = self.machine.cores[cpu]
        thread.state = ThreadState.RUNNABLE
        thread.rq_cpu = cpu
        core.app_enter(thread.app)
        thread.wait_start = self.now
        self.scheduler.enqueue_task(core, thread, flags)
        if self._nr_stopped_ticks:
            self._kick_stopped_ticks()
        # identity test: callers pass exactly WAKEUP or NEW (singleton
        # members), so this equals ``flags & (WAKEUP | NEW)`` without
        # the per-call Flag arithmetic
        if flags is _ENQ_WAKEUP or flags is _ENQ_NEW:
            self.scheduler.check_preempt_wakeup(core, thread)
        if core.current is None or core.need_resched:  # is_idle, inlined
            self.request_resched(core)

    def block_current(self, core: Core, state: ThreadState) -> None:
        """Move the core's current thread into SLEEPING/BLOCKED.

        Called by the engine itself (Sleep actions) and by
        synchronization primitives.  The caller is responsible for
        arranging a future wakeup.
        """
        thread = core.current
        if thread is None:
            raise ThreadStateError(f"core {core.index} has no current")
        self._update_curr(core)
        self.scheduler.dequeue_task(core, thread, DequeueFlags.SLEEP)
        thread.state = state
        thread.sleep_start = self.now
        thread.rq_cpu = None
        core.app_leave(thread.app)
        core.current = None
        core.need_resched = True
        hooks = self.tracer.on_switch
        if hooks:
            Tracer._fire(hooks, core, thread, None)

    def migrate_thread(self, thread: SimThread, dst_cpu: int) -> None:
        """Move a RUNNABLE (not RUNNING) thread to another runqueue.

        Both the paper's ULE port and CFS's load balancer only migrate
        threads that are not currently executing.
        """
        if thread.state is not ThreadState.RUNNABLE:
            raise ThreadStateError(f"cannot migrate {thread}")
        if not thread.allows_cpu(dst_cpu):
            raise ThreadStateError(
                f"{thread} affinity forbids cpu {dst_cpu}")
        if not self.machine.cores[dst_cpu].online:
            raise ThreadStateError(
                f"cannot migrate {thread} to offline cpu {dst_cpu}")
        src_cpu = thread.rq_cpu
        if src_cpu == dst_cpu:
            return
        src = self.machine.cores[src_cpu]
        dst = self.machine.cores[dst_cpu]
        self.scheduler.dequeue_task(src, thread, DequeueFlags.MIGRATE)
        thread.nr_migrations += 1
        thread.rq_cpu = dst_cpu
        src.app_leave(thread.app)
        dst.app_enter(thread.app)
        self.scheduler.enqueue_task(dst, thread, EnqueueFlags.MIGRATE)
        if self._nr_stopped_ticks:
            self._kick_stopped_ticks()
        self.metrics.incr("engine.migrations")
        hooks = self.tracer.on_migrate
        if hooks:
            Tracer._fire(hooks, thread, src_cpu, dst_cpu)
        if dst.is_idle:
            self.request_resched(dst)

    def set_nice(self, thread: SimThread, nice: int) -> None:
        """Renice a live thread (``setpriority``); the scheduler
        reweighs/requeues it as needed."""
        if not -20 <= nice <= 19:
            raise ValueError(f"nice out of range: {nice}")
        if thread.has_exited:
            raise ThreadStateError(f"{thread} has exited")
        thread.nice = nice
        self.scheduler.task_nice_changed(thread)
        if self._nr_stopped_ticks:
            self._kick_stopped_ticks()
        if thread.cpu is not None:
            core = self.machine.cores[thread.cpu]
            if core.current is thread or core.need_resched:
                self.request_resched(core)

    def set_affinity(self, thread: SimThread,
                     cpus: Optional[Iterable[int]]) -> None:
        """Change a thread's CPU affinity (the ``taskset`` of Fig. 6).

        Widening the mask never moves the thread (load balancing will);
        narrowing it off its current CPU forces an immediate move.
        """
        thread.affinity = None if cpus is None else frozenset(cpus)
        if self._nr_stopped_ticks:
            self._kick_stopped_ticks()
        if thread.has_exited or thread.affinity is None:
            return
        if thread.state is ThreadState.RUNNABLE:
            if not thread.allows_cpu(thread.rq_cpu):
                dst = self._constrain_cpu(thread, thread.rq_cpu)
                self.migrate_thread(thread, dst)
        elif thread.state is ThreadState.RUNNING:
            if not thread.allows_cpu(thread.cpu):
                # Force the thread off its (now forbidden) CPU, like the
                # kernel's migration thread would.
                core = self.machine.cores[thread.cpu]
                self._cancel_completion(core)
                self._update_curr(core)
                self.scheduler.dequeue_task(core, thread,
                                            DequeueFlags.MIGRATE)
                thread.state = ThreadState.RUNNABLE
                thread.wait_start = self.now
                thread.nr_migrations += 1
                core.current = None
                dst = self._constrain_cpu(thread, thread.cpu)
                thread.rq_cpu = dst
                dst_core = self.machine.cores[dst]
                core.app_leave(thread.app)
                dst_core.app_enter(thread.app)
                self.scheduler.enqueue_task(dst_core, thread,
                                            EnqueueFlags.MIGRATE)
                Tracer._fire(self.tracer.on_migrate, thread,
                             core.index, dst)
                self._dispatch(core)
                if dst_core.is_idle or dst_core.need_resched:
                    self.request_resched(dst_core)

    # ------------------------------------------------------------------
    # fault-injection primitives (hotplug, stalls)
    # ------------------------------------------------------------------

    def offline_core(self, cpu: int) -> bool:
        """Take a core offline (the "hotplug" fault): stop its tick,
        drop its pending IPI, and drain every thread — the running one
        and the queued ones — onto online cores through the scheduler's
        own placement path (``select_task_rq``/``sched_pickcpu``).

        Returns False (no-op) when the core is already offline; raises
        when it is the last online core — something must keep running.
        """
        core = self.machine.cores[cpu]
        if not core.online:
            return False
        if all(not c.online for c in self.machine.cores if c is not core):
            raise SimulationError(
                f"cannot offline cpu {cpu}: it is the last online core")
        core.online = False
        self.machine.nr_offline += 1
        # Drop the pending resched IPI.  The reusable backing event may
        # still sit (cancelled) in the heap, so it must never be
        # reposted while queued — forget it and let request_resched
        # allocate a fresh one after the core comes back.
        if core.resched_event is not None:
            core.resched_event.cancel()
            core.resched_event = None
            core._resched_reuse = None
        # Stop the tick.  A parked (NO_HZ) tick is off-heap already and
        # only needs the stopped-counter unwound; a live one is
        # cancelled in place.  Either way the event object is dead —
        # online_core() allocates a fresh reusable tick.
        if core.tick_stopped:
            core.tick_stopped = False
            self._nr_stopped_ticks -= 1
        elif core.tick_event is not None:
            core.tick_event.cancel()
        core.tick_event = None
        # Force the running thread off, like the kernel's migration
        # thread during cpu_down().
        curr = core.current
        if curr is not None:
            self._cancel_completion(core)
            self._update_curr(core)
            self.scheduler.dequeue_task(core, curr, DequeueFlags.MIGRATE)
            curr.state = ThreadState.RUNNABLE
            curr.wait_start = self.now
            curr.nr_migrations += 1
            core.current = None
            dst = self._hotplug_target(curr)
            curr.rq_cpu = dst
            dst_core = self.machine.cores[dst]
            core.app_leave(curr.app)
            dst_core.app_enter(curr.app)
            self.scheduler.enqueue_task(dst_core, curr,
                                        EnqueueFlags.MIGRATE)
            self.metrics.incr("engine.migrations")
            Tracer._fire(self.tracer.on_switch, core, curr, None)
            Tracer._fire(self.tracer.on_migrate, curr, cpu, dst)
            if dst_core.is_idle or dst_core.need_resched:
                self.request_resched(dst_core)
        core.need_resched = False
        # Drain the queued threads.
        for thread in list(self.scheduler.runnable_threads(core)):
            self.migrate_thread(thread, self._hotplug_target(thread))
        if self._nr_stopped_ticks:
            self._kick_stopped_ticks()
        core.account_to_now()
        self.metrics.incr("engine.hotplug_offlines")
        Tracer._fire(self.tracer.on_fault, "core-offline", cpu)
        return True

    def online_core(self, cpu: int) -> bool:
        """Bring an offlined core back.  The tick is re-armed
        phase-aligned to the core's original stagger and a resched pass
        is requested so the scheduler's idle paths (CFS newidle
        balance, ULE idle steal) pull work over immediately.

        Returns False (no-op) when the core is already online.
        """
        core = self.machine.cores[cpu]
        if core.online:
            return False
        core.online = True
        self.machine.nr_offline -= 1
        core.account_to_now()
        if self._ticks_started:
            core.tick_event = self.events.make_reusable(
                self._tick, core, label=f"tick:cpu{core.index}")
            core.tick_stopped = False
            self.events.repost(core.tick_event,
                               self._phase_aligned_tick(core))
        self.request_resched(core)
        self.metrics.incr("engine.hotplug_onlines")
        Tracer._fire(self.tracer.on_fault, "core-online", cpu)
        return True

    def _hotplug_target(self, thread: SimThread) -> int:
        """Pick an online destination for a thread drained off a dead
        core, reusing the scheduler's own wakeup placement.  An affinity
        mask with no online CPU left is broken (cleared), exactly like
        ``select_fallback_rq`` under cpuset pressure."""
        if thread.affinity is not None and not any(
                self.machine.cores[c].online for c in thread.affinity):
            thread.affinity = None
            Tracer._fire(self.tracer.on_fault, "affinity-broken",
                         thread.name)
        cpu = self.scheduler.select_task_rq(thread, SelectFlags.WAKEUP,
                                            waker=None)
        return self._constrain_cpu(thread, cpu)

    def stall_thread(self, thread: SimThread, duration_ns: int) -> bool:
        """Transiently take a RUNNING/RUNNABLE thread off the scheduler
        (a "stall": the analogue of a page-fault storm or an SMI).  The
        thread rejoins through the normal wakeup path after
        ``duration_ns``.  Stall time is tracked separately from sleep
        time so workload accounting (and the requested-work oracle)
        still balances.  Returns False (no-op) for threads that are
        blocked, new, or exited."""
        if duration_ns <= 0 or thread.state not in (
                ThreadState.RUNNING, ThreadState.RUNNABLE):
            return False
        if thread.state is ThreadState.RUNNING:
            core = self.machine.cores[thread.cpu]
            self._cancel_completion(core)
            self._update_curr(core)
            self.scheduler.dequeue_task(core, thread, DequeueFlags.SLEEP)
            thread.state = ThreadState.BLOCKED
            thread.rq_cpu = None
            core.app_leave(thread.app)
            core.current = None
            core.need_resched = True
            Tracer._fire(self.tracer.on_switch, core, thread, None)
            self.request_resched(core)
        else:
            core = self.machine.cores[thread.rq_cpu]
            self.scheduler.dequeue_task(core, thread, DequeueFlags.SLEEP)
            thread.state = ThreadState.BLOCKED
            thread.rq_cpu = None
            core.app_leave(thread.app)
        # sleep_start stays None: the wakeup path must not book the
        # stall as voluntary sleep time.
        thread.sleep_event = self.events.post(
            self.now + duration_ns, self._on_stall_end, thread,
            duration_ns, label=f"unstall:{thread.name}")
        self.metrics.incr("engine.stalls")
        Tracer._fire(self.tracer.on_fault, "thread-stall", thread.name)
        return True

    def _on_stall_end(self, thread: SimThread, duration_ns: int) -> None:
        thread.sleep_event = None
        thread.total_stalltime += duration_ns
        self.wake_thread(thread, waker=None)

    # ------------------------------------------------------------------
    # reschedule machinery
    # ------------------------------------------------------------------

    def request_resched(self, core: Core) -> None:
        """Ask for a scheduling pass on ``core`` at the current instant
        (coalesced; the analogue of a resched IPI).

        Fault injection may delay the IPI (or "drop" it, which models
        redelivery after a timeout); an offline core takes no IPIs at
        all — the hotplug drain already moved its work elsewhere.
        """
        if not core.online:
            return
        if core.resched_event is not None:
            return
        at = self.now
        if self.faults is not None:
            at += self.faults.ipi_delay(core)
        reuse = core._resched_reuse
        if reuse is None:
            reuse = core._resched_reuse = self.events.make_reusable(
                self._resched_event, core,
                label=f"resched:cpu{core.index}")
        core.resched_event = self.events.repost(reuse, at)

    def _resched_event(self, core: Core) -> None:
        core.resched_event = None
        self._dispatch(core)

    def _dispatch(self, core: Core) -> None:
        """The core scheduling loop: account, pick, switch, arm timers.

        Iterative (never recursive) so long chains of immediately
        blocking threads cannot overflow the stack.
        """
        if not core.online:
            return
        while True:
            completion = core.completion_event
            if completion is not None:  # _cancel_completion, inlined
                completion.cancel()
                core.completion_event = None
            # a tick that just charged this instant left nothing to
            # account (_update_curr would stop at delta == 0)
            if core.current is None \
                    or core._curr_account_start != self.now:
                self._update_curr(core)
            core.need_resched = False
            incumbent = core.current
            nxt = self.scheduler.pick_next(core)
            if nxt is not incumbent:
                self._switch_to(core, incumbent, nxt)
            thread = core.current
            if thread is None:
                core.account_to_now()
                return
            if thread.run_remaining is None:
                if not self._advance(core, thread):
                    continue  # thread blocked or exited: pick again
            if core.need_resched:
                continue
            if thread.run_remaining is not RUN_FOREVER:
                # a thread that runs forever has no completion to arm
                self._arm_completion(core)
            return

    def _switch_to(self, core: Core, prev: Optional[SimThread],
                   nxt: Optional[SimThread]) -> None:
        core.account_to_now()
        now = self.now
        counters = self.metrics.counters
        tracer = self.tracer
        if prev is not None and prev.state is ThreadState.RUNNING:
            prev.state = ThreadState.RUNNABLE
            prev.wait_start = now
            prev.nr_preemptions += 1
            counters["engine.preemptions"] += 1.0
            hooks = tracer.on_preempt
            if hooks:
                Tracer._fire(hooks, core, prev, nxt)
        core.current = nxt
        core.nr_switches += 1
        counters["engine.switches"] += 1.0
        core.curr_started_at = now
        core._curr_account_start = now
        if nxt is None:
            core._curr_speed = 1.0
        else:
            if core.tick_stopped:
                # A parked core gained a running thread: NO_HZ exit.
                self._restart_tick(core)
            if nxt.rq_cpu != core.index:
                raise SimulationError(
                    f"picked {nxt} from rq {nxt.rq_cpu} on core "
                    f"{core.index}")
            nxt.state = ThreadState.RUNNING
            nxt.cpu = core.index
            nxt.nr_switches += 1
            if nxt.wait_start is not None:
                nxt.total_waittime += now - nxt.wait_start
                nxt.wait_start = None
            # nxt's rq_cpu is this core, so its app is among the
            # counted ones
            core._curr_speed = 1.0 \
                if self.machine.corun_slowdown == 1.0 \
                else self.machine.speed_factor(core, nxt, len(core.apps))
            cost = self.ctx_switch_cost_ns
            if cost and prev is not nxt:
                if nxt.run_remaining not in (None, RUN_FOREVER):
                    nxt.run_remaining += cost
                core.sched_overhead_ns += cost
        hooks = tracer.on_switch
        if hooks:
            Tracer._fire(hooks, core, prev, nxt)

    def _update_curr(self, core: Core) -> None:
        """Charge wall time since the last accounting point to the
        running thread and inform the scheduler."""
        thread = core.current
        if thread is None:
            core.account_to_now()
            return
        now = self.now
        delta = now - core._curr_account_start
        core._curr_account_start = now
        if delta <= 0:
            return
        core.account_to_now()
        thread.total_runtime += delta
        thread.last_ran = now
        remaining = thread.run_remaining
        if remaining is not None and remaining is not RUN_FOREVER:
            speed = core._curr_speed
            progress = delta if speed == 1.0 else int(delta * speed)
            remaining -= progress
            thread.run_remaining = remaining if remaining > 0 else 0
        self.scheduler.update_curr(core, thread, delta)

    # -- run-completion timer -------------------------------------------

    def _arm_completion(self, core: Core) -> None:
        thread = core.current
        if thread is None:
            return
        remaining = thread.run_remaining
        if remaining is None or remaining is RUN_FOREVER:
            return
        speed = core._curr_speed
        wall = remaining if speed == 1.0 else math.ceil(remaining / speed)
        core.completion_event = self.events.post(
            self.now + wall, self._on_run_complete, core, thread,
            label=thread._runend_label)

    def _cancel_completion(self, core: Core) -> None:
        if core.completion_event is not None:
            core.completion_event.cancel()
            core.completion_event = None

    def _on_run_complete(self, core: Core, thread: SimThread) -> None:
        core.completion_event = None
        if core.current is not thread:  # stale (raced with a switch)
            return
        self._update_curr(core)
        if thread.run_remaining not in (None, RUN_FOREVER) \
                and thread.run_remaining > 0:
            # The co-run speed factor changed under us; not done yet.
            self._arm_completion(core)
            return
        thread.run_remaining = None
        if self._advance(core, thread):
            if core.need_resched:
                self._dispatch(core)
            else:
                self._arm_completion(core)
        else:
            self._dispatch(core)

    # ------------------------------------------------------------------
    # behaviour interpretation
    # ------------------------------------------------------------------

    def _advance(self, core: Core, thread: SimThread) -> bool:
        """Advance a thread's behaviour until it runs, blocks, or exits.

        Returns True when the thread is still RUNNING on the core with a
        pending Run action, False when it gave up the CPU.
        """
        while True:
            try:
                # thread.next_action() inlined (one generator resume
                # per behaviour step; keep in sync with thread.py)
                if thread._generator is None:
                    action = thread.next_action()  # first schedule
                else:
                    value = thread._wake_value
                    thread._wake_value = None
                    send = thread._send
                    action = send(value) if send is not None \
                        else next(thread._generator)
            except StopIteration:
                self._exit_thread(core, thread)
                return False

            # exact-class test: act.Run is never subclassed, and the
            # identity check is the cheapest dispatch for the dominant
            # action (isinstance still guards the open SyncAction
            # hierarchy below)
            if action.__class__ is act.Run:
                thread.run_remaining = (RUN_FOREVER if action.duration is None
                                        else action.duration)
                if thread.run_remaining == 0:
                    thread.run_remaining = None
                    continue
                return True
            if isinstance(action, act.SyncAction):
                # checked right after Run: sync ops dominate the
                # wakeup-heavy (hackbench-shaped) workloads
                result, value = action.apply(self, thread)
                if result is act.BlockResult.COMPLETED:
                    thread.set_wake_value(value)
                    continue
                return False
            if isinstance(action, act.Sleep):
                if action.duration == 0:
                    continue
                self.block_current(core, ThreadState.SLEEPING)
                wake_at = self.now + action.duration
                if self.faults is not None:
                    wake_at = self.faults.timer_time(wake_at)
                thread.sleep_event = self.events.post(
                    wake_at, self._on_sleep_timer,
                    thread, label=thread._wake_label)
                return False
            if isinstance(action, act.Yield):
                self.scheduler.yield_task(core)
                core.need_resched = True
                thread.run_remaining = None
                # Leave resumption value empty; behaviour continues
                # after it is scheduled again.
                thread.set_wake_value(None)
                return True  # still running until dispatch picks another
            if isinstance(action, act.Fork):
                child = self.spawn(action.spec, parent=thread)
                thread.set_wake_value(child)
                continue
            if isinstance(action, act.Exit):
                self._exit_thread(core, thread)
                return False
            raise SimulationError(f"unknown action {action!r}")

    def _on_sleep_timer(self, thread: SimThread) -> None:
        thread.sleep_event = None
        self.wake_thread(thread, waker=None)

    def _exit_thread(self, core: Core, thread: SimThread) -> None:
        self._update_curr(core)
        self.scheduler.dequeue_task(core, thread, DequeueFlags.DEAD)
        self.scheduler.task_dead(thread)
        thread.state = ThreadState.EXITED
        thread.exited_at = self.now
        thread.rq_cpu = None
        core.app_leave(thread.app)
        core.current = None
        core.need_resched = True
        self.live_threads -= 1
        self.metrics.incr("engine.exits")
        tracer = self.tracer
        if tracer.on_switch:
            Tracer._fire(tracer.on_switch, core, thread, None)
        if tracer.on_exit:
            Tracer._fire(tracer.on_exit, thread)

    # ------------------------------------------------------------------
    # scheduler services
    # ------------------------------------------------------------------

    def charge_overhead(self, cpu: int, ns: int) -> None:
        """Model CPU cycles burnt inside the scheduler on ``cpu``.

        The charge steals progress from whatever is running there, which
        is how ULE's expensive ``sched_pickcpu`` scans show up as a 13 %
        throughput loss on sysbench in the paper (§6.3).
        """
        if ns <= 0:
            return
        core = self.machine.cores[cpu]
        core.sched_overhead_ns += ns
        self.metrics.incr("sched.overhead_ns", ns)
        thread = core.current
        if thread is not None and thread.run_remaining not in (
                None, RUN_FOREVER):
            thread.run_remaining += ns
            if core.completion_event is not None:
                self._cancel_completion(core)
                self._arm_completion(core)

    def start_ticks(self) -> None:
        """Arm the per-core periodic tick at the scheduler's rate."""
        if self._ticks_started:
            return
        self._ticks_started = True
        period = self.scheduler.tick_ns
        for core in self.machine.cores:
            # Stagger ticks across cores like real timer interrupts.
            offset = (core.index * period) // max(1, len(self.machine))
            core.tick_event = self.events.make_reusable(
                self._tick, core, label=f"tick:cpu{core.index}")
            core.tick_origin = self.now + period + offset
            core.tick_stopped = False
            self.events.repost(core.tick_event, core.tick_origin)

    def _tick(self, core: Core) -> None:
        """The periodic tick (``scheduler_tick``/``sched_clock``): the
        callback behind every core's reusable tick event.  The engine
        parks, reposts, accounts and dispatches here, once; the
        scheduler's periodic work is its ``task_tick``/``idle_tick``."""
        if not core.online:
            # Raced with a same-instant offline; the hotplug path
            # cancelled the tick, so this only fires for stale events.
            return
        scheduler = self.scheduler
        curr = core.current
        if curr is None and self.tickless \
                and not scheduler.needs_tick(core):
            # NO_HZ: the core is idle and the scheduler has no periodic
            # work for it — park the tick instead of re-arming.  Every
            # enqueue/migrate/renice/affinity change (and the core's own
            # next _switch_to) re-checks needs_tick and restarts the
            # tick phase-aligned, so the schedule is unchanged.
            core.tick_stopped = True
            self._nr_stopped_ticks += 1
            self.metrics.incr("engine.tick_stops")
            return
        next_tick = self.now + scheduler.tick_ns
        if self.faults is not None:
            next_tick = self.faults.tick_time(core, next_tick)
        self.events.repost(core.tick_event, next_tick)
        if curr is not None:
            self._update_curr(core)
            scheduler.task_tick(core)
            # Re-arm the run-completion timer only when this re-arm can
            # move it or be its last.  Below unit speed _update_curr
            # truncates progress (int(delta * speed)), a fault plan can
            # move the next tick, and an overhead charge arms from the
            # last accounting point, so the re-arm can move the
            # deadline.  Otherwise it only renews the event's sequence
            # number, which orders same-instant events (the digests pin
            # it): a deadline past the next tick is reposted by that
            # tick (or an earlier dispatch, charge or migration) before
            # it fires, so its last post keeps its place.  ``<=``: the
            # next tick was reposted just above, and a completion at
            # that instant must stay behind it.
            if core.need_resched:
                self._dispatch(core)
            else:
                completion = core.completion_event
                if completion is not None and (
                        completion.time <= next_tick
                        or completion.time != self.now + curr.run_remaining
                        or core._curr_speed != 1.0
                        or self.faults is not None):
                    self._cancel_completion(core)
                    self._arm_completion(core)
        else:
            scheduler.idle_tick(core)
            if core.need_resched:
                self._dispatch(core)

    def _phase_aligned_tick(self, core: Core) -> int:
        """The instant a re-armed tick lands on: the same one it would
        have in an always-tick run, i.e. the first ``t >= now`` with
        ``t ≡ tick_origin (mod tick_ns)``."""
        period = self.scheduler.tick_ns
        behind = self.now - core.tick_origin
        if behind < 0:
            return core.tick_origin
        rem = behind % period
        return self.now if rem == 0 else self.now + period - rem

    def _restart_tick(self, core: Core) -> None:
        """Re-arm a parked core's tick, phase-aligned to its stagger."""
        core.tick_stopped = False
        self._nr_stopped_ticks -= 1
        self.metrics.incr("engine.tick_restarts")
        self.events.repost(core.tick_event,
                           self._phase_aligned_tick(core))

    def _kick_stopped_ticks(self) -> None:
        """Restart parked ticks wherever the scheduler now has periodic
        work (the analogue of the kernel's nohz idle-balance kick).

        Called from every path that changes runqueue composition."""
        needs_tick = self.scheduler.needs_tick
        for core in self.machine.cores:
            if core.tick_stopped and needs_tick(core):
                self._restart_tick(core)
            if not self._nr_stopped_ticks:
                return

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def stop(self, reason: str = "stopped") -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True
        self._stop_reason = reason

    def run(self, until: Optional[int] = None,
            stop_when: Optional[Callable[["Engine"], bool]] = None,
            check_interval: int = 64) -> str:
        """Drive the simulation.

        Stops when simulated time reaches ``until``, when ``stop_when``
        returns True (checked every ``check_interval`` events), when all
        threads have exited, or when :meth:`stop` is called.  Raises
        :class:`DeadlockError` when events drain while threads are still
        blocked.
        """
        self.scheduler.start()
        self.start_ticks()
        if self.faults is not None:
            self.faults.start()
        self._stopped = False
        self._stop_reason = None
        # The sanitizer is bound once, here: it costs one local
        # ``is None`` test per event when off.  The event counter
        # accumulates locally and flushes once — the finally block
        # keeps events/sec reporting exact on every exit path,
        # including exceptions from callbacks.
        events_since_check = 0
        sanitizer = self.sanitizer
        pop_before = self.events.pop_before
        processed = 0
        try:
            while True:
                if self._stopped:
                    return self._stop_reason or "stopped"
                event = pop_before(until)
                if event is None:
                    return self._queue_exhausted(until)
                self.now = event.time
                processed += 1
                event.callback(*event.args)
                if sanitizer is not None:
                    sanitizer.after_event(event)
                if stop_when is not None:
                    events_since_check += 1
                    if events_since_check >= check_interval:
                        events_since_check = 0
                        if stop_when(self):
                            return "condition"
                if self.live_threads == 0:
                    return "all-exited"
        finally:
            self.events_processed += processed

    def _queue_exhausted(self, until: Optional[int]) -> str:
        """Run-loop epilogue: the queue drained, or the next
        live event lies beyond the deadline."""
        if until is not None:
            # Tickless idle can drain the queue entirely (the
            # always-tick engine would spin no-op ticks up to the
            # deadline, with threads possibly still blocked past it);
            # jump straight there.
            self.now = until
            for core in self.machine.cores:
                self._update_curr(core)
            return "deadline"
        if self.live_threads > 0 and any(
                t.is_blocked for t in self.threads):
            raise DeadlockError(
                f"{self.live_threads} live threads but no events")
        return "drained"

    # ------------------------------------------------------------------
    # canonical schedule state (digest hook)
    # ------------------------------------------------------------------

    def canonical_state(self) -> dict:
        """A canonical, scheduler-independent summary of the schedule.

        This is the engine's digest hook: everything in the returned
        dict is a pure function of (workload, scheduler, seed) — thread
        identity is the per-engine spawn index, never the process-global
        tid, and event counts (which legitimately differ between
        tickless and always-tick runs of the same schedule) are
        excluded.  :func:`repro.tracing.digest.schedule_digest` hashes
        it into the compact digests stored under ``tests/golden/``.
        """
        for core in self.machine.cores:
            self._update_curr(core)
        state = {
            "now": self.now,
            "threads": [
                (index, t.name, t.state.value, t.total_runtime,
                 t.total_sleeptime, t.total_waittime, t.nr_switches,
                 t.nr_migrations, t.nr_preemptions, t.created_at,
                 t.exited_at)
                for index, t in enumerate(self.threads)
            ],
            "cores": [
                (c.index, c.busy_ns, c.idle_ns, c.nr_switches)
                for c in self.machine.cores
            ],
            "counters": {
                name: self.metrics.counter(name)
                for name in ("engine.switches", "engine.migrations",
                             "engine.preemptions", "engine.exits")
            },
        }
        if self.faults is not None:
            # Only present under a non-empty fault plan, so no-fault
            # digests (golden traces) are unaffected.
            state["faults"] = self.faults.canonical()
        return state

    # ------------------------------------------------------------------
    # convenience queries
    # ------------------------------------------------------------------

    def threads_named(self, prefix: str) -> list[SimThread]:
        """All threads whose name starts with ``prefix``."""
        return [t for t in self.threads if t.name.startswith(prefix)]

    def threads_of_app(self, app: str) -> list[SimThread]:
        """All threads belonging to application ``app``."""
        return [t for t in self.threads if t.app == app]

    def nr_runnable_on(self, cpu: int) -> int:
        """Runnable-thread count on ``cpu`` (scheduler's view)."""
        return self.scheduler.nr_runnable(self.machine.cores[cpu])
