"""The scheduler class interface (the paper's Table 1, Linux side).

Every scheduler plugs into the engine through this interface, which
mirrors the Linux ``sched_class`` operations listed in Table 1 of the
paper:

=================  =========================================
Linux              Usage
=================  =========================================
enqueue_task       Enqueue a thread in a runqueue
dequeue_task       Remove a thread from a runqueue
yield_task         Yield the CPU back to the scheduler
pick_next_task     Select the next task to be scheduled
put_prev_task      Update statistics about the task that just ran
select_task_rq     Choose the CPU for a new/waking thread
=================  =========================================

plus the lifecycle hooks (``task_fork``, ``task_dead``, ``task_tick``,
``task_waking``, ``check_preempt_wakeup``) both CFS and the ULE port
need.  :mod:`repro.sched.freebsd_api` exposes the FreeBSD-side names
(``sched_add``, ``sched_rem``, ...) on top of this interface exactly
the way the paper's port maps them.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, Optional

from ..core.clock import LINUX_TICK_NSEC
from ..core.schedflags import DequeueFlags, EnqueueFlags, SelectFlags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine
    from ..core.machine import Core
    from ..core.thread import SimThread


class SchedClass(abc.ABC):
    """Base class for pluggable schedulers."""

    #: scheduler name used in registries and reports
    name: str = "base"
    #: period of the per-core scheduler tick
    tick_ns: int = LINUX_TICK_NSEC

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.machine = engine.machine
        self.topology = engine.machine.topology

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Called once when the simulation starts; register periodic
        work (load balancers) here."""

    @abc.abstractmethod
    def init_core(self, core: "Core"):
        """Create and return the per-core runqueue state (``core.rq``)."""

    # -- Table 1 operations ----------------------------------------------

    @abc.abstractmethod
    def enqueue_task(self, core: "Core", thread: "SimThread",
                     flags: EnqueueFlags) -> None:
        """Add ``thread`` to ``core``'s runqueue."""

    @abc.abstractmethod
    def dequeue_task(self, core: "Core", thread: "SimThread",
                     flags: DequeueFlags) -> None:
        """Remove ``thread`` from ``core``'s runqueue."""

    def yield_task(self, core: "Core") -> None:
        """The current thread yields the CPU but stays runnable."""

    @abc.abstractmethod
    def pick_next(self, core: "Core") -> Optional["SimThread"]:
        """Select the next thread to run on ``core``.

        ``core.current`` (when RUNNING) is still the incumbent; the
        scheduler must handle its internal put-prev bookkeeping and may
        return the incumbent to keep it running.  Returning ``None``
        idles the core (idle stealing may happen inside).
        """

    @abc.abstractmethod
    def select_task_rq(self, thread: "SimThread", flags: SelectFlags,
                       waker: Optional["SimThread"] = None) -> int:
        """Choose the CPU for a newly created or waking thread."""

    # -- optional hooks ---------------------------------------------------

    def check_preempt_wakeup(self, core: "Core",
                             thread: "SimThread") -> None:
        """Decide whether the newly enqueued ``thread`` should preempt
        ``core.current`` (sets ``core.need_resched``)."""

    def task_tick(self, core: "Core") -> None:
        """Periodic tick while ``core`` is running a thread.

        ``Engine._tick`` is the only tick path: it has already charged
        the elapsed time through :meth:`update_curr`, and after this
        returns it dispatches when ``need_resched`` is set.  NO_HZ
        parking and the re-arm are the engine's, not the scheduler's.
        """

    def idle_tick(self, core: "Core") -> None:
        """Periodic tick while ``core`` is idle; may set
        ``need_resched`` to trigger a pick (and an idle steal)."""

    def needs_tick(self, core: "Core") -> bool:
        """Does the *idle* ``core`` still need its periodic tick?

        The NO_HZ contract: returning False promises that
        :meth:`idle_tick` on ``core`` is a no-op *and will stay one*
        until the next runqueue-composition change anywhere on the
        machine (enqueue, migrate, renice, affinity change) — the
        engine re-checks this hook at every such change and restarts
        the tick, phase-aligned, the moment it returns True (or the
        core gains a running thread).  A conservative superset (keep
        ticking) is always safe; an over-eager False diverges from the
        always-tick schedule.
        """
        return not core.is_idle

    def task_fork(self, parent: Optional["SimThread"],
                  child: "SimThread") -> None:
        """Initialize scheduler state for a new thread (``parent`` is
        ``None`` for top-level spawns)."""

    def task_dead(self, thread: "SimThread") -> None:
        """The thread exited; release scheduler state."""

    def task_waking(self, thread: "SimThread", slept_ns: int) -> None:
        """Called as a blocked thread wakes, before placement."""

    def task_nice_changed(self, thread: "SimThread") -> None:
        """The thread's nice value changed; reweigh/requeue it."""

    def update_curr(self, core: "Core", thread: "SimThread",
                    delta_ns: int) -> None:
        """Charge ``delta_ns`` of execution to the running thread."""

    # -- introspection -----------------------------------------------------

    @abc.abstractmethod
    def runnable_threads(self, core: "Core") -> Iterable["SimThread"]:
        """All runnable threads on ``core`` (including the running one)."""

    def nr_runnable(self, core: "Core") -> int:
        """Number of runnable threads on ``core`` (incl. running)."""
        return sum(1 for _ in self.runnable_threads(core))

    def total_runnable(self) -> int:
        """Runnable threads across the whole machine."""
        return sum(self.nr_runnable(c) for c in self.machine.cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
