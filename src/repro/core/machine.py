"""The machine model: CPUs and per-CPU execution state.

A :class:`Core` is the engine-facing per-CPU record: the running
thread, idle/busy accounting, the pending run-completion timer, and the
reschedule flag.  Scheduler-private per-CPU state (CFS ``cfs_rq``, ULE
``tdq``) is attached by the scheduler at ``rq``.

The machine also models a small amount of micro-architecture that the
paper's explanations rely on:

* ``corun_slowdown``: when a core time-shares threads of *different*
  applications its effective speed for each is reduced (cache pollution;
  this is why fibo finishes slightly faster on ULE in Table 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine
    from .thread import SimThread


class Core:
    """Per-CPU execution state."""

    __slots__ = ("engine", "index", "current", "rq", "need_resched",
                 "completion_event", "resched_event", "_resched_reuse",
                 "tick_event", "tick_origin", "tick_stopped", "online",
                 "busy_ns", "idle_ns", "nr_switches",
                 "sched_overhead_ns", "_last_account",
                 "curr_started_at", "_curr_account_start",
                 "_curr_speed", "apps")

    def __init__(self, engine: "Engine", index: int):
        self.engine = engine
        self.index = index
        #: currently running thread (None = idle)
        self.current: Optional["SimThread"] = None
        #: scheduler-private per-CPU state (runqueues)
        self.rq: Any = None
        #: set by schedulers to request a reschedule
        self.need_resched = False
        #: pending run-completion event (cancellable)
        self.completion_event = None
        #: pending immediate-reschedule event, to coalesce requests
        self.resched_event = None
        #: reusable resched event backing :meth:`Engine.request_resched`
        self._resched_reuse = None
        #: reusable periodic-tick event (armed by the engine)
        self.tick_event = None
        #: time of this core's first tick; all later ticks keep the
        #: phase ``tick_origin mod tick_ns`` even across tickless gaps
        self.tick_origin = 0
        #: True while the periodic tick is parked (NO_HZ idle)
        self.tick_stopped = False
        #: False while the core is offlined by fault injection
        #: ("hotplug"); offline cores run nothing, take no ticks, and
        #: are skipped by every placement and balancing path
        self.online = True

        # accounting
        self.busy_ns = 0
        self.idle_ns = 0
        self.nr_switches = 0
        self.sched_overhead_ns = 0
        self._last_account = engine.now
        #: time the current thread was put on the CPU
        self.curr_started_at = engine.now
        #: accounting point for :meth:`Engine._update_curr`; refreshed
        #: at every switch, so the init value only covers the idle
        #: stretch before the core first runs anything
        self._curr_account_start = engine.now
        #: co-run speed factor of the current thread (1.0 = full speed)
        self._curr_speed = 1.0
        #: app -> number of threads whose ``rq_cpu`` is this core (the
        #: running one included); kept by the engine wherever it sets
        #: or clears ``rq_cpu``, so the co-run speed needs no
        #: runqueue walk
        self.apps: dict[str, int] = {}

    def app_enter(self, app: str) -> None:
        """Count a thread of ``app`` onto this core's runqueue."""
        apps = self.apps
        apps[app] = apps.get(app, 0) + 1

    def app_leave(self, app: str) -> None:
        """Count a thread of ``app`` off this core's runqueue."""
        apps = self.apps
        left = apps[app] - 1
        if left:
            apps[app] = left
        else:
            del apps[app]

    def reset(self) -> None:
        """Restore construction-time state (``Engine.reset``).

        The owning engine clears its event queue first, so pending
        event handles here are dropped wholesale rather than
        individually cancelled; ``rq`` is rebuilt by the engine via
        ``scheduler.init_core`` right after.
        """
        self.current = None
        self.rq = None
        self.need_resched = False
        self.completion_event = None
        self.resched_event = None
        self._resched_reuse = None
        self.tick_event = None
        self.tick_origin = 0
        self.tick_stopped = False
        self.online = True
        self.busy_ns = 0
        self.idle_ns = 0
        self.nr_switches = 0
        self.sched_overhead_ns = 0
        self._last_account = 0
        self.curr_started_at = 0
        self._curr_account_start = 0
        self._curr_speed = 1.0
        self.apps = {}

    @property
    def is_idle(self) -> bool:
        return self.current is None

    def account_to_now(self) -> int:
        """Charge elapsed time since the last accounting point to either
        busy or idle time; returns the delta in nanoseconds."""
        now = self.engine.now
        delta = now - self._last_account
        if delta > 0:
            if self.current is None:
                self.idle_ns += delta
            else:
                self.busy_ns += delta
            self._last_account = now
        return delta

    def utilization(self) -> float:
        """Fraction of accounted time this core was busy."""
        total = self.busy_ns + self.idle_ns
        # reporting-only ratio; never feeds back into the schedule
        return self.busy_ns / total if total else 0.0  # schedlint: ignore[float-ns-clock]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.current.name if self.current else "idle"
        return f"<Core {self.index} running={running}>"


class Machine:
    """A simulated multiprocessor."""

    __slots__ = ("topology", "corun_slowdown", "cores", "nr_offline")

    def __init__(self, engine: "Engine", topology: Topology,
                 corun_slowdown: float = 1.0):
        if corun_slowdown < 1.0:
            raise ValueError("corun_slowdown must be >= 1.0")
        self.topology = topology
        self.corun_slowdown = corun_slowdown
        self.cores = [Core(engine, i) for i in range(topology.ncpus)]
        #: offlined-core count, maintained by the engine's hotplug
        #: paths; placement fast paths branch on ``nr_offline == 0``
        self.nr_offline = 0

    def __len__(self) -> int:
        return len(self.cores)

    def core(self, index: int) -> Core:
        """The core at ``index``."""
        return self.cores[index]

    def idle_cores(self) -> list[Core]:
        """Cores with no running thread."""
        return [c for c in self.cores if c.is_idle]

    def online_cpus(self) -> list[int]:
        """Indices of cores not currently offlined by fault injection
        (ascending, so iteration order is deterministic)."""
        return [c.index for c in self.cores if c.online]

    def busiest_by(self, key) -> Core:
        """The core maximizing ``key(core)`` (ties: lowest index)."""
        return max(self.cores, key=lambda c: (key(c), -c.index))

    def speed_factor(self, core: Core, thread: "SimThread",
                     nr_apps_on_core: int) -> float:
        """Execution speed multiplier for ``thread`` on ``core``.

        When more than one distinct application shares the core the
        speed drops by ``corun_slowdown`` (>= 1.0; 1.0 disables the
        model).  Threads of the same application are assumed to share
        their working set and do not slow each other down.
        """
        if nr_apps_on_core > 1 and self.corun_slowdown > 1.0:
            return 1.0 / self.corun_slowdown
        return 1.0
