"""The per-CPU ULE queue (``struct tdq``).

Three runqueues per CPU (§2.2): *realtime* holds interactive threads,
*timeshare* holds batch threads, and the idle queue holds only the idle
task (implicit here: an empty tdq means the core idles).  Picking
always searches realtime first — that order is what gives interactive
threads absolute priority and lets batch threads starve.

Following the paper's port (§3), the *running* thread conceptually
stays on the runqueue: it is counted in ``load`` and visible to the
balancer, but kept out of the FIFOs so FIFO order is preserved when it
is put back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .runq import CalendarRunQueue, RunQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.machine import Core
    from ..core.thread import SimThread
    from .params import UleTunables


class Tdq:
    """Per-CPU ULE state."""

    __slots__ = ("cpu", "tunables", "realtime", "timeshare", "load",
                 "core")

    def __init__(self, cpu: int, tunables: "UleTunables"):
        self.cpu = cpu
        self.tunables = tunables
        self.realtime = RunQueue(tunables.nqueues)
        self.timeshare = CalendarRunQueue(tunables.nqueues)
        #: runnable threads on this CPU including the running one
        self.load = 0
        #: the core this tdq belongs to (set by the scheduler)
        self.core: Optional["Core"] = None

    # ------------------------------------------------------------------
    # queue maintenance (running thread excluded from the FIFOs)
    # ------------------------------------------------------------------

    def add(self, thread: "SimThread", at_head: bool = False) -> None:
        """File a runnable thread into its class's queue at its
        current priority."""
        state = thread.policy
        if state.interactive:
            pri = state.priority
            self.realtime.add(thread, pri, at_head=at_head)
        else:
            # calendar buckets are relative to the batch band
            pri = min(self.tunables.nqueues - 1,
                      max(0, state.priority - self.tunables.batch_prio_min))
            self.timeshare.add(thread, pri, at_head=at_head)
        state.queued = True
        state.queued_interactive = state.interactive
        state.queued_priority = pri

    def rem(self, thread: "SimThread") -> None:
        """Remove a queued thread (from the queue it was filed in)."""
        state = thread.policy
        queue = self.realtime if state.queued_interactive else self.timeshare
        queue.remove(thread, state.queued_priority)
        state.queued = False

    def choose(self) -> Optional["SimThread"]:
        """Pop the best thread: interactive queue first, then batch —
        the search order that starves batch threads (§2.2, §5)."""
        if self.realtime.count:
            thread = self.realtime.choose()
        elif self.timeshare.count:
            thread = self.timeshare.choose()
        else:
            return None
        thread.policy.queued = False
        return thread

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nr_queued(self) -> int:
        """Threads sitting in the FIFOs (the running one excluded)."""
        return self.realtime.count + self.timeshare.count

    def queued_threads(self) -> Iterator["SimThread"]:
        """FIFO-queued threads, best priority first (running thread not
        included)."""
        yield from self.realtime.threads()
        yield from self.timeshare.threads()

    def transferable(self, dst_cpu: int) -> Optional["SimThread"]:
        """The first queued thread the balancer may move to
        ``dst_cpu`` (never the running thread — the port's rule).
        Same order as :meth:`queued_threads`, via the runqueues'
        generator-free scans (this is the idle-poll hot path)."""
        thread = self.realtime.first_allowed(dst_cpu)
        if thread is None:
            thread = self.timeshare.first_allowed(dst_cpu)
        return thread

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tdq cpu{self.cpu} load={self.load} "
                f"rt={len(self.realtime)} ts={len(self.timeshare)}>")
