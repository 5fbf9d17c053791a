"""BFS/MuQSS-style scheduler: one global queue, virtual deadlines.

Con Kolivas's BFS (later MuQSS) deliberately inverts the Linux/ULE
design point the paper studies: instead of per-core runqueues plus a
load balancer, there is **one shared queue** and every core picks the
globally best thread — perfect work conservation and no balancing
machinery, at the cost of lock contention the simulator does not
model (which is exactly why it is an interesting zoo member: it
isolates the *policy* difference from the *structure* difference).

Policy: every enqueue stamps a **virtual deadline**

    ``deadline = now + rr_interval * prio_ratio(nice) / 128``

where ``prio_ratio`` grows ~10% per nice level, so nicer threads get
proportionally later deadlines (BFS's actual formula).  Cores always
run the earliest-deadline runnable thread; slice expiry re-stamps the
deadline, which is what makes the queue round-robin at equal nice.

Expressed as a :class:`~repro.sched.policy.SchedPolicy` with
``global_queue=True``: the shared machinery keeps one queue, filters
per-core candidates by affinity, and pulls cross-core picks over with
a migration, so per-core invariants (``rq_cpu``, membership) still
hold exactly.
"""

from __future__ import annotations

from ..core.clock import msec
from ..core.schedflags import EnqueueFlags
from .policy import PolicyScheduler, SchedPolicy

#: hoisted flag member: callers pass exactly one, so identity stands
#: in for ``flags & MIGRATE`` without the Flag arithmetic
_ENQ_MIGRATE = EnqueueFlags.MIGRATE

#: BFS's rr_interval: the full-deadline quantum at nice 0
RR_NS = msec(6)

#: prio_ratios table: 128 at nice -20, growing ~10% per nice level
#: (BFS computes prio_ratios[i] = prio_ratios[i-1] * 11 / 10)
PRIO_RATIOS = [128]
for _ in range(39):
    PRIO_RATIOS.append(PRIO_RATIOS[-1] * 11 // 10)


def prio_ratio(nice: int) -> int:
    """The deadline-scaling ratio for ``nice`` (128 = fastest)."""
    return PRIO_RATIOS[max(-20, min(19, nice)) + 20]


def _stamp_deadline(sched, state, nice: int) -> None:
    state.deadline = sched.engine.now + RR_NS * prio_ratio(nice) // 128


def _on_enqueue(sched, core, thread, state, flags):
    if flags is not _ENQ_MIGRATE:
        # A migration (idle pull) keeps the stamped deadline; anything
        # else — wakeup, fork, requeue — earns a fresh one.
        _stamp_deadline(sched, state, thread.nice)


def _on_expire(sched, core, thread, state):
    _stamp_deadline(sched, state, thread.nice)


def _key(sched, thread, state):
    return (state.deadline,)


def _timeslice(sched, core, thread, state):
    return RR_NS


BFS_POLICY = SchedPolicy(
    name="bfs",
    key=_key,
    timeslice=_timeslice,
    on_enqueue=_on_enqueue,
    on_expire=_on_expire,
    global_queue=True,
)


class BfsScheduler(PolicyScheduler):
    """Single global queue, earliest-virtual-deadline pick."""

    name = "bfs"

    def __init__(self, engine):
        super().__init__(engine, BFS_POLICY)

    # -- oracle/test accessors -------------------------------------------

    def deadline_of(self, thread) -> int:
        """The thread's stamped wall-clock deadline (ns)."""
        return thread.policy.deadline
