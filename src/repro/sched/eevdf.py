"""EEVDF: Earliest Eligible Virtual Deadline First.

The policy that replaced CFS's pure-vruntime pick in Linux 6.6
(Stoica & Abdel-Wahab's 1996 algorithm).  Each thread owns a
*virtual runtime* (executed time scaled by ``1024/weight``, exactly
CFS's :func:`~repro.cfs.weights.calc_delta_fair`) and a *virtual
deadline* one request-slice ahead of it.  The pick rule is two-level:

1. *eligibility* — a thread is eligible when its vruntime is at or
   behind the load-weighted average vruntime of the competing threads
   (it has received no more than its fair share so far);
2. among eligible threads, run the one with the **earliest virtual
   deadline** (falling back to all candidates when nobody is
   eligible, which can happen transiently after wakeups).

Wakeup placement clamps a sleeper's vruntime up to the queue minimum
so history never turns into an unbounded credit, and slice expiry
re-stamps the deadline one slice past the (grown) vruntime, which is
what rotates same-weight threads.

Expressed as a :class:`~repro.sched.policy.SchedPolicy`: ``on_charge``
advances vruntime, ``on_enqueue`` places and stamps deadlines,
``pick`` implements the two-level rule, and the default preemption
predicate (earlier deadline wins) provides wakeup preemption.
"""

from __future__ import annotations

from ..cfs.weights import calc_delta_fair, nice_to_weight
from ..core.clock import msec
from ..core.schedflags import EnqueueFlags
from .policy import PolicyScheduler, SchedPolicy

#: hoisted flag members: callers pass exactly one, so identity stands
#: in for ``flags & (WAKEUP | NEW)`` without the Flag arithmetic
_ENQ_WAKEUP = EnqueueFlags.WAKEUP
_ENQ_NEW = EnqueueFlags.NEW

#: the request slice: how much wall-clock service a thread asks for
#: per deadline period (vruntime-scaled per thread weight)
SLICE_NS = msec(3)


def _init_thread(sched, thread, state):
    state.weight = nice_to_weight(thread.nice)


def _on_charge(sched, thread, state, delta_ns):
    state.vruntime += calc_delta_fair(delta_ns, state.weight)


def _queue_min_vruntime(sched, core):
    """Minimum vruntime among threads already queued on ``core``
    (``None`` for an empty queue)."""
    lo = None
    for t in sched.runnable_threads(core):
        v = t.policy.vruntime
        if lo is None or v < lo:
            lo = v
    return lo


def _on_enqueue(sched, core, thread, state, flags):
    if flags is _ENQ_WAKEUP or flags is _ENQ_NEW:
        # Placement: a sleeper resumes at least at the queue minimum,
        # so time spent blocked is not banked as unbounded credit.
        floor = _queue_min_vruntime(sched, core)
        if floor is not None and state.vruntime < floor:
            state.vruntime = floor
        state.deadline = state.vruntime \
            + calc_delta_fair(SLICE_NS, state.weight)
    # MIGRATE keeps both vruntime and deadline: load balancing must
    # not reset a thread's fair-share position.


def _on_expire(sched, core, thread, state):
    # The slice is used up: ask for the next one.  vruntime has grown
    # by a full slice, so the fresh deadline lands behind every
    # same-weight thread that has been waiting.
    state.deadline = state.vruntime \
        + calc_delta_fair(SLICE_NS, state.weight)


def _key(sched, thread, state):
    return (state.deadline, state.vruntime)


def _pick(sched, core, candidates):
    # Two-level EEVDF rule over the weighted-average eligibility line.
    total_w = 0
    weighted_v = 0
    for t in candidates:
        st = t.policy
        total_w += st.weight
        weighted_v += st.weight * st.vruntime
    eligible = [t for t in candidates
                if t.policy.vruntime * total_w <= weighted_v]
    pool = eligible if eligible else candidates
    return min(pool, key=sched._key_of)


def _timeslice(sched, core, thread, state):
    return SLICE_NS


EEVDF_POLICY = SchedPolicy(
    name="eevdf",
    key=_key,
    pick=_pick,
    timeslice=_timeslice,
    on_charge=_on_charge,
    on_enqueue=_on_enqueue,
    on_expire=_on_expire,
    init_thread=_init_thread,
)


class EevdfScheduler(PolicyScheduler):
    """Earliest-eligible-virtual-deadline-first over per-core queues."""

    name = "eevdf"

    def __init__(self, engine):
        super().__init__(engine, EEVDF_POLICY)

    # -- oracle/test accessors -------------------------------------------

    def vruntime_of(self, thread) -> int:
        """The thread's weighted virtual runtime (ns)."""
        return thread.policy.vruntime

    def deadline_of(self, thread) -> int:
        """The thread's current virtual deadline (ns)."""
        return thread.policy.deadline
