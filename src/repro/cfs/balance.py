"""CFS load balancing: periodic, hierarchical, load-metric driven.

Implements §2.1's description:

* every ``balance_interval`` (4 ms) each core walks its domain chain,
  larger domains at longer intervals;
* balancing evens out *load* (PELT averages weighted by priority), not
  thread counts;
* a pass detaches up to 32 tasks from the busiest CPU of the busiest
  group when the imbalance exceeds the domain's threshold (17 % inside
  a node, 25 % across nodes — the reason CFS never perfectly balances
  Fig. 6's spinners);
* cache-hot tasks (ran < 0.5 ms ago) resist migration until repeated
  failures override it;
* a core that goes idle immediately pulls work (idle/newidle balance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.clock import sec
from .pelt import decay_factor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.machine import Core
    from ..core.thread import SimThread
    from .core import CfsScheduler
    from .domains import SchedDomain

#: a memo older than this is ignored (it also bounds the number of
#: PELT updates, and so the rounding error, a projection spans)
MEMO_HORIZON_NS = sec(1)

#: relative slack of the projected bounds, as a fraction of ``W_g``;
#: covers the float error of the projection (docs/performance.md)
LOAD_SLACK = 2.0 ** -16


class GroupLoad:
    """One balancing group's runnable weight and decayed-load memo.

    One object per distinct group of the topology, shared by every CPU
    whose domains contain the group.  ``weight`` is ``W_g``, the exact
    integer sum of the group's ``CfsScheduler.runnable_weight``.  The
    memo ``(t0, deficit)`` records ``D = W_g - L_g(t0)`` from the last
    exact fold of the group's load ``L_g``.

    While no task on the group's CPUs is enqueued, dequeued or
    reweighted, every task in the group's banks stays runnable, so each
    PELT average's deficit ``1 - u`` decays by ``2**(-dt / H)`` whether
    or not ``LoadAvg.update`` ran in between.  The load at ``t0 + dt``
    is then ``W_g - D * decay_factor(dt)`` in exact arithmetic, and
    :meth:`bounds` widens that by ``LOAD_SLACK * W_g`` either way to
    cover the float error.
    """

    __slots__ = ("cpus", "size", "weight", "t0", "deficit")

    def __init__(self, cpus: frozenset[int]):
        self.cpus = cpus
        self.size = len(cpus)
        #: ``W_g``: runnable task weight on the group's CPUs
        self.weight = 0
        #: when the memo was taken; for a dropped memo, the instant it
        #: was dropped (see :meth:`remember`)
        self.t0 = 0
        #: ``W_g - L_g(t0)``, or None when there is no memo
        self.deficit: Optional[float] = None

    def reweight(self, delta: int, now: int) -> None:
        """The runnable set or a task weight changed on one of the
        group's CPUs: adjust ``W_g`` and drop the memo."""
        self.weight += delta
        self.deficit = None
        self.t0 = now

    def remember(self, now: int, load: float) -> None:
        """Memo the group's exactly folded ``load`` at ``now``.

        A memo dropped at ``now`` is not taken again until a later
        instant: the balancer's per-instant load cache is not cleared by
        a renice, so it may still hold a pre-renice load.
        """
        if self.deficit is None and self.t0 == now:
            return
        self.t0 = now
        self.deficit = self.weight - load

    def bounds(self, now: int) -> Optional[tuple[float, float]]:
        """``(lo, hi)`` around the group's load at ``now``, or None
        without a live memo."""
        deficit = self.deficit
        if deficit is None or now - self.t0 > MEMO_HORIZON_NS:
            return None
        weight = self.weight
        load = weight - deficit * decay_factor(now - self.t0)
        slack = weight * LOAD_SLACK
        return load - slack, load + slack


def nohz_idle_balance(sched: "CfsScheduler", core: "Core") -> None:
    """Balance on behalf of a tick-stopped idle core.

    Linux kicks one unparked CPU to run ``nohz_idle_balance()`` for all
    tickless-idle siblings; our per-core balance event chain never
    stops, so the kick degenerates to running the core's own periodic
    pass — identical work to the always-tick engine, plus a counter so
    experiments can see how often parked cores were balanced.
    """
    sched.engine.metrics.incr("cfs.nohz_kicks")
    periodic_balance(sched, core)


def periodic_balance(sched: "CfsScheduler", core: "Core") -> None:
    """One tick of the periodic balancer on ``core``: run every domain
    whose interval elapsed."""
    now = sched.engine.now
    idle = core.is_idle
    factor = sched.tunables.idle_balance_factor if idle else 1
    for domain in sched.cpurq(core).domains:
        if now - domain.last_balance < domain.interval_ns * factor:
            continue
        domain.last_balance = now
        load_balance(sched, core, domain, idle=idle)


def load_balance(sched: "CfsScheduler", core: "Core",
                 domain: "SchedDomain", idle: bool) -> int:
    """Try to pull load into ``core`` from the busiest group of
    ``domain``; returns the number of migrated tasks."""
    now = sched.engine.now
    group_loads = sched.group_loads
    local = group_loads[domain.local_id]
    bounds = local.bounds(now)
    if bounds is not None and _provably_balanced(
            group_loads, now, domain, local, bounds[0]):
        domain.nr_balance_failed = 0
        return 0
    local_group = local.cpus
    loads = sched.loads_for(local_group)
    local_load = 0.0
    for cpu in local_group:
        local_load += loads[cpu]
    local.remember(now, local_load)
    if _provably_balanced(group_loads, now, domain, local, local_load):
        domain.nr_balance_failed = 0
        return 0
    # Average over group size: the paper's "load of the NUMA nodes,
    # defined as the average load of their cores".
    local_avg = local_load / local.size
    # One batched pass over the span fills the per-instant memo; the
    # group sums then index it directly (the balancer's hot path).
    loads = sched.loads_for(domain.span)
    busiest_group = None
    busiest_load = local_load
    for gid in domain.group_ids:
        group = group_loads[gid]
        if group is local:
            continue
        load = 0.0
        for cpu in group.cpus:
            load += loads[cpu]
        group.remember(now, load)
        if load > busiest_load:
            busiest_group = group
            busiest_load = load
    if busiest_group is None:
        domain.nr_balance_failed = 0
        return 0
    busiest_avg = busiest_load / busiest_group.size
    if busiest_avg * 100 <= local_avg * domain.imbalance_pct:
        domain.nr_balance_failed = 0
        return 0
    victim_cpu = busiest_cpu_in(sched, busiest_group.cpus)
    if victim_cpu is None:
        return 0
    # Move enough load to even the two groups out, capped at
    # max_migrate tasks (the paper's 32).
    target_gap = (busiest_avg - local_avg) * local.size / 2
    moved = detach_and_move(sched, victim_cpu, core.index, target_gap,
                            domain)
    if moved:
        domain.nr_balance_failed = 0
    else:
        domain.nr_balance_failed += 1
    return moved


def _provably_balanced(group_loads: list, now: int,
                       domain: "SchedDomain", local: "GroupLoad",
                       local_load: float) -> bool:
    """True when no remote group's load *upper bound* can clear either
    gate of the full pass against ``local_load``, a lower bound on (or
    the exact value of) the local group's load, so that pass would
    find nothing to move.

    Exact, not a heuristic: a group that the full pass picks as the
    busiest has a load above the local load, so its upper bound is too,
    and IEEE rounding is monotone, so its bound's average passing the
    imbalance test means its smaller real average cannot fail it.  The
    upper bound is the group's runnable weight ``W_g`` (every PELT term
    is at most its task's weight), tightened by the decayed projection
    of :meth:`GroupLoad.bounds` while a memo is live.  Costs O(groups)
    instead of a PELT fold of every task in the span.
    """
    gate = local_load / local.size * domain.imbalance_pct
    for gid in domain.group_ids:
        group = group_loads[gid]
        if group is local:
            continue
        # W_g alone settles most groups; project only when it cannot
        weight = group.weight
        if weight <= local_load or weight / group.size * 100 <= gate:
            continue
        bounds = group.bounds(now)
        if bounds is None:
            return False
        high = bounds[1]
        if high > local_load and high / group.size * 100 > gate:
            return False
    return True


def busiest_cpu_in(sched: "CfsScheduler", group) -> Optional[int]:
    """The CPU with the highest load that has something to give."""
    best, best_load = None, 0.0
    for cpu in group:
        if sched.nr_runnable(sched.machine.cores[cpu]) == 0:
            continue
        load = sched.cpu_load(cpu)
        if best is None or load > best_load:
            best, best_load = cpu, load
    return best


def can_migrate_task(sched: "CfsScheduler", thread: "SimThread",
                     dst_cpu: int, domain: Optional["SchedDomain"]) -> bool:
    """The kernel's ``can_migrate_task``: not running, affinity allows
    the destination, and not cache-hot (unless balancing keeps
    failing)."""
    if thread.is_running:
        return False
    if not thread.allows_cpu(dst_cpu):
        return False
    if not sched.machine.cores[dst_cpu].online:
        return False
    hot = (sched.engine.now - thread.last_ran) < sched.tunables.cache_hot_ns
    if hot and domain is not None \
            and domain.nr_balance_failed <= sched.tunables.cache_nice_tries:
        return False
    return True


def detach_and_move(sched: "CfsScheduler", src_cpu: int, dst_cpu: int,
                    target_load: float,
                    domain: Optional["SchedDomain"]) -> int:
    """Detach tasks from ``src_cpu`` and attach them to ``dst_cpu``
    until ``target_load`` worth of load moved or the cap is hit.

    A task is never moved when doing so would leave the source with
    *less* load than the destination (the kernel rounds its imbalance
    the same way); otherwise two near-equal CPUs would trade the same
    task back and forth every balancing interval.
    """
    src_core = sched.machine.cores[src_cpu]
    moved = 0
    moved_load = 0.0
    src_load = sched.cpu_load(src_cpu)
    dst_load = sched.cpu_load(dst_cpu)
    candidates = [t for t in sched.runnable_threads(src_core)
                  if can_migrate_task(sched, t, dst_cpu, domain)]
    for thread in candidates:
        if moved >= sched.tunables.max_migrate:
            break
        if moved_load >= target_load:
            break
        if sched.nr_runnable(src_core) <= 1:
            break
        load = sched.thread_load(thread)
        if src_load - load < dst_load + load:
            continue  # would invert the imbalance: ping-pong
        sched.engine.migrate_thread(thread, dst_cpu)
        sched.engine.metrics.incr("cfs.balance_migrations")
        moved += 1
        moved_load += load
        src_load -= load
        dst_load += load
    return moved


def newidle_balance(sched: "CfsScheduler", core: "Core") -> int:
    """A core just ran out of work: immediately pull from the busiest
    CPU, walking domains from near to far (§2.1: "cores also
    immediately call the periodic load balancer when they become
    idle")."""
    moved = 0
    for domain in sched.cpurq(core).domains:
        moved = load_balance(sched, core, domain, idle=True)
        if moved:
            break
    sched.engine.metrics.incr("cfs.newidle_calls")
    return moved
