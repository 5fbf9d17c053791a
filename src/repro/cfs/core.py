"""The Completely Fair Scheduler, as a pluggable scheduler class.

Faithful to §2.1 of the paper:

* weighted fair queueing on vruntime, leftmost-first from a timeline
  kept in vruntime order (the kernel's red-black tree, reduced to its
  order);
* 48 ms scheduling period stretching to 6 ms x nr beyond 8 threads,
  slice-expiry preemption at every 1 ms tick;
* wakeup preemption only when the woken thread's vruntime is more than
  1 ms (weight-scaled) behind the running thread's;
* fork placement one slice ahead, wakeup placement at no less than
  ``min_vruntime`` (minus the sleeper credit);
* per-application task groups (cgroup fairness);
* PELT load metric, hierarchical load balancing every 4 ms with a 25 %
  NUMA imbalance threshold, and immediate idle balancing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional

from ..core.clock import LINUX_TICK_NSEC
from ..core.errors import SchedulerError
from ..core.schedflags import DequeueFlags, EnqueueFlags, SelectFlags
from ..sched.base import SchedClass
from . import balance, placement
from .cgroup import TaskGroup
from .domains import SchedDomain, build_domains, domain_blueprint
from .entity import SchedEntity
from .params import CfsTunables
from .pelt import (HALF_LIFE_NS, _DECAY_CACHE, _DECAY_CACHE_MAX, _LN2,
                   _SATURATED)
from .runqueue import CfsRq
from .weights import calc_delta_fair, nice_to_weight

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine
    from ..core.machine import Core
    from ..core.thread import SimThread

#: hoisted singleton flag members.  Every caller passes exactly one
#: member, so identity tests stand in for ``flags & X`` without the
#: per-call Flag arithmetic (as in ``Engine._enqueue``).
_ENQ_MIGRATE = EnqueueFlags.MIGRATE
_ENQ_NEW = EnqueueFlags.NEW
_ENQ_WAKEUP = EnqueueFlags.WAKEUP
_DEQ_SLEEP = DequeueFlags.SLEEP
_DEQ_MIGRATE = DequeueFlags.MIGRATE
_SEL_FORK = SelectFlags.FORK


class CfsTaskState:
    """Per-thread CFS state (hangs off ``thread.policy``)."""

    __slots__ = ("se", "group", "last_wakee", "wakee_flips",
                 "wakee_flip_ts")

    def __init__(self, se: SchedEntity, group: TaskGroup):
        self.se = se
        self.group = group
        self.last_wakee: Optional["SimThread"] = None
        self.wakee_flips = 0
        self.wakee_flip_ts = 0


class CfsCpuRq:
    """Per-CPU container: the root timeline plus balancing state."""

    __slots__ = ("root", "domains", "curr_chain")

    def __init__(self, root: CfsRq, domains: list[SchedDomain]):
        self.root = root
        self.domains = domains
        #: the chain of runqueues whose ``curr`` leads to the running
        #: task (root first, task's runqueue last)
        self.curr_chain: list[CfsRq] = []


# schedlint: ignore[missing-slots] -- one instance per engine; fault injection patches methods and attributes
class CfsScheduler(SchedClass):
    """Linux CFS (4.9-era behaviour, the paper's baseline)."""

    name = "cfs"
    tick_ns = LINUX_TICK_NSEC

    def __init__(self, engine: "Engine",
                 tunables: Optional[CfsTunables] = None, **overrides):
        super().__init__(engine)
        self.tunables = tunables or CfsTunables(**overrides)
        ncpus = len(self.machine)
        self.root_group = TaskGroup("root", ncpus, self.tunables)
        self._app_groups: dict[str, TaskGroup] = {}
        self._started = False
        #: per-instant load memo, cpu-indexed (None = not computed at
        #: ``_load_cache_time``); balancing reads the same loads many
        #: times within one event instant.  It and the per-cpu state
        #: below are flat lists rather than dicts: cpu indices are
        #: dense and fixed at construction, and the balancer fold hits
        #: them hundreds of thousands of times per smoke run, where a
        #: list index is measurably cheaper than a dict probe.
        self._load_cache: list = [None] * ncpus
        self._load_cache_time = -1
        #: cpu -> bank (None = stale): the runnable tasks' ``(LoadAvg,
        #: weight)`` pairs in traversal order, valid until the cpu's
        #: runnable set (or timeline order, or a task weight) changes;
        #: lets :meth:`loads_for` skip the hierarchy walk entirely
        self._avgs_cache: list = [None] * ncpus
        #: cpu -> exact integer sum of the weights of the runnable
        #: tasks queued there (kept in enqueue/dequeue/renice by
        #: :meth:`_reweight`).  Every PELT term is at most its weight,
        #: so a cpu's load never exceeds this
        self.runnable_weight: list = [0] * ncpus
        blueprint = domain_blueprint(self.topology, self.tunables)
        #: one :class:`~repro.cfs.balance.GroupLoad` per distinct
        #: balancing group, indexed by ``SchedDomain.group_ids``; the
        #: balancer bounds group loads with them to prove a pass is a
        #: no-op before folding the span (balance._provably_balanced)
        self.group_loads: list = [balance.GroupLoad(group)
                                  for group in blueprint.groups]
        #: cpu -> the group loads whose group contains the cpu
        self._cpu_group_loads: list = [
            tuple(self.group_loads[gid] for gid in gids)
            for gids in blueprint.cpu_groups]
        #: reusable per-core balance-tick events
        self._lb_events: dict[int, object] = {}
        #: cpu -> this class's :class:`CfsCpuRq`, recorded by
        #: :meth:`init_core` (``core.rq`` itself, or ``core.rq.fair``
        #: under a class stack)
        self._cpurqs: list = [None] * ncpus

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def init_core(self, core: "Core") -> CfsCpuRq:
        domains = build_domains(core.index, self.topology, self.tunables)
        cpurq = CfsCpuRq(self.root_group.rq_on(core.index), domains)
        self._cpurqs[core.index] = cpurq
        return cpurq

    def cpurq(self, core: "Core") -> CfsCpuRq:
        """This class's per-CPU state — ``core.rq`` when CFS runs
        standalone, ``core.rq.fair`` under a class stack."""
        return self._cpurqs[core.index]

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        interval = self.tunables.balance_interval_ns
        for core in self.machine.cores:
            stagger = (core.index * interval) // max(1, len(self.machine))
            event = self.engine.events.make_reusable(
                self._balance_tick, core, label=f"cfs-lb:cpu{core.index}")
            self._lb_events[core.index] = event
            self.engine.events.repost(
                event, self.engine.now + interval + stagger)

    def _balance_tick(self, core: "Core") -> None:
        self.engine.events.repost(
            self._lb_events[core.index],
            self.engine.now + self.tunables.balance_interval_ns)
        if not core.online:
            # Offlined by fault injection: keep the chain ticking (the
            # core may come back) but pull no work onto a dead CPU.
            return
        if core.tick_stopped and core.is_idle:
            # The core's scheduler tick is parked (NO_HZ idle) but its
            # balance pass still arrives on schedule — the model of
            # Linux's nohz.idle_balance kick.
            balance.nohz_idle_balance(self, core)
        else:
            balance.periodic_balance(self, core)

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------

    def state_of(self, thread: "SimThread") -> CfsTaskState:
        """The thread's CFS state (``thread.policy``)."""
        return thread.policy

    def group_by_path(self, path: str) -> TaskGroup:
        """Resolve (creating as needed) a nested cgroup path such as
        ``"user1/appA"`` — the systemd pattern of §2.1: fairness
        between users, then between one user's applications."""
        group = self.root_group
        prefix = ""
        for part in path.strip("/").split("/"):
            if not part:
                continue
            prefix = f"{prefix}/{part}" if prefix else part
            child = self._app_groups.get(prefix)
            if child is None:
                child = TaskGroup(prefix, len(self.machine),
                                  self.tunables, parent=group)
                self._app_groups[prefix] = child
            group = child
        return group

    def _group_for(self, thread: "SimThread") -> TaskGroup:
        # An explicit cgroup path wins; otherwise autogroup groups by
        # application label; otherwise everything shares the root.
        path = thread.tags.get("cgroup")
        if path:
            return self.group_by_path(path)
        if not self.tunables.autogroup:
            return self.root_group
        return self.group_by_path(thread.app)

    def task_fork(self, parent: Optional["SimThread"],
                  child: "SimThread") -> None:
        weight = nice_to_weight(child.nice)
        se = SchedEntity(child, weight, self.engine.now)
        child.policy = CfsTaskState(se, self._group_for(child))

    def task_dead(self, thread: "SimThread") -> None:
        pass  # the entity was dequeued on exit; nothing to release

    def task_waking(self, thread: "SimThread", slept_ns: int) -> None:
        self.state_of(thread).se.avg.update(self.engine.now, False)

    def task_nice_changed(self, thread: "SimThread") -> None:
        se = self.state_of(thread).se
        new_weight = nice_to_weight(thread.nice)
        if se.cfs_rq is not None and se.on_rq:
            self._reweight(se.cfs_rq.cpu, new_weight - se.weight)
            se.cfs_rq.reweight_entity(se, new_weight)
            self._avgs_cache[se.cfs_rq.cpu] = None
        else:
            se.weight = new_weight
            se.avg.weight = new_weight

    def _reweight(self, cpu: int, delta: int) -> None:
        """Runnable weight on ``cpu`` changed by ``delta``: keep the
        per-cpu counter and the cpu's balancing groups in step."""
        self.runnable_weight[cpu] += delta
        now = self.engine.now
        for group in self._cpu_group_loads[cpu]:
            group.reweight(delta, now)

    # ------------------------------------------------------------------
    # enqueue / dequeue
    # ------------------------------------------------------------------

    @staticmethod
    def _group_path(group: TaskGroup) -> list[TaskGroup]:
        """Groups from the thread's group up to (excluding) the root."""
        path = []
        cursor = group
        while not cursor.is_root:
            path.append(cursor)
            cursor = cursor.parent
        return path

    def enqueue_task(self, core: "Core", thread: "SimThread",
                     flags: EnqueueFlags) -> None:
        cpu = core.index
        state = self.state_of(thread)
        se = state.se
        rq = state.group.rq_on(cpu)
        if flags is _ENQ_MIGRATE:
            se.vruntime += rq.min_vruntime
        elif flags is _ENQ_NEW:
            rq.place_entity(se, initial=True)
        elif flags is _ENQ_WAKEUP:
            rq.place_entity(se, initial=False)
        rq.enqueue_entity(se)
        rq.h_nr_running += 1
        self._reweight(cpu, se.weight)
        for group in self._group_path(state.group):
            gse = group.entity_on(cpu)
            parent_rq = group.parent.rq_on(cpu)
            if not gse.on_rq:
                parent_rq.place_entity(gse, initial=False)
                gse.cfs_rq = parent_rq
                parent_rq.enqueue_entity(gse)
            parent_rq.h_nr_running += 1
            group.update_group_weight(cpu)
        self._load_cache[cpu] = None
        self._avgs_cache[cpu] = None

    def dequeue_task(self, core: "Core", thread: "SimThread",
                     flags: DequeueFlags) -> None:
        cpu = core.index
        state = self.state_of(thread)
        se = state.se
        if flags is _DEQ_SLEEP:
            se.avg.update(self.engine.now, True)
        rq = state.group.rq_on(cpu)
        rq.dequeue_entity(se)
        rq.h_nr_running -= 1
        self._reweight(cpu, -se.weight)
        if flags is _DEQ_MIGRATE:
            se.vruntime -= rq.min_vruntime
        for group in self._group_path(state.group):
            gse = group.entity_on(cpu)
            parent_rq = group.parent.rq_on(cpu)
            if gse.on_rq and group.rq_on(cpu).nr_running == 0:
                parent_rq.dequeue_entity(gse)
            parent_rq.h_nr_running -= 1
            group.update_group_weight(cpu)
        self._load_cache[cpu] = None
        self._avgs_cache[cpu] = None

    # ------------------------------------------------------------------
    # picking
    # ------------------------------------------------------------------

    def pick_next(self, core: "Core") -> Optional["SimThread"]:
        cpurq = self.cpurq(core)
        # set_next/put_prev move entities between curr and the tree,
        # which reorders queued_entities() traversal.
        self._avgs_cache[core.index] = None
        for rq in reversed(cpurq.curr_chain):
            if rq.curr is not None:
                rq.put_prev(rq.curr)
        cpurq.curr_chain = []
        if cpurq.root.h_nr_running == 0:
            balance.newidle_balance(self, core)
            if cpurq.root.h_nr_running == 0:
                return None
        rq = cpurq.root
        chain: list[CfsRq] = []
        while True:
            se = rq.pick_first()
            if se is None:
                raise SchedulerError(
                    f"cpu{core.index}: h_nr_running says runnable but "
                    f"{rq} is empty")
            rq.set_next(se)
            chain.append(rq)
            if se.is_task:
                cpurq.curr_chain = chain
                return se.thread
            rq = se.my_rq

    def put_prev(self, core: "Core") -> None:
        """Reinsert the current entity chain into the timelines without
        picking (used when another scheduling class takes over)."""
        cpurq = self.cpurq(core)
        self._avgs_cache[core.index] = None
        for rq in reversed(cpurq.curr_chain):
            if rq.curr is not None:
                rq.put_prev(rq.curr)
        cpurq.curr_chain = []

    def yield_task(self, core: "Core") -> None:
        chain = self.cpurq(core).curr_chain
        if chain:
            leaf = chain[-1]
            leaf.skip = leaf.curr

    # ------------------------------------------------------------------
    # accounting, ticks, preemption
    # ------------------------------------------------------------------

    def update_curr(self, core: "Core", thread: "SimThread",
                    delta_ns: int) -> None:
        # cpurq and state_of inlined: runs on every accounting point
        for rq in self._cpurqs[core.index].curr_chain:
            rq.update_curr(delta_ns)
        thread.policy.se.avg.update(self.engine.now, True)

    def task_tick(self, core: "Core") -> None:
        min_gran = self.tunables.min_granularity_ns
        for rq in reversed(self._cpurqs[core.index].curr_chain):
            se = rq.curr
            if se is None:
                continue
            # _check_preempt_tick inlined: this runs per level on
            # every 1 ms tick.
            ideal = rq.sched_slice(se)
            slice_exec = se.slice_exec
            if slice_exec > ideal:
                core.need_resched = True
                continue
            if slice_exec < min_gran:
                continue
            first = rq.pick_first()
            if first is not None and \
                    se.vruntime - first.vruntime > ideal:
                core.need_resched = True

    def needs_tick(self, core: "Core") -> bool:
        # An idle CFS core has no tick work: PELT decays lazily (the
        # continuous form needs no periodic folding) and periodic
        # balancing runs from its own event chain, which keeps firing
        # on parked cores as a nohz kick (see _balance_tick).
        return not core.is_idle

    def check_preempt_wakeup(self, core: "Core",
                             thread: "SimThread") -> None:
        curr = core.current
        if curr is None or not curr.is_running:
            core.need_resched = True
            return
        if not self.tunables.wakeup_preemption:
            return
        curr_se = self.state_of(curr).se
        woken_se = self.state_of(thread).se
        matched = _find_matching(curr_se, woken_se)
        if matched is None:
            return
        curr_m, woken_m = matched
        gran = calc_delta_fair(self.tunables.wakeup_granularity_ns,
                               woken_m.weight)
        if curr_m.vruntime - woken_m.vruntime > gran:
            core.need_resched = True
            self.engine.metrics.incr("cfs.wakeup_preemptions")

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def select_task_rq(self, thread: "SimThread", flags: SelectFlags,
                       waker: Optional["SimThread"] = None) -> int:
        return placement.select_task_rq_fair(
            self, thread, is_fork=flags is _SEL_FORK,
            waker=waker)

    # ------------------------------------------------------------------
    # load queries & introspection
    # ------------------------------------------------------------------

    def weight_of(self, thread: "SimThread") -> int:
        """The thread's load weight (derived from its nice value)."""
        return self.state_of(thread).se.weight

    def vruntime_of(self, thread: "SimThread") -> int:
        """The thread's current virtual runtime, in weighted ns.

        Only comparable between threads queued on the same
        :class:`CfsRq` — cross-runqueue vruntimes live on different
        virtual clocks.
        """
        return self.state_of(thread).se.vruntime

    def cfs_rqs(self, core: "Core"):
        """Iterate every :class:`CfsRq` in ``core``'s cgroup hierarchy
        (root first).  Differential-oracle hook: fairness bounds such
        as the vruntime lag bound are per-runqueue properties."""
        stack = [self.cpurq(core).root]
        while stack:
            rq = stack.pop()
            yield rq
            entities = [se for _, se in rq.tree.items()]
            if rq.curr is not None:
                entities.append(rq.curr)
            for se in entities:
                if not se.is_task and se.my_rq is not None:
                    stack.append(se.my_rq)

    def thread_load(self, thread: "SimThread") -> float:
        """The thread's current PELT load contribution."""
        return self.state_of(thread).se.avg.peek(self.engine.now, True)

    def cpu_load(self, cpu: int) -> float:
        """Sum of runnable tasks' PELT loads on ``cpu`` (memoized per
        event instant, invalidated on enqueue/dequeue).

        The balancing hot path: instead of re-walking the runqueue
        hierarchy every pass, the per-task banks (``_avgs_cache``,
        invalidated on any runnable-set, timeline-order or weight
        change) feed the fold in :meth:`loads_for`, whose arithmetic
        is expression-for-expression identical to ``LoadAvg.peek`` so
        the result is bit-identical.
        """
        return self.loads_for((cpu,))[cpu]

    def _build_bank(self, cpu: int) -> list:
        """Collect ``cpu``'s runnable-task ``(LoadAvg, weight)`` bank
        (see ``_avgs_cache``)."""
        bank = []
        for t in self.runnable_threads(self.machine.cores[cpu]):
            avg = t.policy.se.avg
            bank.append((avg, avg.weight))
        self._avgs_cache[cpu] = bank
        return bank

    def loads_for(self, cpus: Iterable[int]) -> list:
        """Batch form of :meth:`cpu_load` for the balancer: validate
        the per-instant memo once, fill the missing entries in one
        tight loop, and return the live cpu-indexed memo list (entries
        outside ``cpus`` may be ``None``).

        Each bank's fold is ``LoadAvg.peek`` inlined, one loop per
        balancing pass instead of one call per average;
        ``tests/test_cfs_load_fold.py`` pins it bit-for-bit against a
        left-to-right sum of ``peek``.
        """
        now = self.engine.now
        cache = self._load_cache
        if self._load_cache_time != now:
            self._load_cache_time = now
            self._load_cache = cache = [None] * len(cache)
        avgs_cache = self._avgs_cache
        half_life = HALF_LIFE_NS
        exp = math.exp
        decay_cache = _DECAY_CACHE
        cache_get = decay_cache.get
        sat_point = _SATURATED
        build_bank = self._build_bank
        for cpu in cpus:
            if cache[cpu] is not None:
                continue
            bank = avgs_cache[cpu]
            if bank is None:
                bank = build_bank(cpu)
            load = 0.0
            for avg, weight in bank:
                delta = now - avg.last_update
                u = avg.util_avg
                if u >= sat_point and delta < half_life:
                    # saturated fixed point, d >= 0.5: the decayed
                    # value is u itself, bit-for-bit
                    load += u * weight
                elif delta <= 0:
                    load += u * weight
                else:
                    d = cache_get(delta)
                    if d is None:
                        # continuous-form PELT decay: delta/half_life is a dimensionless ratio
                        d = exp(-_LN2 * delta / half_life)
                        if len(decay_cache) >= _DECAY_CACHE_MAX:
                            decay_cache.clear()
                        decay_cache[delta] = d
                    load += (u * d + (1.0 - d)) * weight
            cache[cpu] = load
        return cache

    def runnable_threads(self, core: "Core") -> Iterable["SimThread"]:
        out: list["SimThread"] = []
        self._collect_tasks(self.cpurq(core).root, out)
        return out

    def _collect_tasks(self, rq: CfsRq, out: list) -> None:
        for se in rq.queued_entities():
            if se.is_task:
                out.append(se.thread)
            else:
                self._collect_tasks(se.my_rq, out)

    def nr_runnable(self, core: "Core") -> int:
        """Hierarchical runnable-task count (``h_nr_running``)."""
        return self.cpurq(core).root.h_nr_running


def _find_matching(se_a: SchedEntity, se_b: SchedEntity):
    """Walk two entity chains up to the level where they share a
    runqueue, so their vruntimes are comparable (the kernel's
    ``find_matching_se``).  Returns None when either leaves the
    hierarchy (different CPUs)."""
    chain_a = list(se_a.chain_up())
    chain_b = list(se_b.chain_up())
    ia, ib = len(chain_a) - 1, len(chain_b) - 1
    # Walk down from the roots while the runqueues keep matching.
    if chain_a[ia].cfs_rq is not chain_b[ib].cfs_rq:
        return None
    while ia > 0 and ib > 0 and \
            chain_a[ia - 1].cfs_rq is chain_b[ib - 1].cfs_rq:
        ia -= 1
        ib -= 1
    return chain_a[ia], chain_b[ib]
