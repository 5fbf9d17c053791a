"""The per-CPU (and per-group) CFS runqueue.

Implements the vruntime timeline exactly as described in §2.1 of the
paper:

* entities ordered by vruntime, leftmost runs next (the kernel keeps
  the order in a red-black tree; the model keeps only the order, in a
  :class:`~repro.cfs.timeline.FlatTimeline`);
* ``min_vruntime`` advances monotonically and anchors placement;
* a newly forked entity starts one slice into the future (the paper's
  "starts with a vruntime equal to the maximum vruntime of the threads
  waiting in the runqueue" — START_DEBIT);
* a waking entity is placed no earlier than ``min_vruntime`` minus a
  sleeper credit (the paper's "updated to be at least equal to the
  minimum vruntime", which makes sleepers run first);
* the running entity is taken out of the tree (``set_next``) and
  reinserted when preempted (``put_prev``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from ..core.errors import SchedulerError
from .entity import SchedEntity
from .timeline import FlatTimeline
from .weights import calc_delta_fair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cgroup import TaskGroup
    from .params import CfsTunables


class CfsRq:
    """One CFS timeline: the runqueue of one task group on one CPU."""

    #: global structure generation, bumped by every enqueue / dequeue /
    #: reweight on *any* rq.  :meth:`sched_slice` results only depend
    #: on queue membership, weights and the (constant) tunables, so a
    #: memoized slice is valid exactly while the generation stands.
    #: Global rather than per-chain so invalidation needs no hierarchy
    #: walk; the cost is only spurious misses after unrelated churn.
    _gen = 0

    # ``_gen`` is a class attribute and must stay out of __slots__.
    __slots__ = ("cpu", "tunables", "group", "owner_entity", "tree",
                 "curr", "skip", "min_vruntime", "nr_running",
                 "load_weight", "h_nr_running", "_slice_memo")

    def __init__(self, cpu: int, tunables: "CfsTunables",
                 group: Optional["TaskGroup"] = None,
                 owner_entity: Optional[SchedEntity] = None):
        self.cpu = cpu
        self.tunables = tunables
        #: the task group whose threads this rq holds (None for a
        #: standalone rq); its ``load_weight_sum`` tracks ours
        self.group = group
        #: the group entity representing this rq one level up
        self.owner_entity = owner_entity
        #: the vruntime-ordered queued entities, with a maintained
        #: ``leftmost_value`` (see cfs/timeline.py)
        self.tree = FlatTimeline()
        self.curr: Optional[SchedEntity] = None
        self.skip: Optional[SchedEntity] = None
        self.min_vruntime = 0
        #: queued entities incl. curr
        self.nr_running = 0
        #: total weight of queued entities incl. curr
        self.load_weight = 0
        #: tasks queued in this rq and every descendant rq
        self.h_nr_running = 0
        #: id(se) -> (generation, slice_ns) memo for sched_slice
        self._slice_memo: dict = {}

    # ------------------------------------------------------------------
    # entity queue/dequeue
    # ------------------------------------------------------------------

    def enqueue_entity(self, se: SchedEntity) -> None:
        """Add an entity to this timeline (curr stays out of the tree)."""
        if se.on_rq:
            raise SchedulerError(f"{se} already queued")
        CfsRq._gen += 1
        se.cfs_rq = self
        se.on_rq = True
        self.nr_running += 1
        self.load_weight += se.weight
        if self.group is not None:
            self.group.load_weight_sum += se.weight
        if se is not self.curr:
            self.tree.insert(se.key, se)

    def dequeue_entity(self, se: SchedEntity) -> None:
        """Remove an entity (handles the running entity too)."""
        if not se.on_rq:
            raise SchedulerError(f"{se} not queued")
        CfsRq._gen += 1
        if se is self.curr:
            self.curr = None
        else:
            self.tree.remove(se.key)
        if se is self.skip:
            self.skip = None
        se.on_rq = False
        self.nr_running -= 1
        self.load_weight -= se.weight
        if self.group is not None:
            self.group.load_weight_sum -= se.weight
        self.update_min_vruntime()

    def reweight_entity(self, se: SchedEntity, new_weight: int) -> None:
        """Change a queued entity's weight (group share updates)."""
        CfsRq._gen += 1
        if se.on_rq:
            self.load_weight += new_weight - se.weight
            if self.group is not None:
                self.group.load_weight_sum += new_weight - se.weight
        if se.on_rq and se is not self.curr:
            self.tree.remove(se.key)
            se.weight = new_weight
            self.tree.insert(se.key, se)
        else:
            se.weight = new_weight
        se.avg.weight = new_weight

    # ------------------------------------------------------------------
    # picking
    # ------------------------------------------------------------------

    def pick_first(self) -> Optional[SchedEntity]:
        """Leftmost entity, honouring the yield-skip hint."""
        # maintained leftmost_value read (tick path; backend-agnostic)
        first = self.tree.leftmost_value
        if first is None:
            return None
        if first is self.skip:
            second = self.tree.second_value()
            if second is not None:
                first = second
        return first

    def set_next(self, se: SchedEntity) -> None:
        """Mark ``se`` running: remove it from the tree (Linux keeps the
        running entity out of the timeline)."""
        if se is self.curr:
            return
        if self.curr is not None:
            raise SchedulerError(f"rq cpu{self.cpu} already has a curr")
        self.tree.remove(se.key)
        self.curr = se
        self.skip = None
        se.slice_exec = 0

    def put_prev(self, se: SchedEntity) -> None:
        """The entity stopped running; reinsert it into the timeline."""
        if se is not self.curr:
            raise SchedulerError(f"{se} is not curr of cpu{self.cpu}")
        self.curr = None
        if se.on_rq:
            self.tree.insert(se.key, se)

    # ------------------------------------------------------------------
    # vruntime accounting
    # ------------------------------------------------------------------

    def update_curr(self, delta_ns: int) -> None:
        """Charge ``delta_ns`` of execution to the running entity."""
        se = self.curr
        if se is None or delta_ns <= 0:
            return
        se.sum_exec += delta_ns
        se.slice_exec += delta_ns
        weight = se.weight
        # nice-0 fast path inlined (calc_delta_fair would return
        # delta_ns unchanged)
        se.vruntime += delta_ns if weight == 1024 \
            else calc_delta_fair(delta_ns, weight)
        self.update_min_vruntime()

    def update_min_vruntime(self) -> None:
        """Advance ``min_vruntime`` monotonically toward the smallest
        live vruntime (curr or leftmost).  Allocation-free: this runs
        once per ``update_curr`` on the hottest accounting path."""
        curr = self.curr
        # maintained leftmost_value read (hottest path; backend-agnostic)
        leftmost = self.tree.leftmost_value
        if curr is not None and curr.on_rq:
            vruntime = curr.vruntime
            if leftmost is not None and leftmost.vruntime < vruntime:
                vruntime = leftmost.vruntime
        elif leftmost is not None:
            vruntime = leftmost.vruntime
        else:
            return
        if vruntime > self.min_vruntime:
            self.min_vruntime = vruntime

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def place_entity(self, se: SchedEntity, initial: bool) -> None:
        """Pick a vruntime for an entity joining this timeline."""
        vruntime = self.min_vruntime
        if initial and self.tunables.start_debit:
            # New threads start one slice into the future so they do
            # not immediately starve the queue (the "maximum vruntime"
            # rule of the paper).
            vruntime += self.sched_vslice(se)
        if not initial:
            credit = self.tunables.sched_latency_ns
            if self.tunables.gentle_fair_sleepers:
                credit //= 2
            vruntime -= credit
            # A sleeper keeps its old vruntime if it is already ahead.
            vruntime = max(se.vruntime, vruntime)
        se.vruntime = vruntime

    # ------------------------------------------------------------------
    # slice computation
    # ------------------------------------------------------------------

    def sched_slice(self, se: SchedEntity) -> int:
        """The wall-clock slice ``se`` should get per period, walking up
        the group hierarchy like the kernel's ``sched_slice``.

        Memoized per (entity, structure generation): the tick path
        recomputes the same slice every millisecond while the queue is
        unchanged.  An ``id(se)`` key cannot alias a dead entity — an
        entity only dies after a dequeue, which bumps the generation.
        """
        gen = CfsRq._gen
        memo = self._slice_memo
        hit = memo.get(id(se))
        if hit is not None and hit[0] == gen:
            return hit[1]
        nr = self.nr_running + (0 if se.on_rq else 1)
        slice_ns = self.tunables.sched_period(nr)
        rq: Optional[CfsRq] = self
        cursor: Optional[SchedEntity] = se
        while rq is not None and cursor is not None:
            load = rq.load_weight + (0 if cursor.on_rq else cursor.weight)
            if load > 0:
                slice_ns = slice_ns * cursor.weight // load
            cursor = rq.owner_entity
            rq = cursor.cfs_rq if cursor is not None else None
        if len(memo) > 256:
            memo.clear()
        memo[id(se)] = (gen, slice_ns)
        return slice_ns

    def sched_vslice(self, se: SchedEntity) -> int:
        """``sched_slice`` converted to vruntime units for ``se``."""
        return calc_delta_fair(self.sched_slice(se), se.weight)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def queued_entities(self) -> Iterator[SchedEntity]:
        """All queued entities including curr, timeline order last."""
        if self.curr is not None and self.curr.on_rq:
            yield self.curr
        yield from self.tree.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.group.name if self.group else "root"
        return (f"<CfsRq cpu{self.cpu} {label} nr={self.nr_running} "
                f"h_nr={self.h_nr_running}>")
