"""Task groups (cgroups) for hierarchical fairness.

Since Linux 2.6.38, CFS is fair between *applications*, not threads
(§2.1): threads of one application are grouped in a cgroup, the cgroup
competes on the timeline as a single entity per CPU, and its threads
compete with each other inside the group's own runqueue.  This is why,
in Table 2, fibo (1 thread) gets ~50 % of a core against sysbench's 80
threads on CFS.

A :class:`TaskGroup` owns one :class:`~repro.cfs.runqueue.CfsRq` and
one group :class:`~repro.cfs.entity.SchedEntity` per CPU.  The group
entity's weight on a CPU is the group's share scaled by how much of the
group's queued load sits on that CPU (the kernel's
``calc_group_shares`` approximation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .entity import SchedEntity
from .runqueue import CfsRq
from .weights import MIN_WEIGHT, NICE_0_LOAD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .params import CfsTunables


class TaskGroup:
    """A cgroup: a named set of threads with a CPU share."""

    __slots__ = ("name", "parent", "shares", "children", "cfs_rqs",
                 "entities", "load_weight_sum")

    def __init__(self, name: str, ncpus: int, tunables: "CfsTunables",
                 parent: Optional["TaskGroup"] = None,
                 shares: int = NICE_0_LOAD):
        self.name = name
        self.parent = parent
        self.shares = shares
        self.children: list["TaskGroup"] = []
        #: ``sum(rq.load_weight for rq in cfs_rqs)``, kept by the
        #: runqueues as their weight changes
        self.load_weight_sum = 0
        if parent is None:
            # The root group's runqueues are the per-CPU top levels;
            # they have no owner entity.
            self.cfs_rqs = [CfsRq(cpu, tunables, group=self)
                            for cpu in range(ncpus)]
            self.entities: list[Optional[SchedEntity]] = [None] * ncpus
        else:
            parent.children.append(self)
            self.entities = []
            self.cfs_rqs = []
            for cpu in range(ncpus):
                se = SchedEntity(thread=None, weight=shares)
                rq = CfsRq(cpu, tunables, group=self, owner_entity=se)
                se.my_rq = rq
                self.entities.append(se)
                self.cfs_rqs.append(rq)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def rq_on(self, cpu: int) -> CfsRq:
        """This group's runqueue on ``cpu``."""
        return self.cfs_rqs[cpu]

    def entity_on(self, cpu: int) -> Optional[SchedEntity]:
        """This group's entity on ``cpu`` (None for the root)."""
        return self.entities[cpu]

    def total_load_weight(self) -> int:
        """Sum of this group's queued weight across all CPUs."""
        return self.load_weight_sum

    def group_weight_on(self, cpu: int) -> int:
        """The weight the group entity should have on ``cpu``:
        ``shares * cpu_load / total_load`` (>= MIN_WEIGHT)."""
        total = self.total_load_weight()
        if total <= 0:
            return max(MIN_WEIGHT, self.shares)
        weight = self.shares * self.cfs_rqs[cpu].load_weight // total
        return max(MIN_WEIGHT, min(weight, self.shares))

    def update_group_weight(self, cpu: int) -> None:
        """Recompute and apply the group entity weight on ``cpu``."""
        se = self.entities[cpu]
        if se is None:
            return
        new_weight = self.group_weight_on(cpu)
        if new_weight != se.weight and se.cfs_rq is not None:
            se.cfs_rq.reweight_entity(se, new_weight)
        else:
            se.weight = new_weight
            se.avg.weight = new_weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskGroup {self.name} shares={self.shares}>"
