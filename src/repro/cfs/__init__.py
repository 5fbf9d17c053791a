"""Linux CFS (Completely Fair Scheduler), as described in §2.1 of the
paper: vruntime fair queueing, cgroup fairness, PELT load tracking, and
hierarchical load balancing."""

from .cgroup import TaskGroup
from .core import CfsScheduler, CfsTaskState
from .entity import SchedEntity
from .params import CfsTunables
from .pelt import LoadAvg
from .runqueue import CfsRq
from .weights import NICE_0_LOAD, calc_delta_fair, nice_to_weight

__all__ = [
    "CfsScheduler",
    "CfsTaskState",
    "CfsTunables",
    "CfsRq",
    "SchedEntity",
    "TaskGroup",
    "LoadAvg",
    "NICE_0_LOAD",
    "nice_to_weight",
    "calc_delta_fair",
]
