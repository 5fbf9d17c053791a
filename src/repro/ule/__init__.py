"""FreeBSD ULE, as described in §2.2 of the paper and ported to the
Linux-style scheduler API per §3: interactive/batch runqueues, the
interactivity penalty, count-based load balancing, and idle stealing."""

from .core import UleScheduler, UleThreadState
from .interactivity import SleepRunHistory
from .params import UleTunables
from .priority import compute_priority
from .runq import RunQueue
from .tdq import Tdq

__all__ = [
    "UleScheduler",
    "UleThreadState",
    "UleTunables",
    "SleepRunHistory",
    "RunQueue",
    "Tdq",
    "compute_priority",
]
