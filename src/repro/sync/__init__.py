"""Synchronization primitives for simulated threads: wait queues,
mutexes, semaphores, events, pipes, barriers, condition variables, and
request channels."""

from .barrier import Barrier, CascadingBarrier
from .channel import Channel
from .condvar import CondVar
from .mutex import Mutex
from .pipe import Pipe
from .semaphore import OneShotEvent, Semaphore
from .waitqueue import WaitQueue

__all__ = [
    "WaitQueue",
    "Mutex",
    "Semaphore",
    "OneShotEvent",
    "Pipe",
    "Barrier",
    "CascadingBarrier",
    "CondVar",
    "Channel",
]
