"""Flags passed between the engine and scheduler classes.

These mirror the Linux ``ENQUEUE_*`` / ``DEQUEUE_*`` flags that the
paper's Table 1 discussion hinges on: Linux distinguishes a wakeup
enqueue from a fork enqueue with a flag, which is how the port maps one
Linux entry point onto FreeBSD's two (``sched_add`` vs
``sched_wakeup``).

Every caller passes exactly one member, never a combination, so the
hot paths test flags by identity (``flags is X``) instead of paying
for ``Flag.__and__``.
"""

from __future__ import annotations

import enum


class EnqueueFlags(enum.Flag):
    NONE = 0
    #: the thread is being enqueued because it just woke up
    WAKEUP = enum.auto()
    #: the thread is newly created (fork/spawn)
    NEW = enum.auto()
    #: the thread is arriving from another CPU (load balancing)
    MIGRATE = enum.auto()
    #: re-queue after a yield
    YIELD = enum.auto()


class DequeueFlags(enum.Flag):
    NONE = 0
    #: the thread is going to sleep / blocking
    SLEEP = enum.auto()
    #: the thread is leaving for another CPU
    MIGRATE = enum.auto()
    #: the thread exited
    DEAD = enum.auto()


class SelectFlags(enum.Flag):
    NONE = 0
    #: placement for a newly created thread
    FORK = enum.auto()
    #: placement for a thread waking up
    WAKEUP = enum.auto()
