"""Host-speed calibration for the measured processes.

The benchmark runs on a few cores of a shared host whose speed swings
by up to 1.7x within seconds and by ~1.35x over minutes (other tenants
contend for the same cores and caches; a process's CPU time swings
with its wall time, so this is not time stolen from it), so a raw wall
time measures the host as much as the program.  A :class:`Sampler`
interrupts its process every ``PERIOD_S`` (a one-shot ``SIGALRM``
timer re-armed after each sample), runs :func:`chunk` -- a fixed
integer loop that calls no program code and allocates nothing the
garbage collector tracks -- and records the chunk's CPU time.  The
chunk slows down with the host as the simulator does: on a 2-vCPU
host, alternating it with a 128-core simulation for 180 s, simulation
time and adjacent chunk time correlated at 0.83, and dividing by the
chunk time cut the spread of 20 s windows' median simulation time from
11% to 2%.  (A chunk of scattered dict and attribute accesses over a
2 MB table did no better there and, cache-cold after each stretch of
simulation, slowed 1.2x more than the 1024-core workload in a slow
phase.)  So ``run.py`` scales every interval it reports by
``REF_CHUNK_S / median chunk time`` over it: times are *reference
seconds*, what the interval would take on a host where one chunk takes
``REF_CHUNK_S``.  The chunk is timed in thread
CPU time, so a chunk that waits for a core (the campaign's pool
workers keep both busy) still measures the core's speed, not the wait.

The chunks themselves stay in the measured times: about 5% of a
process's time, the same on every commit.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

#: seconds between the end of one chunk and the start of the next
PERIOD_S = 0.1
#: loop iterations of one chunk (~5 ms of CPU on the 2-vCPU x86 host
#: the benchmark was tuned on)
CHUNK_N = 70_000
#: the chunk time the reported reference seconds are scaled to
REF_CHUNK_S = 0.005


def chunk(n: int = CHUNK_N) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class Sampler:
    """Chunk times of one process: ``samples`` holds ``(monotonic
    start, CPU seconds)`` pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.pid: int | None = None
        self.armed = False

    @property
    def running(self) -> bool:
        """Sampling in this process (a forked child inherits the flag,
        not the timer)."""
        return self.armed and self.pid == os.getpid()

    def start(self) -> "Sampler":
        """Take a sample now and one every ``PERIOD_S`` until
        :meth:`stop`.  The first start in a process drops the samples
        a forked child inherited."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.samples = []
        self.armed = True
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        return self

    def stop(self) -> None:
        """Disarm the timer: the interpreter restores ``SIGALRM``'s
        default action (terminate) as it shuts down, so a process must
        stop its sampler before it exits."""
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, *_signal) -> None:
        start = time.monotonic()
        cpu = time.thread_time()
        chunk()
        self.samples.append((start, time.thread_time() - cpu))
        if self.armed:
            # re-armed only now, so a slow chunk never nests in another
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)


def speed(samples, start: float, end: float) -> float:
    """``REF_CHUNK_S`` over the median chunk time of the samples that
    started in ``[start, end]`` (of all samples when none did)."""
    times = [cpu for t, cpu in samples if start <= t <= end] \
        or [cpu for _t, cpu in samples]
    return REF_CHUNK_S / statistics.median(times)
