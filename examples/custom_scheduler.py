#!/usr/bin/env python3
"""Write your own scheduler and race it against CFS and ULE.

The engine accepts any :class:`repro.sched.base.SchedClass`
implementation — the same interface the paper's Table 1 describes.
This example implements a tiny *lottery scheduler* (tickets
proportional to nice weight, winner picked per slice) in ~80 lines,
registers it as ``"tickets"`` (the zoo already has a ``"lottery"``,
and a registered name cannot be registered again), and compares all
three schedulers on a mixed workload.

    $ python examples/custom_scheduler.py
"""

from repro.core import Engine, Run, Sleep, ThreadSpec
from repro.core.clock import msec, sec
from repro.core.schedflags import DequeueFlags, EnqueueFlags, SelectFlags
from repro.core.topology import smp
from repro.sched import SchedClass, register_scheduler, scheduler_factory


class LotteryRunqueue:
    def __init__(self):
        self.threads = []
        self.slice_used = 0


class LotteryScheduler(SchedClass):
    """Probabilistic proportional share: each slice, draw a winner
    weighted by (20 - nice) tickets."""

    name = "tickets"

    def __init__(self, engine, timeslice_ns=msec(10)):
        super().__init__(engine)
        self.timeslice_ns = timeslice_ns
        self._rng = engine.random.stream("lottery")

    def init_core(self, core):
        return LotteryRunqueue()

    def enqueue_task(self, core, thread, flags):
        core.rq.threads.append(thread)

    def dequeue_task(self, core, thread, flags):
        core.rq.threads.remove(thread)

    def pick_next(self, core):
        rq = core.rq
        if not rq.threads:
            return None
        total = sum(20 - t.nice for t in rq.threads)
        draw = self._rng.uniform(0.0, total)
        acc = 0.0
        for thread in rq.threads:
            acc += 20 - thread.nice
            if draw <= acc:
                rq.slice_used = 0
                return thread
        return rq.threads[-1]

    def select_task_rq(self, thread, flags, waker=None):
        candidates = [c for c in self.machine.cores
                      if thread.allows_cpu(c.index)]
        return min(candidates,
                   key=lambda c: (len(c.rq.threads), c.index)).index

    def task_tick(self, core):
        core.rq.slice_used += self.tick_ns
        if len(core.rq.threads) > 1 \
                and core.rq.slice_used >= self.timeslice_ns:
            core.need_resched = True

    def runnable_threads(self, core):
        return list(core.rq.threads)


def mixed_workload(engine):
    def hog(ctx):
        while True:
            yield Run(msec(20))

    def sleeper(ctx):
        while True:
            yield Sleep(msec(8))
            yield Run(msec(2))

    threads = []
    threads.append(engine.spawn(ThreadSpec("hog-nice0", hog, nice=0)))
    threads.append(engine.spawn(ThreadSpec("hog-nice10", hog, nice=10)))
    threads.append(engine.spawn(ThreadSpec("sleeper", sleeper)))
    return threads


def main() -> None:
    register_scheduler(
        "tickets", lambda engine, **kw: LotteryScheduler(engine, **kw))

    for sched in ("cfs", "ule", "tickets"):
        engine = Engine(smp(2), scheduler_factory(sched), seed=42)
        threads = mixed_workload(engine)
        engine.run(until=sec(10))
        shares = {t.name: 100.0 * t.total_runtime / engine.now
                  for t in threads}
        formatted = "  ".join(f"{k}={v:4.1f}%" for k, v in shares.items())
        print(f"{sched:<8} {formatted}")


if __name__ == "__main__":
    main()
