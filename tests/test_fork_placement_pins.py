"""Fork-placement pins at scale.

256 cores in 8 NUMA nodes (8-core LLCs) take 512 unpinned spinners in
two waves: 256 forks onto the idle machine at 0 ms, then 256 more at
2 ms, when every cpu runs a spinner.  The first wave takes the
idle-cpu answers of ``sched_pickcpu`` and ``select_task_rq_fair``; the
second takes the busy scans (ULE: no cpu qualifies, so the least
loaded one and a billed rescan; CFS: the least ``(load, h_nr_running,
cpu)``).  Each scheduler's pin holds the sha256 prefix of the
per-thread ``rq_cpu`` vector right after the second wave, the
``ule.pickcpu_scans`` and ``sched.overhead_ns`` counters, and the
schedule digest after 20 ms, so a placement change that moves one fork
or one billed core shows up here.
"""

import hashlib

import pytest

from repro.core import Engine
from repro.core.clock import msec, usec
from repro.core.topology import smp
from repro.sched import scheduler_factory
from repro.tracing.digest import schedule_digest
from repro.workloads import SpinnerWorkload

#: scheduler -> (options, rq_cpu vector hash, pickcpu_scans,
#: overhead_ns, schedule digest)
PLACEMENT_PINS = {
    "cfs": ({}, "4ff4930455adec7b", 0, 0, "e35245c881dbe684"),
    # 256 forks x 256 cores, then 256 x 2 x 256 (search and rescan)
    "ule": ({"pickcpu_scan_cost_ns": usec(1)}, "90166ecbbb9f9ce5",
            196_608, 196_608_000, "10b4f2b3f39ad0b3"),
}


@pytest.mark.parametrize("sched", sorted(PLACEMENT_PINS))
def test_two_fork_waves_at_256_cores_are_pinned(sched):
    options, vector_hash, scans, overhead, digest = PLACEMENT_PINS[sched]
    engine = Engine(smp(256, cpus_per_llc=8, numa_nodes=8),
                    scheduler_factory(sched, **options), seed=1)
    SpinnerWorkload(count=256, pin_cpu=None, name="wave1").launch(
        engine, at=0)
    engine.run(until=msec(2))
    SpinnerWorkload(count=256, pin_cpu=None, name="wave2").launch(
        engine, at=engine.now)
    placed = [t.rq_cpu for t in engine.threads]
    assert placed[:256] == list(range(256))  # one per idle cpu, in order
    vector = ",".join(map(str, placed)).encode()
    assert hashlib.sha256(vector).hexdigest()[:16] == vector_hash
    engine.run(until=msec(20))
    assert engine.metrics.counter("ule.pickcpu_scans") == scans
    assert engine.metrics.counter("sched.overhead_ns") == overhead
    assert schedule_digest(engine) == digest
