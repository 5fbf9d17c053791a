"""Memory regression: a ULE engine at 1024 cores stays small.

Each cpu carries 128 per-priority FIFOs (64 realtime, 64 calendar
buckets); as ``collections.deque`` objects they made a 1024-core engine
allocate ~100 MB, as lists ~10 MB.
"""

import tracemalloc

from repro.core import Engine
from repro.core.topology import smp
from repro.sched import scheduler_factory


def test_ule_engine_at_1024_cores_allocates_under_20mb():
    tracemalloc.start()
    try:
        engine = Engine(smp(1024, cpus_per_llc=8, numa_nodes=32),
                        scheduler_factory("ule"), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(engine.scheduler.tdqs()) == 1024
    assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MB"
