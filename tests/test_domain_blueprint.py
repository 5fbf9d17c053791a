"""The CFS domain blueprint equals the per-cpu walk it replaced.

:func:`repro.cfs.domains._make_blueprint` groups each level's child
partition by span once.  The oracle below is the walk it replaced,
which filters the whole child partition against every cpu's span; the
two must give the same rows, group table and group ids.
"""

import pytest

from repro.cfs.domains import DomainBlueprint, _make_blueprint
from repro.cfs.params import CfsTunables
from repro.core.topology import (Topology, TopologyLevel, i7_3770,
                                 opteron_6172, smp)


def _oracle_rows(cpu, topology, tunables, singletons):
    rows = []
    child_partition = singletons
    prev_span = frozenset({cpu})
    level_idx = 0
    for level in topology.levels:
        span = topology.group_of(level.name, cpu)
        if span == prev_span:
            child_partition = list(level.groups)
            continue
        groups = tuple(sorted((g for g in child_partition if g <= span),
                              key=min))
        crosses_numa = (topology.has_level("numa")
                        and not span <= topology.node_of(cpu))
        pct = (tunables.imbalance_pct_numa if crosses_numa
               else tunables.imbalance_pct_llc)
        rows.append((cpu, level.name, span, groups,
                     tunables.balance_interval_ns * (2 ** level_idx), pct))
        prev_span = span
        child_partition = list(level.groups)
        level_idx += 1
    return rows


def _oracle_blueprint(topology, tunables):
    singletons = [frozenset({c}) for c in range(topology.ncpus)]
    index = {}
    rows = []
    for cpu in range(topology.ncpus):
        chain = []
        for row in _oracle_rows(cpu, topology, tunables, singletons):
            groups = row[3]
            ids = tuple(index.setdefault(g, len(index)) for g in groups)
            local_id = next(gid for gid, g in zip(ids, groups) if cpu in g)
            chain.append(row + (ids, local_id))
        rows.append(tuple(chain))
    cpu_groups = [[] for _ in range(topology.ncpus)]
    for gid, group in enumerate(index):
        for cpu in group:
            cpu_groups[cpu].append(gid)
    return DomainBlueprint(tuple(rows), tuple(index),
                           tuple(map(tuple, cpu_groups)))


def _uneven():
    """Nodes of unequal size whose first node is one LLC (degenerate
    there only), on an SMT level."""
    return Topology(12, [
        TopologyLevel.make("smt", [[c, c + 1] for c in range(0, 12, 2)]),
        TopologyLevel.make("llc", [[0, 1, 2, 3], [4, 5, 6, 7],
                                   [8, 9, 10, 11]]),
        TopologyLevel.make("numa", [[0, 1, 2, 3], list(range(4, 12))]),
        TopologyLevel.make("machine", [list(range(12))]),
    ])


TOPOLOGIES = {
    "opteron": opteron_6172,
    "i7": i7_3770,
    "smp256": lambda: smp(256, cpus_per_llc=8, numa_nodes=8),
    "uneven": _uneven,
    "numa_scale": lambda: smp(1024, cpus_per_llc=8, numa_nodes=32),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_blueprint_matches_the_per_cpu_walk(name):
    topology = TOPOLOGIES[name]()
    tunables = CfsTunables()
    got = _make_blueprint(topology, tunables)
    want = _oracle_blueprint(topology, tunables)
    assert got.rows == want.rows
    assert got.groups == want.groups
    assert got.cpu_groups == want.cpu_groups
