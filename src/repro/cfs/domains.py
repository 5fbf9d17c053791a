"""Scheduling domains: CFS's hierarchical view of the topology.

Each CPU owns a chain of domains from the tightest sharing level (LLC)
to the whole machine.  Periodic balancing walks this chain: small
domains are balanced often with a small imbalance tolerance, large
(NUMA-crossing) domains rarely and only for big imbalances — the
paper's "the greater the distance between two cores, the higher the
imbalance has to be" (§2.1, §6.1).

Degenerate levels (same span as the level below) are elided, like the
kernel's ``sd_degenerate`` — on the paper's Opteron the LLC and
NUMA-node levels coincide, leaving two domains per CPU: intra-node and
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.topology import Topology
    from .params import CfsTunables


@dataclass
class SchedDomain:
    """One balancing level for one CPU."""

    cpu: int
    name: str
    #: all CPUs this domain spans
    span: frozenset[int]
    #: the balancing groups inside the span (child-level spans)
    groups: tuple[frozenset[int], ...]
    #: how often this domain is balanced
    interval_ns: int
    #: busiest/local load ratio (x100) required to act
    imbalance_pct: int
    #: each group's index in :attr:`DomainBlueprint.groups` (parallel
    #: to ``groups``), so per-group balancing state is shared by every
    #: CPU whose domains contain the group
    group_ids: tuple[int, ...]
    #: the index of :meth:`local_group` in the same table
    local_id: int
    #: last time this domain was balanced (mutable bookkeeping)
    last_balance: int = 0
    #: consecutive balance attempts that moved nothing
    nr_balance_failed: int = 0

    def local_group(self) -> frozenset[int]:
        """The group containing this domain's CPU."""
        for group in self.groups:
            if self.cpu in group:
                return group
        raise ValueError(f"cpu {self.cpu} not in any group of {self.name}")


class DomainBlueprint(NamedTuple):
    """The balancing structure of one topology: every CPU's domain
    chain plus the table of distinct balancing groups."""

    #: per cpu, the ``SchedDomain`` constructor rows, smallest first
    rows: tuple[tuple[tuple, ...], ...]
    #: every distinct balancing group, once (an equal group in two
    #: CPUs' domains is the same object)
    groups: tuple[frozenset[int], ...]
    #: per cpu, the indices of the groups that contain it
    cpu_groups: tuple[tuple[int, ...], ...]


#: blueprint memo: (id(topology), balancing tunables) -> (topology,
#: DomainBlueprint).  Topologies are interned by
#: :mod:`repro.core.topology`, so campaign cells sharing a machine
#: shape hit the same entry and every engine after the first skips the
#: level/partition walk entirely; each engine still gets *fresh*
#: ``SchedDomain`` objects (last_balance / nr_balance_failed are
#: per-run state).  The stored topology reference both pins the id
#: against reuse and is identity-checked before trusting the entry.
_BLUEPRINTS: dict = {}
_BLUEPRINTS_MAX = 64


def domain_blueprint(topology: "Topology",
                     tunables: "CfsTunables") -> DomainBlueprint:
    """The memoized :class:`DomainBlueprint` of ``topology``: the chain
    *shape* is a pure function of the topology and the balancing
    tunables, so repeat engines (campaign cells, bench rounds) only
    pay fresh-object construction."""
    key = (id(topology), tunables.balance_interval_ns,
           tunables.imbalance_pct_llc, tunables.imbalance_pct_numa)
    entry = _BLUEPRINTS.get(key)
    if entry is None or entry[0] is not topology:
        if len(_BLUEPRINTS) >= _BLUEPRINTS_MAX:
            _BLUEPRINTS.clear()
        entry = _BLUEPRINTS[key] = (
            topology, _make_blueprint(topology, tunables))
    return entry[1]


def build_domains(cpu: int, topology: "Topology",
                  tunables: "CfsTunables") -> list[SchedDomain]:
    """Build the non-degenerate domain chain for one CPU, smallest
    first.  A domain's groups are the partition of its span by the next
    finer (non-degenerate) level; the finest partition is single CPUs.
    """
    return [SchedDomain(*row)
            for row in domain_blueprint(topology, tunables).rows[cpu]]


def _make_blueprint(topology: "Topology",
                    tunables: "CfsTunables") -> DomainBlueprint:
    """Build every CPU's chain, numbering each distinct group in the
    order the CPU-major walk first meets it.

    A domain's groups are the child partition (the level below, or
    single CPUs) inside its span.  Levels nest, so each child group
    lies in exactly one span: grouping the child partition by span once
    per level makes the whole build O(cpus x levels)."""
    ncpus = topology.ncpus
    has_numa = topology.has_level("numa")
    singletons = [frozenset({c}) for c in range(ncpus)]
    # per level: span -> its balancing groups, and cpu -> the child
    # group holding it (its domain's local group)
    levels = []
    partition = child_of = singletons
    for level in topology.levels:
        by_span: dict = {}
        for group in partition:
            span = topology.group_of(level.name, min(group))
            by_span.setdefault(span, []).append(group)
        levels.append((level, {span: tuple(sorted(groups, key=min))
                               for span, groups in by_span.items()},
                       child_of))
        partition = level.groups
        child_of = [topology.group_of(level.name, c) for c in range(ncpus)]
    index: dict[frozenset[int], int] = {}
    span_ids: dict = {}
    rows = []
    for cpu in range(ncpus):
        chain = []
        prev_span: frozenset[int] = singletons[cpu]
        level_idx = 0
        for level, groups_of, child_of in levels:
            span = topology.group_of(level.name, cpu)
            if span == prev_span:
                # Degenerate (e.g. LLC == NUMA node): skip.
                continue
            groups = groups_of[span]
            ids = span_ids.get((level.name, span))
            if ids is None:
                ids = span_ids[level.name, span] = tuple(
                    index.setdefault(g, len(index)) for g in groups)
            crosses_numa = (has_numa and not
                            span <= topology.group_of("numa", cpu))
            pct = (tunables.imbalance_pct_numa if crosses_numa
                   else tunables.imbalance_pct_llc)
            chain.append((cpu, level.name, span, groups,
                          tunables.balance_interval_ns * (2 ** level_idx),
                          pct, ids, index[child_of[cpu]]))
            prev_span = span
            level_idx += 1
        rows.append(tuple(chain))
    cpu_groups: list[list[int]] = [[] for _ in range(ncpus)]
    for gid, group in enumerate(index):
        for cpu in group:
            cpu_groups[cpu].append(gid)
    return DomainBlueprint(tuple(rows), tuple(index),
                           tuple(map(tuple, cpu_groups)))
