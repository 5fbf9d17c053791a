"""The FaultPlan DSL: a declarative, seeded description of injected
faults.

A plan is plain data — frozen dataclasses with a stable JSON encoding
— so the same plan file replays the same faults on every run
(``repro-sched run --faults plan.json``), can be embedded in fuzz
campaigns, and round-trips through the campaign's result store.  The
fault taxonomy, determinism contract, and JSON schema are documented
in docs/fault-injection.md.

Fault kinds
-----------

``core-offline`` / ``core-online``
    Hotplug: at ``at_ns`` the CPU is removed (its threads drain to
    online cores through the scheduler's own placement path) or
    restored (the scheduler rebalances onto it).
``tick-jitter``
    Within ``[start_ns, end_ns)`` every periodic-tick re-arm on the
    matched CPUs is delayed by a uniform draw from
    ``[0, max_jitter_ns]`` (a bounded distribution: jitter never moves
    a tick earlier, and never more than the declared maximum).
``ipi-delay`` / ``ipi-drop``
    Resched IPIs (``Engine.request_resched``) inside the window are
    delayed by a uniform draw from ``[0, max_delay_ns]``, or dropped
    with probability ``prob`` — a drop is modelled as redelivery after
    ``redeliver_ns``, as on hardware where the wakeup eventually
    arrives via the next timer.
``thread-stall``
    At ``at_ns`` the named thread is yanked off the scheduler for
    ``duration_ns`` (page-fault storm / SMI analogue); stall time is
    accounted separately from sleep time.
``clock-coarsen``
    Sleep-timer wakeups landing inside the window are rounded *up* to
    the next multiple of ``granularity_ns`` (a coarse-grained timer
    wheel); a sleep never shortens.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union


def _window_ok(start_ns: int, end_ns: int) -> None:
    if start_ns < 0 or end_ns < start_ns:
        raise ValueError(f"bad fault window [{start_ns}, {end_ns})")


@dataclass(frozen=True)
class CoreOffline:
    """Remove ``cpu`` at ``at_ns`` (threads drain to online cores)."""
    at_ns: int
    cpu: int
    kind = "core-offline"

    def validate(self, ncpus: Optional[int] = None) -> None:
        if self.at_ns < 0 or self.cpu < 0:
            raise ValueError(f"bad {self.kind}: {self}")
        if ncpus is not None and self.cpu >= ncpus:
            raise ValueError(f"{self.kind}: cpu {self.cpu} >= {ncpus}")


@dataclass(frozen=True)
class CoreOnline:
    """Restore ``cpu`` at ``at_ns`` (the scheduler rebalances)."""
    at_ns: int
    cpu: int
    kind = "core-online"

    validate = CoreOffline.validate


@dataclass(frozen=True)
class TickJitter:
    """Delay tick re-arms by uniform ``[0, max_jitter_ns]`` inside the
    window; ``cpus=None`` matches every CPU."""
    start_ns: int
    end_ns: int
    max_jitter_ns: int
    cpus: Optional[Tuple[int, ...]] = None
    kind = "tick-jitter"

    def validate(self, ncpus: Optional[int] = None) -> None:
        _window_ok(self.start_ns, self.end_ns)
        if self.max_jitter_ns < 0:
            raise ValueError(f"negative max_jitter_ns: {self}")

    def matches(self, cpu: int, t: int) -> bool:
        return (self.start_ns <= t < self.end_ns
                and (self.cpus is None or cpu in self.cpus))


@dataclass(frozen=True)
class IpiDelay:
    """Delay resched IPIs by uniform ``[0, max_delay_ns]`` inside the
    window."""
    start_ns: int
    end_ns: int
    max_delay_ns: int
    cpus: Optional[Tuple[int, ...]] = None
    kind = "ipi-delay"

    def validate(self, ncpus: Optional[int] = None) -> None:
        _window_ok(self.start_ns, self.end_ns)
        if self.max_delay_ns < 0:
            raise ValueError(f"negative max_delay_ns: {self}")

    matches = TickJitter.matches


@dataclass(frozen=True)
class IpiDrop:
    """Drop resched IPIs with probability ``prob``; a dropped IPI is
    redelivered after ``redeliver_ns`` (never lost outright, so work
    conservation is only delayed, not broken)."""
    start_ns: int
    end_ns: int
    prob: float
    redeliver_ns: int
    cpus: Optional[Tuple[int, ...]] = None
    kind = "ipi-drop"

    def validate(self, ncpus: Optional[int] = None) -> None:
        _window_ok(self.start_ns, self.end_ns)
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob out of [0,1]: {self}")
        if self.redeliver_ns <= 0:
            raise ValueError(f"redeliver_ns must be positive: {self}")

    matches = TickJitter.matches


@dataclass(frozen=True)
class ThreadStall:
    """Stall the thread named ``thread`` for ``duration_ns`` starting
    at ``at_ns``; a no-op (recorded as skipped) when no live thread by
    that name is runnable at that instant."""
    at_ns: int
    thread: str
    duration_ns: int
    kind = "thread-stall"

    def validate(self, ncpus: Optional[int] = None) -> None:
        if self.at_ns < 0 or self.duration_ns <= 0 or not self.thread:
            raise ValueError(f"bad {self.kind}: {self}")


@dataclass(frozen=True)
class ClockCoarsen:
    """Round sleep wakeups inside the window up to the next multiple
    of ``granularity_ns``."""
    start_ns: int
    end_ns: int
    granularity_ns: int
    kind = "clock-coarsen"

    def validate(self, ncpus: Optional[int] = None) -> None:
        _window_ok(self.start_ns, self.end_ns)
        if self.granularity_ns <= 0:
            raise ValueError(f"granularity_ns must be positive: {self}")


Fault = Union[CoreOffline, CoreOnline, TickJitter, IpiDelay, IpiDrop,
              ThreadStall, ClockCoarsen]

_KINDS = {cls.kind: cls for cls in
          (CoreOffline, CoreOnline, TickJitter, IpiDelay, IpiDrop,
           ThreadStall, ClockCoarsen)}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of faults.

    ``seed`` feeds the plan's private RNG stream (tick jitter draws,
    IPI drop coin flips), so the same plan produces the same fault
    sequence regardless of the workload seed.  The empty plan is the
    identity: ``Engine(faults=FaultPlan())`` installs no injector and
    the schedule digest is byte-identical to ``faults=None``.
    """
    seed: int = 0
    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def is_empty(self) -> bool:
        return not self.faults

    def validate(self, ncpus: Optional[int] = None) -> None:
        for fault in self.faults:
            fault.validate(ncpus)

    # -- JSON encoding --------------------------------------------------

    def to_dict(self) -> dict:
        items = []
        for fault in self.faults:
            entry = {"kind": fault.kind}
            entry.update(asdict(fault))
            if "cpus" in entry and entry["cpus"] is not None:
                entry["cpus"] = list(entry["cpus"])
            items.append(entry)
        return {"seed": self.seed, "faults": items}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        faults = []
        for entry in data.get("faults", ()):
            entry = dict(entry)
            kind = entry.pop("kind")
            if kind not in _KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            if entry.get("cpus") is not None:
                entry["cpus"] = tuple(entry["cpus"])
            faults.append(_KINDS[kind](**entry))
        plan = cls(seed=int(data.get("seed", 0)), faults=tuple(faults))
        plan.validate()
        return plan

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.loads(Path(path).read_text())

    def dump(self, path) -> None:
        from ..core.artifacts import atomic_write_text
        atomic_write_text(path, self.dumps())

    # -- oracle support -------------------------------------------------

    def sleep_granularity_ns(self) -> int:
        """The coarsest clock-coarsening granularity in the plan (0
        when none): each voluntary sleep can overshoot its requested
        duration by strictly less than this."""
        gs = [f.granularity_ns for f in self.faults
              if isinstance(f, ClockCoarsen)]
        return max(gs) if gs else 0


def random_plan(seed: int, ncpus: int, horizon_ns: int,
                thread_names: Sequence[str] = (),
                protect_cpus: Sequence[int] = (0,)) -> FaultPlan:
    """Draw a random but *bounded* fault plan for chaos fuzzing.

    CPUs in ``protect_cpus`` (cpu 0 by default) are never offlined, so
    at least one core always survives; every offline gets a matching
    online inside the horizon; jitter/delay magnitudes are capped so
    scenarios still complete well inside the fuzzer's deadline.
    """
    rng = random.Random(f"repro.faults.plan:{seed}")
    faults: list[Fault] = []
    protected = set(protect_cpus)
    for cpu in range(ncpus):
        if cpu in protected or rng.random() >= 0.35:
            continue
        off_at = rng.randrange(0, max(1, horizon_ns // 2))
        on_at = rng.randrange(off_at + 1, horizon_ns + 1)
        faults.append(CoreOffline(at_ns=off_at, cpu=cpu))
        faults.append(CoreOnline(at_ns=on_at, cpu=cpu))
    if rng.random() < 0.5:
        start = rng.randrange(0, max(1, horizon_ns // 2))
        faults.append(TickJitter(
            start_ns=start,
            end_ns=rng.randrange(start + 1, horizon_ns + 1),
            max_jitter_ns=rng.randrange(1, 500_000)))
    if rng.random() < 0.4:
        start = rng.randrange(0, max(1, horizon_ns // 2))
        faults.append(IpiDelay(
            start_ns=start,
            end_ns=rng.randrange(start + 1, horizon_ns + 1),
            max_delay_ns=rng.randrange(1, 200_000)))
    if rng.random() < 0.3:
        start = rng.randrange(0, max(1, horizon_ns // 2))
        faults.append(IpiDrop(
            start_ns=start,
            end_ns=rng.randrange(start + 1, horizon_ns + 1),
            prob=rng.uniform(0.05, 0.5),
            redeliver_ns=rng.randrange(10_000, 1_000_000)))
    if rng.random() < 0.4:
        start = rng.randrange(0, max(1, horizon_ns // 2))
        faults.append(ClockCoarsen(
            start_ns=start,
            end_ns=rng.randrange(start + 1, horizon_ns + 1),
            granularity_ns=rng.choice((10_000, 100_000, 1_000_000))))
    for name in thread_names:
        if rng.random() < 0.25:
            faults.append(ThreadStall(
                at_ns=rng.randrange(0, max(1, horizon_ns)),
                thread=name,
                duration_ns=rng.randrange(1_000_000, 50_000_000)))
    return FaultPlan(seed=seed, faults=tuple(faults))
