"""Per-subsystem event profiling (``--profile`` / ``REPRO_PROFILE``).

The perf work in this repo is measured, not asserted: the engine can
classify every event it executes by *subsystem* — the prefix of the
event label before the first ``:`` (``tick``, ``resched``, ``runend``,
``wake``, ``spawn``, ``unstall``, scheduler balance labels, …) — and
attribute the wall-clock **self-time** of the event's callback to that
subsystem.  The report shows where simulated time is actually spent,
which is how the hot-path changes in ``docs/performance.md`` were
validated.  The run loop also times each queue pop into the
:data:`QUEUE_BUCKET` pseudo-subsystem: its self-time is real
per-event cost, but its pops are not executed events, so
:attr:`EventProfiler.total_events` leaves it out.

The profiler is strictly off the hot path: when disabled (the
default), :meth:`Engine.run` takes a single ``is None`` branch per
event and allocates nothing.  When enabled it costs two
``perf_counter`` reads per event, so profiled throughput numbers are
*relative* (use ``make bench`` for absolute ones).

Profiled wall-clock use is measurement-only and never feeds back into
the simulation, hence the schedlint suppressions below.

``global_profiler()`` returns a process-wide instance shared by every
engine whose profiling was enabled via the environment — this is what
lets the campaign runner (``python -m repro.experiments run
--profile``, which forces serial execution) aggregate across all the
cells of a campaign.
"""

from __future__ import annotations

import os
from time import perf_counter_ns


def profile_from_env() -> bool:
    """``REPRO_PROFILE`` truthiness (unset/0/false/no/off = off)."""
    value = os.environ.get("REPRO_PROFILE", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


#: the run loop's queue-pop bucket: self-time only, never an event
QUEUE_BUCKET = "eventq"


class EventProfiler:
    """Accumulates per-subsystem event counts and callback self-time.

    ``record(label, ns)`` is called by the engine's run loop for every
    executed event; the subsystem is the label up to the first ``:``
    (the whole label when there is none, ``"?"`` for unlabelled
    events).
    """

    __slots__ = ("counts", "self_ns")

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}

    def record(self, label: str, ns: int) -> None:
        """Attribute one executed event (``ns`` of callback self-time)
        to the subsystem named by its label prefix."""
        subsystem = label.partition(":")[0] or "?"
        counts = self.counts
        if subsystem in counts:
            counts[subsystem] += 1
            self.self_ns[subsystem] += ns
        else:
            counts[subsystem] = 1
            self.self_ns[subsystem] = ns

    def merge(self, other: "EventProfiler") -> None:
        """Fold another profiler's totals into this one."""
        for subsystem, count in other.counts.items():
            self.counts[subsystem] = self.counts.get(subsystem, 0) + count
            self.self_ns[subsystem] = (self.self_ns.get(subsystem, 0)
                                       + other.self_ns[subsystem])

    def clear(self) -> None:
        """Reset all accumulated counts and self-times."""
        self.counts.clear()
        self.self_ns.clear()

    @property
    def total_events(self) -> int:
        """Executed events (the queue-pop bucket is not one)."""
        return sum(count for subsystem, count in self.counts.items()
                   if subsystem != QUEUE_BUCKET)

    def report(self) -> str:
        """A fixed-width table, subsystems sorted by self-time
        (descending, name-tiebroken for determinism)."""
        rows = sorted(self.counts,
                      key=lambda s: (-self.self_ns[s], s))
        total_n = self.total_events
        total_ns = sum(self.self_ns.values())
        lines = [f"{'subsystem':<14} {'events':>10} {'self-time':>12} "
                 f"{'%time':>6}  {'ns/event':>9}"]
        for subsystem in rows:
            count = self.counts[subsystem]
            ns = self.self_ns[subsystem]
            # presentation-only ratios; never feed back into the sim
            share = 100.0 * ns / total_ns if total_ns else 0.0  # schedlint: ignore[float-ns-clock]
            per = ns / count if count else 0.0  # schedlint: ignore[float-ns-clock]
            lines.append(f"{subsystem:<14} {count:>10} "
                         f"{ns / 1e6:>10.2f}ms {share:>5.1f}%  {per:>9.0f}")  # schedlint: ignore[float-ns-clock]
        lines.append(f"{'total':<14} {total_n:>10} "
                     f"{total_ns / 1e6:>10.2f}ms {100.0:>5.1f}%")  # schedlint: ignore[float-ns-clock]
        return "\n".join(lines)


#: the process-wide aggregation target for env-enabled profiling
_GLOBAL: EventProfiler | None = None


def global_profiler() -> EventProfiler:
    """The shared process-wide profiler (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = EventProfiler()
    return _GLOBAL


def timestamp() -> int:
    """Monotonic wall-clock in ns (measurement only; never feeds back
    into simulated state)."""
    return perf_counter_ns()  # schedlint: ignore[wall-clock]
