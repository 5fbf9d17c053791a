"""Lightweight metric collection.

The engine and workloads record scalar counters, latency samples, and
time series through a single :class:`MetricRegistry`.  Everything is
plain Python so experiments can introspect results without a storage
backend.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Optional


class LatencyRecorder:
    """Accumulates duration samples and reports summary statistics."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: list[int] = []

    def record(self, value: int) -> None:
        """Add one duration sample (nanoseconds)."""
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def total(self) -> int:
        return sum(self.samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return float(ordered[lo])
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def max(self) -> int:
        return max(self.samples) if self.samples else 0


class TimeSeries:
    """A series of ``(time_ns, value)`` observations."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str):
        self.name = name
        self.times: list[int] = []
        self.values: list[float] = []

    def record(self, time_ns: int, value: float) -> None:
        """Append an observation (times must be non-decreasing)."""
        self.times.append(time_ns)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def as_data(self) -> dict:
        """The observations as plain JSON data (:meth:`from_data`
        rebuilds the series)."""
        return {"times": list(self.times), "values": list(self.values)}

    @classmethod
    def from_data(cls, name: str, data: dict) -> "TimeSeries":
        """The series named ``name`` holding :meth:`as_data`'s
        observations."""
        series = cls(name)
        series.times = list(data["times"])
        series.values = list(data["values"])
        return series

    def last(self) -> Optional[tuple[int, float]]:
        """The most recent ``(time, value)``, or None when empty."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def value_at(self, time_ns: int) -> Optional[float]:
        """Most recent value at or before ``time_ns`` (step semantics)."""
        result = None
        for t, v in zip(self.times, self.values):
            if t > time_ns:
                break
            result = v
        return result


class MetricRegistry:
    """Namespace of counters, latency recorders, and time series."""

    __slots__ = ("counters", "_latencies", "_series")

    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)
        self._latencies: dict[str, LatencyRecorder] = {}
        self._series: dict[str, TimeSeries] = {}

    # counters ----------------------------------------------------------

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] += amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never touched)."""
        return self.counters.get(name, 0.0)

    # latencies ---------------------------------------------------------

    def latency(self, name: str) -> LatencyRecorder:
        """The recorder named ``name``, created on first use."""
        if name not in self._latencies:
            self._latencies[name] = LatencyRecorder(name)
        return self._latencies[name]

    def latencies(self) -> Iterable[LatencyRecorder]:
        """All latency recorders."""
        return self._latencies.values()

    # series ------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        """The time series named ``name``, created on first use."""
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def series_names(self) -> list[str]:
        """Names of all recorded series, sorted."""
        return sorted(self._series)

    def has_series(self, name: str) -> bool:
        """True when a series named ``name`` was recorded."""
        return name in self._series
