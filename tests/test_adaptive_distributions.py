"""Tests for the latency-distribution helpers."""

import pytest

from repro.analysis.distributions import (log_histogram, percentile_row,
                                          render_histogram)
from repro.core.metrics import LatencyRecorder


# ---------------------------------------------------------- distributions

def test_log_histogram_buckets_cover_samples():
    samples = [100, 200, 1500, 1_000_000]
    rows = log_histogram(samples)
    assert sum(count for _, _, count in rows) == len(samples)
    # buckets are contiguous powers of two
    for (lo1, hi1, _), (lo2, hi2, _) in zip(rows, rows[1:]):
        assert hi1 == pytest.approx(lo2)


def test_log_histogram_ignores_nonpositive():
    assert log_histogram([0, -5]) == []
    rows = log_histogram([0, 8])
    assert sum(c for _, _, c in rows) == 1


def test_render_histogram_output():
    text = render_histogram([10**6, 2 * 10**6, 3 * 10**6],
                            title="demo")
    assert "demo" in text
    assert "#" in text
    assert "ms" in text
    assert render_histogram([]) .endswith("(no samples)")


def test_percentile_row_units():
    rec = LatencyRecorder("x")
    for v in (10**6, 2 * 10**6, 10 * 10**6):
        rec.record(v)
    row = percentile_row(rec)
    assert row["count"] == 3
    assert row["max"] == pytest.approx(10.0)
    assert row["p50"] == pytest.approx(2.0)
