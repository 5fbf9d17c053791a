"""Tests for the random-stream infrastructure and metric registry
corners not covered elsewhere."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import LatencyRecorder, MetricRegistry
from repro.core.rng import RandomSource, RandomStream


# ------------------------------------------------------------------ rng

def test_streams_are_deterministic_per_name():
    a = RandomSource(42).stream("x")
    b = RandomSource(42).stream("x")
    assert [a.randint(0, 100) for _ in range(10)] == \
        [b.randint(0, 100) for _ in range(10)]


def test_streams_are_independent_across_names():
    src = RandomSource(42)
    x = [src.stream("x").randint(0, 10**9) for _ in range(5)]
    y = [src.stream("y").randint(0, 10**9) for _ in range(5)]
    assert x != y


def test_adding_a_stream_does_not_disturb_others():
    """The reproducibility property: a new consumer never changes the
    draws existing consumers see."""
    src1 = RandomSource(7)
    first = src1.stream("balance").randint(0, 10**9)

    src2 = RandomSource(7)
    src2.stream("newcomer").randint(0, 10**9)  # interleaved consumer
    second = src2.stream("balance").randint(0, 10**9)
    assert first == second


def test_stream_is_cached():
    src = RandomSource(1)
    assert src.stream("a") is src.stream("a")


def test_jitter_ns_bounds():
    stream = RandomSource(3).stream("j")
    for _ in range(100):
        v = stream.jitter_ns(1000, 0.25)
        assert 750 <= v <= 1250
    assert stream.jitter_ns(1000, 0.0) == 1000
    assert stream.jitter_ns(0, 0.5) >= 1  # never below 1 ns


def test_uniform_and_choice():
    stream = RandomSource(4).stream("u")
    for _ in range(50):
        assert 1.0 <= stream.uniform(1.0, 2.0) < 2.0
    assert stream.choice([5]) == 5


@pytest.mark.parametrize("draw", [
    lambda s: s.randint(0, 9),
    lambda s: s.uniform(0.0, 1.0),
    lambda s: s.expovariate(2.0),
    lambda s: s.choice([1, 2, 3]),
    lambda s: s.shuffle([1, 2, 3]),
    lambda s: s.gauss(0.0, 1.0),
    lambda s: s.jitter_ns(1000, 0.25),
], ids=["randint", "uniform", "expovariate", "choice", "shuffle",
        "gauss", "jitter_ns"])
def test_every_draw_flips_drew(draw):
    src = RandomSource(5)
    stream = src.stream("d")
    assert not src.drew()
    draw(stream)
    assert stream.draws == 1
    assert src.drew()


def test_creating_a_stream_and_zero_jitter_draw_nothing():
    """``jitter_ns`` with no spread returns ``base_ns`` without
    touching the generator, so it is not a draw."""
    src = RandomSource(6)
    stream = src.stream("quiet")
    assert stream.jitter_ns(1000, 0.0) == 1000
    assert stream.draws == 0
    assert not src.drew()


# -------------------------------------------------------------- metrics

def test_percentiles_interpolate():
    rec = LatencyRecorder("x")
    for v in (10, 20, 30, 40):
        rec.record(v)
    assert rec.p50 == pytest.approx(25.0)
    assert rec.percentile(0) == 10
    assert rec.percentile(100) == 40
    with pytest.raises(ValueError):
        rec.percentile(101)


def test_empty_recorder_is_safe():
    rec = LatencyRecorder("x")
    assert rec.mean == 0.0
    assert rec.p99 == 0.0
    assert rec.max == 0
    assert rec.count == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=50))
def test_property_percentiles_monotone_and_bounded(samples):
    rec = LatencyRecorder("x")
    for s in samples:
        rec.record(s)
    assert min(samples) <= rec.p50 <= rec.p95 <= rec.p99 <= rec.max
    assert rec.max == max(samples)


def test_series_value_at_step_semantics():
    reg = MetricRegistry()
    s = reg.series("s")
    s.record(10, 1.0)
    s.record(20, 2.0)
    assert s.value_at(5) is None
    assert s.value_at(10) == 1.0
    assert s.value_at(15) == 1.0
    assert s.value_at(25) == 2.0


def test_counter_default_zero_and_accumulation():
    reg = MetricRegistry()
    assert reg.counter("nope") == 0.0
    reg.incr("x")
    reg.incr("x", 2.5)
    assert reg.counter("x") == 3.5
