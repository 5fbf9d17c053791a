"""The batched PELT fold layer (repro/cfs/peltbank.py).

The load-bearing property is **bit-identity**: folding a bank must
reproduce, bit for bit, the sum of walking the averages and peeking
each one (that is what keeps the flat balancer digest-identical to
the per-thread walk).  The inline copy of the fold inside
``CfsScheduler.loads_for`` is pinned against the module kernel by the
engine-level digests (tests/test_flat_timeline.py, golden traces).
"""

import random

import pytest

from repro.cfs.pelt import HALF_LIFE_NS, LoadAvg
from repro.cfs.peltbank import fold_loads_python


def _bank(seed, n, now):
    """A reproducible bank of ``n`` averages in assorted regimes:
    fresh, mid-decay, beyond the half-life, saturated, zero-delta."""
    rng = random.Random(f"peltbank:{seed}")
    avgs, weights = [], []
    for i in range(n):
        avg = LoadAvg()
        regime = rng.randrange(5)
        if regime == 0:       # fresh, partially ramped
            avg.util_avg = rng.random()
            avg.last_update = now - rng.randrange(1, HALF_LIFE_NS // 4)
        elif regime == 1:     # deep decay, past several half-lives
            avg.util_avg = rng.random()
            avg.last_update = now - rng.randrange(
                HALF_LIFE_NS, 8 * HALF_LIFE_NS)
        elif regime == 2:     # saturated inside the shortcut window
            avg.util_avg = 1.0
            avg.last_update = now - rng.randrange(1, HALF_LIFE_NS)
        elif regime == 3:     # saturated but stale beyond the window
            avg.util_avg = 1.0
            avg.last_update = now - rng.randrange(
                HALF_LIFE_NS, 3 * HALF_LIFE_NS)
        else:                 # updated at this very instant
            avg.util_avg = rng.random()
            avg.last_update = now
        weight = rng.choice((1024, 335, 3121, 88761))
        avg.weight = weight
        avgs.append(avg)
        weights.append(weight)
    return avgs, tuple(weights)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", (0, 1, 2, 7, 40))
def test_python_fold_matches_sequential_peek(seed, n):
    now = 10 * HALF_LIFE_NS
    avgs, weights = _bank(seed, n, now)
    load = fold_loads_python(avgs, weights, now)
    expected = 0.0
    for avg in avgs:
        expected += avg.peek(now, True)  # peek returns u * weight
    assert load == expected  # bit-identical, not approximately


def test_empty_bank_folds_to_zero():
    assert fold_loads_python([], (), 123) == 0.0
