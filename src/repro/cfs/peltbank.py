"""Batched PELT folding: the balancer's array-of-struct load layer.

The CFS balancer sums the decayed ``LoadAvg`` of every runnable task
on a CPU many times per balancing pass.  :class:`~repro.cfs.core
.CfsScheduler` keeps, per CPU, a *bank*: the task ``LoadAvg`` objects
in traversal order plus a parallel tuple of their weights, valid until
the runnable set (or timeline order, or a task weight) changes.  This
module owns the tight fold over one bank.

The fold is kept expression-for-expression identical to
``LoadAvg.peek`` so every term — and therefore the sequential sum —
is **bit-identical** to walking the hierarchy and peeking each average
(the property the golden-trace and differential gates pin down):

* the decay factor comes from the shared ``pelt._DECAY_CACHE``
  (``exp`` on the same integer delta yields the same float);
* a saturated average inside the ``d >= 0.5`` window contributes the
  time-invariant ``u * weight`` (see ``pelt._SATURATED``);
* terms accumulate left-to-right (float addition is order-sensitive).
"""

from __future__ import annotations

import math

from .pelt import (HALF_LIFE_NS, _DECAY_CACHE, _DECAY_CACHE_MAX, _LN2,
                   _SATURATED)


def fold_loads_python(avgs, weights, now):
    """Fold one bank: the weighted sum of the decayed averages at
    ``now``."""
    load = 0.0
    exp = math.exp
    decay_cache = _DECAY_CACHE
    cache_get = decay_cache.get
    sat_point = _SATURATED
    half_life = HALF_LIFE_NS
    for avg, weight in zip(avgs, weights):
        delta = now - avg.last_update
        u = avg.util_avg
        if u >= sat_point and delta < half_life:
            # saturated fixed point, d >= 0.5: the decayed value is u
            # itself, bit-for-bit (see pelt._SATURATED)
            load += u * weight
        elif delta <= 0:
            load += u * weight
        else:
            d = cache_get(delta)
            if d is None:
                # continuous-form PELT decay: delta/half_life is a dimensionless ratio
                d = exp(-_LN2 * delta / half_life)
                if len(decay_cache) >= _DECAY_CACHE_MAX:
                    decay_cache.clear()
                decay_cache[delta] = d
            load += (u * d + (1.0 - d)) * weight
    return load
