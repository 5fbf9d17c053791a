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

An optional numpy kernel (``REPRO_NUMPY=1`` and numpy importable)
vectorizes the term computation and the running sum.  It stays
bit-identical by construction: elementwise IEEE-754 multiply/add
round exactly like the scalar ops, decay factors still come from the
``math.exp``-filled cache (``np.exp`` is *not* guaranteed to match
``math.exp`` bit-for-bit), and the reduction uses ``np.cumsum`` —
whose prefix sums are sequential by definition — never the pairwise
``np.sum``.  It is off by default because at smoke scale (a handful
of runnable tasks per CPU) the array round-trip costs about what it
saves; the probe exists for hackbench-scale banks and is verified
digest-identical either way (``tests/test_peltbank.py``).
"""

from __future__ import annotations

import math
import os

from .pelt import (HALF_LIFE_NS, _DECAY_CACHE, _DECAY_CACHE_MAX, _LN2,
                   _SATURATED)


def numpy_enabled() -> bool:
    """``REPRO_NUMPY`` truthiness AND numpy importable (feature probe)."""
    value = os.environ.get("REPRO_NUMPY", "")
    if value.strip().lower() in ("", "0", "false", "no", "off"):
        return False
    try:  # pragma: no cover - exercised only where numpy exists
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is normally present
        return False
    return True


def fold_loads_python(avgs, weights, now):
    """Fold one bank: returns ``(load, saturated, min_last_update)``.

    ``load`` is the weighted sum of the decayed averages at ``now``;
    ``saturated`` says every average sat at the fixed point (so the
    caller may memo the sum as time-invariant) and ``min_last_update``
    is the stalest clock among those saturated terms.
    """
    load = 0.0
    saturated = True
    min_lu = now
    exp = math.exp
    decay_cache = _DECAY_CACHE
    cache_get = decay_cache.get
    sat_point = _SATURATED
    half_life = HALF_LIFE_NS
    for avg, weight in zip(avgs, weights):
        lu = avg.last_update
        delta = now - lu
        u = avg.util_avg
        if u >= sat_point and delta < half_life:
            # saturated fixed point, d >= 0.5: the decayed value is u
            # itself, bit-for-bit (see pelt._SATURATED)
            load += u * weight
            if lu < min_lu:
                min_lu = lu
        elif delta <= 0:
            load += u * weight
            saturated = False
        else:
            d = cache_get(delta)
            if d is None:
                # continuous-form PELT decay: delta/half_life is a dimensionless ratio
                d = exp(-_LN2 * delta / half_life)
                if len(decay_cache) >= _DECAY_CACHE_MAX:
                    decay_cache.clear()
                decay_cache[delta] = d
            load += (u * d + (1.0 - d)) * weight
            saturated = False
    return load, saturated, min_lu


def fold_loads_numpy(avgs, weights, now):
    """Numpy form of :func:`fold_loads_python` (same contract).

    Bit-identical: per-element ``(u*d + (1-d)) * w`` in IEEE-754
    elementwise ops (a saturated or zero-delta entry uses ``d = 1.0``,
    whose term ``(u*1.0 + 0.0) * w`` equals the scalar path's
    ``u * w`` exactly), decay factors gathered through the shared
    ``math.exp`` cache, and a sequential-prefix ``cumsum`` reduction.
    """
    import numpy as np

    n = len(avgs)
    if n == 0:
        return 0.0, True, now
    u_arr = np.empty(n)
    d_arr = np.empty(n)
    w_arr = np.asarray(weights, dtype=float)
    saturated = True
    min_lu = now
    exp = math.exp
    decay_cache = _DECAY_CACHE
    cache_get = decay_cache.get
    sat_point = _SATURATED
    half_life = HALF_LIFE_NS
    for i, avg in enumerate(avgs):
        lu = avg.last_update
        delta = now - lu
        u_arr[i] = avg.util_avg
        if u_arr[i] >= sat_point and delta < half_life:
            d_arr[i] = 1.0
            if lu < min_lu:
                min_lu = lu
        elif delta <= 0:
            d_arr[i] = 1.0
            saturated = False
        else:
            d = cache_get(delta)
            if d is None:
                # continuous-form PELT decay: delta/half_life is a dimensionless ratio
                d = exp(-_LN2 * delta / half_life)
                if len(decay_cache) >= _DECAY_CACHE_MAX:
                    decay_cache.clear()
                decay_cache[delta] = d
            d_arr[i] = d
            saturated = False
    terms = (u_arr * d_arr + (1.0 - d_arr)) * w_arr
    load = float(np.cumsum(terms)[-1])
    return load, saturated, min_lu


#: the active fold kernel, selected once at import (the probe is an
#: environment decision, not a per-call branch)
fold_loads = fold_loads_numpy if numpy_enabled() else fold_loads_python
