"""Priority computation for ULE threads.

Two bands (§2.2):

* interactive threads: a linear interpolation of the score over the
  interactive band — penalty 0 is the best interactive priority,
  penalty == threshold the worst;
* batch threads: priority follows recent CPU usage ("the more a thread
  runs, the lower its priority"), with niceness added linearly.

Lower numbers are better, as in FreeBSD.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interactivity import SleepRunHistory
    from .params import UleTunables


def compute_priority(tun: "UleTunables", hist: "SleepRunHistory",
                     nice: int) -> tuple[int, bool]:
    """Return ``(priority, is_interactive)`` for a thread.

    One call-free body (it runs on every tick and enqueue): the score
    is ``SleepRunHistory.score`` and the batch usage is its
    ``cpu_share``, with the same float expressions, so the result is
    bit-identical to composing those methods.
    """
    r = hist.runtime
    s = hist.sleeptime
    m = tun.interact_half
    if s > r:
        score = int(m * (r / s)) + nice
    elif s:
        score = int(2 * m - m * (s / r)) + nice
    elif r:
        score = 2 * m + nice
    else:
        score = nice
    if score < 0:
        score = 0
    if score <= tun.interact_thresh:
        return score * tun.interact_prio_max // tun.interact_thresh, True
    # Usage claims the first ~60% of the batch band, nice the rest.
    lo = tun.batch_prio_min
    hi = tun.nqueues - 1
    span = hi - lo
    usage_span = (span * 3) // 5
    total = r + s
    usage = int(r / total * usage_span) if total else 0
    pri = lo + usage + (nice + 20) * (span - usage_span) // 40
    if pri > hi:
        pri = hi
    if pri < lo:
        pri = lo
    return pri, False
