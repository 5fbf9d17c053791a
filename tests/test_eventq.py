"""The binary-heap event queue: API contract + accounting regressions.

Pins the ``(time, seq)`` pop order, the fused ``pop_before`` limit,
reusable events, and the lazy-compaction accounting: compaction must
subtract what it actually removed, never reset counters, and must
filter the heap in place because the pop loop holds hoisted aliases.
"""

from repro.core.events import EventQueue


def drain(q):
    """Pop everything; returns the fired (time, seq) list and checks
    order + accounting along the way."""
    order = []
    while (e := q.pop()) is not None:
        order.append((e.time, e.seq))
        q._check_accounting()
    assert order == sorted(order)
    return order


def test_time_order_and_fifo_ties():
    q = EventQueue()
    fired = []
    q.post(300, fired.append, "c")
    q.post(100, fired.append, "a")
    q.post(100, fired.append, "a2")  # tie: FIFO by seq
    q.post(200, fired.append, "b")
    while (e := q.pop()) is not None:
        e.callback(*e.args)
    assert fired == ["a", "a2", "b", "c"]


def test_pop_before_limit_contract():
    q = EventQueue()
    q.post(10, lambda: None)
    q.post(20, lambda: None)
    assert q.pop_before(5) is None          # earliest beyond limit
    assert len(q) == 2                      # ... and stays queued
    assert q.pop_before(10).time == 10      # boundary is inclusive
    assert q.pop_before(None).time == 20    # None = no limit
    assert q.pop_before(None) is None       # drained
    assert q.pop_before(100) is None


def test_pop_before_skips_cancelled():
    q = EventQueue()
    dead = q.post(10, lambda: None)
    q.post(20, lambda: None)
    dead.cancel()
    # The dead head must not satisfy a limit that only it meets.
    assert q.pop_before(15) is None
    assert q.pop_before(25).time == 20
    q._check_accounting()


def test_repost_and_len():
    q = EventQueue()
    fired = []
    tick = q.make_reusable(fired.append, "t")
    q.repost(tick, 100)
    q.post(100, fired.append, "later")
    assert len(q) == 2 and bool(q)
    while (e := q.pop()) is not None:
        e.callback(*e.args)
    assert fired == ["t", "later"]
    assert len(q) == 0 and not q


def test_peek_time_matches_pop():
    q = EventQueue()
    q.post(7, lambda: None)
    q.post(3, lambda: None)
    assert q.peek_time() == 3
    assert q.pop().time == 3
    assert q.peek_time() == 7


def test_heap_compaction_is_subtractive_not_reset():
    """Two compaction-sized cancel waves with a pop between them —
    resetting ``_dead_in_heap`` to zero in the first compaction would
    let the second wave's dead entries leak."""
    q = EventQueue()
    keep = [q.post(100_000 + i, lambda: None) for i in range(5)]
    wave1 = [q.post(i, lambda: None) for i in range(200)]
    for e in wave1:
        e.cancel()
        q._check_accounting()
    assert len(q) == 5
    wave2 = [q.post(1000 + i, lambda: None) for i in range(200)]
    for e in wave2:
        e.cancel()
        q._check_accounting()
    assert len(q) == 5
    assert drain(q) == sorted((e.time, e.seq) for e in keep)


def test_compaction_during_drain_keeps_hoisted_alias_valid():
    """A callback that mass-cancels mid-drain triggers compaction
    while ``pop_before``'s hoisted ``heap`` alias is live: the filter
    must happen in place, and later pops must still see every
    surviving entry in order."""
    q = EventQueue()
    fired = []
    victims = []

    def massacre():
        fired.append("massacre")
        for e in victims:
            e.cancel()

    q.post(10, massacre)
    victims.extend(q.post(10, fired.append, i) for i in range(100))
    victims.extend(q.post(30, fired.append, i) for i in range(100, 200))
    survivor = q.post(50, fired.append, "survivor")
    while (e := q.pop_before(None)) is not None:
        e.callback(*e.args)
        q._check_accounting()
    assert fired == ["massacre", "survivor"]
    assert survivor.popped
    assert len(q) == 0


def test_purge_when_only_dead_entries_remain():
    q = EventQueue()
    entries = [q.post(i * 10, lambda: None) for i in range(64)]
    for e in entries:
        e.cancel()
    assert len(q) == 0
    assert q.pop() is None          # drains the dead entries
    assert not q._heap and q._dead_in_heap == 0
    q._check_accounting()

