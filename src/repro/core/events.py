"""The discrete-event queue.

:class:`EventQueue` is a binary heap of :class:`Event` handles, popped
in exactly ``(time, seq)`` order.  Design points:

* **Tuple entries.**  The heap stores ``(time, seq, event)`` tuples,
  so sift comparisons happen on C-level tuples instead of calling
  ``Event.__lt__`` — a large constant-factor win on the hottest path
  in the simulator.
* **Lazy cancellation.**  ``cancel()`` marks the event dead in O(1);
  dead entries are skipped on pop and reclaimed by compaction once
  they outnumber the live ones.  Accounting is *subtractive*:
  compaction decrements the dead counter by the number of entries it
  actually removed, never resets it to zero, and it filters the heap
  **in place** (``list[:] = ...``) so hoisted aliases held across a
  pop loop can never go stale.
* **Reusable events.**  Recurring fixed-callback events — the per-core
  scheduler tick, the resched IPI — go through
  :meth:`EventQueue.repost` instead of allocating a fresh ``Event``
  (and formatting a fresh label) every period.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Events fire in ``(time, seq)`` order, so simultaneous events fire
    in posting order, which keeps runs deterministic.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "popped", "label", "_queue")

    def __init__(self, time: int, seq: int,
                 callback: Callable[..., Any], args: tuple, label: str = "",
                 queue=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: True once the event has been returned by :meth:`EventQueue.pop`
        self.popped = False
        self.label = label
        self._queue = queue

    def cancel(self) -> bool:
        """Logically remove the event; it will be skipped when popped.

        Returns ``True`` when the event was live and is now cancelled.
        Cancelling twice, cancelling an event that has already fired,
        or cancelling a :meth:`EventQueue.make_reusable` event that was
        never scheduled is a documented no-op returning ``False`` — it
        never double-decrements the queue's live count.  Fault
        injection relies on this: dropping a resched IPI cancels the
        pending event without caring whether it already fired.
        """
        if self.cancelled or self.popped:
            return False
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel(self)
        return True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} {self.label}{state}>"


class EventQueue:
    """Binary heap of ``(time, seq, event)`` entries."""

    __slots__ = ("_heap", "_seq", "_live", "_dead_in_heap")

    def __init__(self):
        self._heap: list[tuple] = []
        self._seq = 0
        #: number of posted, not-yet-popped, not-cancelled events
        self._live = 0
        #: cancelled events still sitting in the heap
        self._dead_in_heap = 0

    def post(self, time: int, callback: Callable[..., Any], *args,
             label: str = "") -> Event:
        """Schedule ``callback(*args)`` at ``time``; returns a handle
        whose ``cancel()`` unschedules it."""
        self._seq += 1
        event = Event(time, self._seq, callback, args, label, queue=self)
        self._live += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def repost(self, event: Event, time: int) -> Event:
        """Re-arm a recurring event that has already fired.

        The event keeps its callback, args, and label; it gets a fresh
        sequence number so same-instant FIFO ordering is identical to
        posting a brand-new event.  The caller must guarantee the event
        is not currently in the heap (i.e. it was popped, or never
        posted).  This is the allocation-free path for per-core ticks.
        """
        self._seq += 1
        event.time = time
        event.seq = self._seq
        event.cancelled = False
        event.popped = False
        event._queue = self
        self._live += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def make_reusable(self, callback: Callable[..., Any], *args,
                      label: str = "") -> Event:
        """Create an unscheduled event for later :meth:`repost` calls."""
        event = Event(0, 0, callback, args, label, queue=self)
        event.popped = True  # not in the heap yet
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` when
        the queue is exhausted."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                event.popped = True
                self._live -= 1
                return event
            self._dead_in_heap -= 1
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry[0]
            heapq.heappop(heap)
            self._dead_in_heap -= 1
        return None

    def pop_before(self, limit: Optional[int]) -> Optional[Event]:
        """Fused peek + pop for the engine's run loop: remove and
        return the earliest live event unless its time exceeds
        ``limit`` (``None`` = no limit), in which case it stays queued
        and ``None`` is returned.  One heap traversal instead of the
        peek_time()/pop() pair."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                self._dead_in_heap -= 1
                continue
            if limit is not None and entry[0] > limit:
                return None
            heappop(heap)
            event.popped = True
            self._live -= 1
            return event
        return None

    def clear(self) -> None:
        """Drop every entry and reset all counters — including the
        sequence counter, so a reused engine replays the exact seq
        stream a fresh one would (``Engine.reset``)."""
        self._heap.clear()
        self._seq = 0
        self._live = 0
        self._dead_in_heap = 0

    def _note_cancel(self, event: Event) -> None:
        """Account for a just-cancelled in-queue event (called from
        :meth:`Event.cancel` exactly once per live event)."""
        self._live -= 1
        self._dead_in_heap += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once cancelled entries outnumber live ones
        (and the heap is big enough for the O(n) rebuild to pay off).

        Filters in place and subtracts the number of entries actually
        removed (see the module docstring) so the accounting stays
        correct no matter where compaction is triggered from.
        """
        heap = self._heap
        if self._dead_in_heap <= 64 or self._dead_in_heap * 2 <= len(heap):
            return
        before = len(heap)
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapq.heapify(heap)
        self._dead_in_heap -= before - len(heap)

    def _check_accounting(self) -> None:
        """Debug/test helper: verify counters against the actual heap
        contents; raises ``AssertionError`` on drift."""
        dead = sum(1 for e in self._heap if e[2].cancelled)
        live = len(self._heap) - dead
        assert self._live == live, (self._live, live)
        assert self._dead_in_heap == dead, (self._dead_in_heap, dead)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
