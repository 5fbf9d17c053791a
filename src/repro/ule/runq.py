"""FreeBSD's ``runq(9)``: an array of per-priority FIFOs with a bitmap.

Insertion appends to the FIFO indexed by the thread's priority; picking
takes the head of the highest-priority (lowest index) non-empty FIFO.
The occupancy bitmap makes find-first-set O(1), exactly like the
kernel's ``runq_choose``.

The FIFOs are plain lists: an empty list costs 56 bytes against an
empty ``deque``'s 760 (128 FIFOs per cpu), and ``pop(0)`` on a FIFO of
a few hundred threads is one short memmove.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from ..core.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.thread import SimThread


class RunQueue:
    """Priority-indexed FIFOs with an occupancy bitmap."""

    __slots__ = ("nqueues", "_queues", "bitmap", "count")

    def __init__(self, nqueues: int = 64):
        self.nqueues = nqueues
        self._queues: list[list] = [[] for _ in range(nqueues)]
        #: occupancy: bit ``p`` set while FIFO ``p`` holds a thread
        #: (read directly by ``sched_pickcpu``'s scan)
        self.bitmap = 0
        #: queued threads (read directly on the tick path)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def add(self, thread: "SimThread", priority: int,
            at_head: bool = False) -> None:
        """Append ``thread`` to the FIFO of ``priority`` (or push it at
        the head, for preempted threads that should resume first)."""
        if not 0 <= priority < self.nqueues:
            raise SchedulerError(f"priority {priority} out of range")
        queue = self._queues[priority]
        if at_head:
            queue.insert(0, thread)
        else:
            queue.append(thread)
        self.bitmap |= 1 << priority
        self.count += 1

    def remove(self, thread: "SimThread", priority: int) -> None:
        """Remove ``thread`` from the FIFO of ``priority``."""
        queue = self._queues[priority]
        try:
            queue.remove(thread)
        except ValueError:
            raise SchedulerError(
                f"{thread} not queued at priority {priority}") from None
        if not queue:
            self.bitmap &= ~(1 << priority)
        self.count -= 1

    def first_priority(self) -> Optional[int]:
        """Lowest occupied priority index (best), or None when empty."""
        if self.bitmap == 0:
            return None
        return (self.bitmap & -self.bitmap).bit_length() - 1

    def choose(self) -> Optional["SimThread"]:
        """Pop the head of the best non-empty FIFO."""
        pri = self.first_priority()
        if pri is None:
            return None
        queue = self._queues[pri]
        thread = queue.pop(0)
        if not queue:
            self.bitmap &= ~(1 << pri)
        self.count -= 1
        return thread

    def threads(self) -> Iterator["SimThread"]:
        """All queued threads, best priority first, FIFO order within."""
        bitmap = self.bitmap
        while bitmap:
            pri = (bitmap & -bitmap).bit_length() - 1
            bitmap &= bitmap - 1
            yield from self._queues[pri]

    def first_allowed(self, cpu: int) -> Optional["SimThread"]:
        """First queued thread whose affinity permits ``cpu``, in
        :meth:`threads` order — the balancer's steal scan, without the
        generator machinery (it runs on every idle poll)."""
        bitmap = self.bitmap
        queues = self._queues
        while bitmap:
            pri = (bitmap & -bitmap).bit_length() - 1
            bitmap &= bitmap - 1
            for thread in queues[pri]:
                affinity = thread.affinity
                if affinity is None or cpu in affinity:
                    return thread
        return None

    def check_invariants(self) -> None:
        """Validate bitmap/count consistency (used by tests)."""
        count = 0
        for pri, queue in enumerate(self._queues):
            bit = bool(self.bitmap & (1 << pri))
            assert bit == bool(queue), f"bitmap wrong at {pri}"
            count += len(queue)
        assert count == self.count


class CalendarRunQueue:
    """FreeBSD's *timeshare* calendar queue.

    Batch threads are not queued at their absolute priority: ULE
    spreads them around a circular buffer relative to a rotating
    insertion index (``tdq_idx``), and picks from a rotating removal
    index (``tdq_ridx``) that only advances when its bucket drains.
    The effect is a priority-*weighted* round robin with a hard bound
    on how long any batch thread waits — one lap of the calendar —
    regardless of how bad its priority is.  (This is why batch threads
    cannot starve *each other*, §2.2: "ULE tries to be fair among
    batch threads by minimizing the difference of runtime", while the
    interactive queue can still starve the whole batch class.)
    """

    __slots__ = ("nbuckets", "_buckets", "count", "insert_idx",
                 "remove_idx", "_bucket_of", "_bitmap", "_mask")

    def __init__(self, nbuckets: int = 64):
        self.nbuckets = nbuckets
        self._buckets: list[list] = [[] for _ in range(nbuckets)]
        #: queued threads (read directly on the tick path)
        self.count = 0
        #: rotating insertion origin (advanced by the tick)
        self.insert_idx = 0
        #: rotating removal index
        self.remove_idx = 0
        #: bucket each thread was filed under (for removal)
        self._bucket_of: dict[int, int] = {}
        #: occupancy bitmap — find-first-set from the removal index is
        #: O(1) (a rotate + ffs) instead of walking empty buckets
        self._bitmap = 0
        self._mask = (1 << nbuckets) - 1

    def _first_occupied(self, bitmap: int) -> int:
        """Index of the first bucket set in ``bitmap`` at or after
        ``remove_idx`` (circularly); caller guarantees ``bitmap != 0``."""
        r = self.remove_idx
        rotated = ((bitmap >> r)
                   | (bitmap << (self.nbuckets - r))) & self._mask
        distance = (rotated & -rotated).bit_length() - 1
        return (r + distance) % self.nbuckets

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def add(self, thread: "SimThread", priority: int,
            at_head: bool = False) -> None:
        """File ``thread`` ``priority`` buckets after the insertion
        origin (so worse priorities land further around the circle)."""
        if not 0 <= priority < self.nbuckets:
            raise SchedulerError(f"priority {priority} out of range")
        bucket = (self.insert_idx + priority) % self.nbuckets
        if at_head:
            # preempted threads resume from the removal point
            bucket = self.remove_idx
            self._buckets[bucket].insert(0, thread)
        else:
            self._buckets[bucket].append(thread)
        self._bucket_of[thread.tid] = bucket
        self._bitmap |= 1 << bucket
        self.count += 1

    def remove(self, thread: "SimThread",
               priority: int = -1) -> None:
        """Remove a thread from its calendar bucket."""
        try:
            bucket = self._bucket_of.pop(thread.tid)
        except KeyError:
            raise SchedulerError(f"{thread} not in calendar") from None
        queue = self._buckets[bucket]
        queue.remove(thread)
        if not queue:
            self._bitmap &= ~(1 << bucket)
        self.count -= 1

    def choose(self) -> Optional["SimThread"]:
        """Pop from the removal index, advancing it across empty
        buckets (never past the insertion origin + a full lap).

        The bitmap jump lands on exactly the bucket the one-step walk
        would have stopped at, and leaves ``remove_idx`` there — the
        same state the walk produces."""
        if self.count == 0:
            return None
        idx = self._first_occupied(self._bitmap)
        self.remove_idx = idx
        bucket = self._buckets[idx]
        thread = bucket.pop(0)
        self._bucket_of.pop(thread.tid, None)
        if not bucket:
            self._bitmap &= ~(1 << idx)
        self.count -= 1
        return thread

    def requeue_choose(self, thread: "SimThread",
                       priority: int) -> "SimThread":
        """:meth:`add` ``thread`` at ``priority`` then :meth:`choose`,
        in one pass (the switch of an all-batch core).

        The thread's bucket joins the bitmap the first occupied bucket
        is found on.  When that is its own, otherwise empty bucket the
        thread is chosen again without touching the bucket list;
        otherwise it is appended and the head of the first occupied
        bucket is popped.  Every field ends as add + choose leave it
        (``count`` is unchanged: one in, one out)."""
        if not 0 <= priority < self.nbuckets:
            raise SchedulerError(f"priority {priority} out of range")
        bucket = (self.insert_idx + priority) % self.nbuckets
        bitmap = self._bitmap | (1 << bucket)
        idx = self._first_occupied(bitmap)
        self.remove_idx = idx
        queue = self._buckets[idx]
        if idx == bucket and not queue:
            return thread
        self._buckets[bucket].append(thread)
        nxt = queue.pop(0)
        bucket_of = self._bucket_of
        bucket_of[thread.tid] = bucket
        bucket_of.pop(nxt.tid, None)
        if not queue:
            bitmap &= ~(1 << idx)
        self._bitmap = bitmap
        return nxt

    def first_priority(self) -> Optional[int]:
        """Distance of the first occupied bucket from the removal
        index — the calendar's notion of 'best'."""
        if self.count == 0:
            return None
        return (self._first_occupied(self._bitmap)
                - self.remove_idx) % self.nbuckets

    def advance(self) -> None:
        """Advance the insertion origin one bucket (called from the
        stathz tick, like FreeBSD's tdq_idx rotation)."""
        self.insert_idx = (self.insert_idx + 1) % self.nbuckets

    def threads(self) -> Iterator["SimThread"]:
        """All queued threads in pop order around the circle."""
        idx = self.remove_idx
        for _ in range(self.nbuckets):
            yield from self._buckets[idx]
            idx = (idx + 1) % self.nbuckets

    def first_allowed(self, cpu: int) -> Optional["SimThread"]:
        """First queued thread whose affinity permits ``cpu``, in
        :meth:`threads` order (see ``RunQueue.first_allowed``); stops
        once every queued thread has been seen instead of walking all
        the empty buckets."""
        if self.count == 0:
            return None
        r = self.remove_idx
        nbuckets = self.nbuckets
        rotated = ((self._bitmap >> r)
                   | (self._bitmap << (nbuckets - r))) & self._mask
        buckets = self._buckets
        while rotated:
            distance = (rotated & -rotated).bit_length() - 1
            rotated &= rotated - 1
            for thread in buckets[(r + distance) % nbuckets]:
                affinity = thread.affinity
                if affinity is None or cpu in affinity:
                    return thread
        return None

    def check_invariants(self) -> None:
        """Validate bucket/count/bitmap bookkeeping (used by tests)."""
        count = 0
        for i, bucket in enumerate(self._buckets):
            for t in bucket:
                assert self._bucket_of[t.tid] == i
            assert bool(self._bitmap & (1 << i)) == bool(bucket), \
                f"bitmap wrong at {i}"
            count += len(bucket)
        assert count == self.count == len(self._bucket_of)
