"""The CFS timeline: a runqueue's entities in vruntime order.

The kernel keeps this order in a red-black tree; the model needs only
the order, so it keeps ``(vruntime, tie)`` keys in a sorted list with
a parallel value list.  Insert/remove locate the slot by binary
search and shift with ``list.insert`` / ``del`` (a C memmove), which
beats pointer-chasing tree fixups at the runqueue depths the paper's
workloads reach — see docs/performance.md.

``leftmost_value`` is a maintained plain attribute (the hot read on
the tick and min_vruntime paths).  The unit tests diff every
operation against a plain ``dict`` read through ``sorted()``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator


class FlatTimeline:
    """Sorted parallel key/value arrays with a cached leftmost value."""

    __slots__ = ("_keys", "_values", "leftmost_value")

    def __init__(self):
        self._keys: list = []
        self._values: list = []
        #: value of the smallest key (None when empty) — maintained,
        #: not computed, so hot paths read one attribute
        self.leftmost_value: Any = None

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __contains__(self, key) -> bool:
        keys = self._keys
        idx = bisect_left(keys, key)
        return idx < len(keys) and keys[idx] == key

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def insert(self, key, value) -> None:
        """Insert ``key -> value``; raises on duplicate keys."""
        keys = self._keys
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            raise KeyError(f"duplicate key {key!r}")
        keys.insert(idx, key)
        self._values.insert(idx, value)
        if idx == 0:
            self.leftmost_value = value

    def remove(self, key) -> Any:
        """Remove ``key`` and return its value; raises KeyError if
        absent."""
        keys = self._keys
        idx = bisect_left(keys, key)
        if idx >= len(keys) or keys[idx] != key:
            raise KeyError(key)
        del keys[idx]
        value = self._values.pop(idx)
        if idx == 0:
            values = self._values
            self.leftmost_value = values[0] if values else None
        return value

    def second_value(self):
        """Value of the second-smallest key, or None."""
        values = self._values
        return values[1] if len(values) > 1 else None

    def items(self) -> Iterator[tuple]:
        """In-order ``(key, value)`` iteration."""
        return zip(self._keys, self._values)

    def values(self) -> Iterator[Any]:
        """In-order value iteration."""
        return iter(self._values)

    # ------------------------------------------------------------------
    # validation (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert sortedness and cache coherence; raises on violation."""
        keys = self._keys
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys)), "duplicate keys"
        assert len(keys) == len(self._values)
        expected = self._values[0] if self._values else None
        assert self.leftmost_value is expected, "leftmost cache stale"
