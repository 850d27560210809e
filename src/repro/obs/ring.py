"""The one bounded ring every retained telemetry record goes through.

The audit and incident logs, the wait-event profiler, the request and
server-span tracers and the lock manager's :class:`LockTrace` all keep
the newest N records of their kind for forensics and export, and all
need to know how many records there ever were once older ones have been
evicted.  :class:`BoundedRing` is that ring, once: appends and
snapshots take one lock, so ``total`` is exact under concurrent writers
and a reader always gets a point-in-time copy, oldest first.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

T = TypeVar("T")


class BoundedRing(Generic[T]):
    """The newest ``capacity`` items appended, and the exact count of all.

    ``capacity=None`` keeps every item (short runs only).
    """

    __slots__ = ("capacity", "total", "_items", "_lock")

    def __init__(self, capacity: Optional[int]) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Items ever appended (eviction does not lower it).
        self.total = 0
        self._items: Deque[T] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def append(self, item: T) -> None:
        with self._lock:
            self._items.append(item)
            self.total += 1

    def snapshot(self, limit: Optional[int] = None) -> List[T]:
        """A copy of the held items, oldest first: all of them, or the
        newest ``limit`` (none for ``limit <= 0``)."""
        with self._lock:
            items = list(self._items)
        if limit is None:
            return items
        return items[-limit:] if limit > 0 else []

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"BoundedRing({len(self._items)}/{self.capacity} held, {self.total} total)"


__all__ = ["BoundedRing"]
