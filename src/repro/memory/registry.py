"""The database shared memory registry.

Tracks how the fixed ``databaseMemory`` budget is split between named
heaps and the **overflow area** -- "memory allocated to the database but
not yet in use by a memory consumer" (paper section 2.1).  The registry
maintains the core accounting invariant::

    sum(heap.size_pages for heap in heaps) + overflow_pages == total_pages

Every mutation goes through :meth:`grow_heap`, :meth:`shrink_heap` or
:meth:`transfer`, each of which preserves the invariant or raises.

Synchronous on-demand growth (a heap expanding into overflow "on a first
come-first-served basis") is exactly :meth:`grow_heap`; the asynchronous
STMM redistribution is built on :meth:`transfer`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, MemoryAccountingError
from repro.memory.heaps import HeapCategory, MemoryHeap
from repro.units import fmt_pages


class DatabaseMemoryRegistry:
    """Page-accounted database shared memory set."""

    def __init__(self, total_pages: int, overflow_goal_pages: Optional[int] = None) -> None:
        if total_pages <= 0:
            raise ConfigurationError(
                f"databaseMemory must be positive, got {total_pages} pages"
            )
        self._total_pages = total_pages
        self._heaps: Dict[str, MemoryHeap] = {}
        #: STMM's goal for the size of the overflow area (section 3.3:
        #: "a moderate but small amount of memory is usually available").
        #: Defaults to 2 % of database memory.
        self.overflow_goal_pages = (
            overflow_goal_pages
            if overflow_goal_pages is not None
            else max(1, total_pages // 50)
        )
        if self.overflow_goal_pages > total_pages:
            raise ConfigurationError(
                "overflow goal cannot exceed database memory "
                f"({self.overflow_goal_pages} > {total_pages} pages)"
            )

    # -- introspection ----------------------------------------------------

    @property
    def total_pages(self) -> int:
        """The fixed databaseMemory budget, in pages."""
        return self._total_pages

    @property
    def overflow_pages(self) -> int:
        """Pages currently unassigned to any heap."""
        used = sum(h.size_pages for h in self._heaps.values())
        free = self._total_pages - used
        if free < 0:
            raise MemoryAccountingError(
                f"heaps oversubscribe database memory by {-free} pages"
            )
        return free

    @property
    def overflow_deficit_pages(self) -> int:
        """How far the overflow area is below its goal (0 if at/above)."""
        return max(0, self.overflow_goal_pages - self.overflow_pages)

    @property
    def overflow_surplus_pages(self) -> int:
        """How far the overflow area is above its goal (0 if at/below)."""
        return max(0, self.overflow_pages - self.overflow_goal_pages)

    def heap(self, name: str) -> MemoryHeap:
        """Look up a heap by name."""
        try:
            return self._heaps[name]
        except KeyError:
            raise KeyError(
                f"no heap {name!r}; registered: {sorted(self._heaps)}"
            ) from None

    def heaps(self, category: Optional[HeapCategory] = None) -> List[MemoryHeap]:
        """All heaps, optionally filtered by category, in registration order."""
        out = list(self._heaps.values())
        if category is not None:
            out = [h for h in out if h.category is category]
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._heaps

    # -- registration ------------------------------------------------------

    def register(self, heap: MemoryHeap) -> MemoryHeap:
        """Add a heap; its initial size is carved out of overflow."""
        if heap.name in self._heaps:
            raise ConfigurationError(f"heap {heap.name!r} already registered")
        if heap.size_pages > self.overflow_pages:
            raise ConfigurationError(
                f"cannot register heap {heap.name!r} of {fmt_pages(heap.size_pages)}: "
                f"only {fmt_pages(self.overflow_pages)} unassigned"
            )
        self._heaps[heap.name] = heap
        return heap

    # -- mutation ----------------------------------------------------------

    def grow_heap(self, name: str, pages: int, partial: bool = False) -> int:
        """Grow ``name`` by up to ``pages`` taken from overflow.

        Returns the pages actually granted.  With ``partial`` the grant is
        clipped to what overflow and the heap's ``max_pages`` allow;
        without it any shortfall raises :class:`MemoryAccountingError`.
        """
        if pages < 0:
            raise ValueError(f"grow amount must be non-negative, got {pages}")
        heap = self.heap(name)
        grant = min(pages, self.overflow_pages, heap.headroom_pages())
        if grant < pages and not partial:
            raise MemoryAccountingError(
                f"cannot grow heap {name!r} by {fmt_pages(pages)}: "
                f"overflow has {fmt_pages(self.overflow_pages)}, "
                f"heap headroom {fmt_pages(heap.headroom_pages())}"
            )
        heap._apply_resize(grant)
        return grant

    def shrink_heap(self, name: str, pages: int, partial: bool = False) -> int:
        """Shrink ``name`` by up to ``pages``, returning them to overflow.

        Returns the pages actually released.  With ``partial`` the release
        is clipped to the heap's ``min_pages``; without it any shortfall
        raises.
        """
        if pages < 0:
            raise ValueError(f"shrink amount must be non-negative, got {pages}")
        heap = self.heap(name)
        release = min(pages, heap.shrinkable_pages())
        if release < pages and not partial:
            raise MemoryAccountingError(
                f"cannot shrink heap {name!r} by {fmt_pages(pages)}: "
                f"only {fmt_pages(heap.shrinkable_pages())} above its minimum"
            )
        heap._apply_resize(-release)
        return release

    def transfer(self, donor: str, receiver: str, pages: int, partial: bool = False) -> int:
        """Move pages from ``donor`` to ``receiver`` atomically.

        Returns the pages actually moved (clipped by the donor's minimum
        and the receiver's maximum when ``partial``).
        """
        if pages < 0:
            raise ValueError(f"transfer amount must be non-negative, got {pages}")
        if donor == receiver:
            raise ValueError(f"cannot transfer heap {donor!r} to itself")
        donor_heap = self.heap(donor)
        receiver_heap = self.heap(receiver)
        moved = min(pages, donor_heap.shrinkable_pages(), receiver_heap.headroom_pages())
        if moved < pages and not partial:
            raise MemoryAccountingError(
                f"cannot transfer {fmt_pages(pages)} from {donor!r} to {receiver!r}: "
                f"donor shrinkable {fmt_pages(donor_heap.shrinkable_pages())}, "
                f"receiver headroom {fmt_pages(receiver_heap.headroom_pages())}"
            )
        donor_heap._apply_resize(-moved)
        receiver_heap._apply_resize(moved)
        return moved

    # -- donor selection helpers --------------------------------------------

    def pmc_donors(self, exclude: Iterable[str] = ()) -> List[MemoryHeap]:
        """PMC heaps ordered from least to most needy (best donors first)."""
        excluded = set(exclude)
        donors = [
            h
            for h in self.heaps(HeapCategory.PMC)
            if h.name not in excluded and h.shrinkable_pages() > 0
        ]
        donors.sort(key=lambda h: (h.benefit(), h.name))
        return donors

    def pmc_receivers(self, exclude: Iterable[str] = ()) -> List[MemoryHeap]:
        """PMC heaps ordered from most to least needy (best receivers first)."""
        excluded = set(exclude)
        receivers = [
            h
            for h in self.heaps(HeapCategory.PMC)
            if h.name not in excluded and h.headroom_pages() > 0
        ]
        receivers.sort(key=lambda h: (-h.benefit(), h.name))
        return receivers

    def reclaim_from_donors(
        self, pages: int, exclude: Iterable[str] = ()
    ) -> int:
        """Shrink donor PMCs (least needy first) to free ``pages`` to overflow.

        Returns the pages actually reclaimed (may be less than requested
        when all donors are at their minimum sizes).
        """
        if pages < 0:
            raise ValueError(f"reclaim amount must be non-negative, got {pages}")
        remaining = pages
        for donor in self.pmc_donors(exclude=exclude):
            if remaining == 0:
                break
            remaining -= self.shrink_heap(donor.name, min(remaining, donor.shrinkable_pages()))
        return pages - remaining

    def snapshot(self) -> Dict[str, int]:
        """Current sizes of every heap plus overflow, in pages."""
        out = {name: heap.size_pages for name, heap in self._heaps.items()}
        out["overflow"] = self.overflow_pages
        return out

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={heap.size_pages}p" for name, heap in self._heaps.items()
        )
        return (
            f"DatabaseMemoryRegistry(total={self._total_pages}p, "
            f"overflow={self.overflow_pages}p, {parts})"
        )
