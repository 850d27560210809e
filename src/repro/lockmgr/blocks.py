"""The 128 KB lock-memory block chain (paper section 2.2).

Lock memory is physically allocated in 128 KB blocks, each able to store
:data:`repro.units.LOCKS_PER_BLOCK` lock structures.  The blocks with
free slots form a list with these exact semantics from the paper:

* new lock structures are always taken from the **head** block;
* a block whose slots are exhausted leaves the list; when one of its
  structures is later freed, the block returns **to the head**;
* consequently, "if the locking demands of the database require only
  half of the allocated lock memory, memory blocks towards the end of
  the list will always be entirely free";
* a shrink request scans **from the end of the list** for blocks with no
  outstanding lock structures; if not enough freeable blocks exist, the
  scanned blocks are reintegrated and the request fails.

The chain is pure slot accounting -- it knows nothing about lock modes
or applications.  The lock manager stores, with each lock structure it
hands out, the :class:`LockBlock` the slot came from, and returns the
slot to that block on release.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.errors import MemoryAccountingError
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK

_block_ids = itertools.count(1)


class LockBlock:
    """One 128 KB allocation holding up to ``capacity`` lock structures."""

    __slots__ = ("block_id", "capacity", "used", "_prev", "_next", "_in_list")

    def __init__(self, capacity: int = LOCKS_PER_BLOCK) -> None:
        if capacity <= 0:
            raise ValueError(f"block capacity must be positive, got {capacity}")
        self.block_id = next(_block_ids)
        self.capacity = capacity
        self.used = 0
        self._prev: Optional["LockBlock"] = None
        self._next: Optional["LockBlock"] = None
        self._in_list = False

    @property
    def free(self) -> int:
        return self.capacity - self.used

    @property
    def is_empty(self) -> bool:
        """True when no lock structure in this block is outstanding."""
        return self.used == 0

    @property
    def is_full(self) -> bool:
        return self.used == self.capacity

    def __repr__(self) -> str:
        return (
            f"LockBlock(#{self.block_id}, used={self.used}/{self.capacity}, "
            f"in_list={self._in_list})"
        )


class LockBlockChain:
    """The list of lock-memory blocks with available slots.

    Maintains two views:

    * the *availability list* -- a doubly linked list of blocks with at
      least one free slot, allocated from the head (section 2.2), and
    * the set of all allocated blocks, full or not, for capacity
      accounting.
    """

    def __init__(self, initial_blocks: int = 0, capacity_per_block: int = LOCKS_PER_BLOCK) -> None:
        if initial_blocks < 0:
            raise ValueError(f"initial_blocks must be non-negative, got {initial_blocks}")
        self._capacity_per_block = capacity_per_block
        self._head: Optional[LockBlock] = None
        self._tail: Optional[LockBlock] = None
        self._all_blocks: set = set()
        #: Outstanding lock structures.  Plain attributes, not
        #: properties, because the lock manager reads both on every
        #: grant; only the chain writes them.
        self.used_slots = 0
        #: Total lock structures the chain can currently store (the
        #: cached sum of capacities over ``_all_blocks``).
        self.capacity_slots = 0
        self.add_blocks(initial_blocks)

    # -- capacity accounting ---------------------------------------------

    @property
    def block_count(self) -> int:
        """All allocated 128 KB blocks (in the list or exhausted)."""
        return len(self._all_blocks)

    @property
    def free_slots(self) -> int:
        return self.capacity_slots - self.used_slots

    @property
    def allocated_pages(self) -> int:
        """Lock memory footprint in 4 KB pages."""
        return self.block_count * PAGES_PER_BLOCK

    def free_fraction(self) -> float:
        """Fraction of allocated lock structures that are unused.

        Returns 1.0 for an empty chain (nothing allocated means nothing
        is in use).
        """
        capacity = self.capacity_slots
        if capacity == 0:
            return 1.0
        return self.free_slots / capacity

    def entirely_free_blocks(self) -> int:
        """Blocks with zero outstanding structures (shrink candidates)."""
        return sum(1 for b in self._all_blocks if b.is_empty)

    # -- linked-list plumbing ----------------------------------------------

    def _push_head(self, block: LockBlock) -> None:
        if block._in_list:
            raise MemoryAccountingError(f"{block!r} is already in the list")
        block._prev = None
        block._next = self._head
        if self._head is not None:
            self._head._prev = block
        self._head = block
        if self._tail is None:
            self._tail = block
        block._in_list = True

    def _push_tail(self, block: LockBlock) -> None:
        if block._in_list:
            raise MemoryAccountingError(f"{block!r} is already in the list")
        block._next = None
        block._prev = self._tail
        if self._tail is not None:
            self._tail._next = block
        self._tail = block
        if self._head is None:
            self._head = block
        block._in_list = True

    def _unlink(self, block: LockBlock) -> None:
        if not block._in_list:
            raise MemoryAccountingError(f"{block!r} is not in the list")
        if block._prev is not None:
            block._prev._next = block._next
        else:
            self._head = block._next
        if block._next is not None:
            block._next._prev = block._prev
        else:
            self._tail = block._prev
        block._prev = block._next = None
        block._in_list = False

    def iter_list(self) -> List[LockBlock]:
        """The availability list, head to tail (for tests/inspection)."""
        out: List[LockBlock] = []
        node = self._head
        while node is not None:
            out.append(node)
            node = node._next
        return out

    # -- growth ----------------------------------------------------------------

    def add_blocks(self, count: int) -> int:
        """Allocate ``count`` new blocks, appended at the list tail.

        New blocks are entirely free; placing them at the tail preserves
        the invariant that free memory accumulates at the end of the
        list.  Returns the number of blocks added.
        """
        if count < 0:
            raise ValueError(f"block count must be non-negative, got {count}")
        for _ in range(count):
            block = LockBlock(self._capacity_per_block)
            self._all_blocks.add(block)
            self.capacity_slots += block.capacity
            self._push_tail(block)
        return count

    # -- slot allocation ---------------------------------------------------------

    def allocate_slot(self) -> LockBlock:
        """Take one lock structure from the head block.

        Returns the block the slot came from; the caller must hand the
        same block back to :meth:`free_slot` when the lock is released.
        Raises :class:`MemoryAccountingError` when no free slot exists
        (callers must check :attr:`free_slots`, or grow, first).
        """
        block = self._head
        if block is None:
            raise MemoryAccountingError("lock memory exhausted: no block with free slots")
        used = block.used = block.used + 1
        self.used_slots += 1
        if used == block.capacity:
            self._unlink(block)
        return block

    def free_slot(self, block: LockBlock) -> None:
        """Return one lock structure to ``block``.

        A block that was exhausted re-enters the list **at the head**, so
        it is the next block new requests are satisfied from (paper
        section 2.2).
        """
        if block not in self._all_blocks:
            raise MemoryAccountingError(f"{block!r} does not belong to this chain")
        used = block.used
        if used == 0:
            raise MemoryAccountingError(f"{block!r} has no outstanding structures")
        block.used = used - 1
        self.used_slots -= 1
        if used == block.capacity:  # was full: back into the list
            self._push_head(block)

    # -- shrink -------------------------------------------------------------------

    def release_blocks(self, count: int, partial: bool = False) -> int:
        """Free up to ``count`` entirely-empty blocks from the list tail.

        Implements the paper's shrink protocol: scan from the end of the
        list setting aside blocks with no outstanding structures.  With
        ``partial=False`` (the paper's behaviour) the request fails --
        the set-aside blocks are reintegrated and 0 is returned -- unless
        ``count`` empty blocks are found.  With ``partial=True`` whatever
        empty blocks were found are freed.

        Returns the number of blocks actually deallocated.
        """
        if count < 0:
            raise ValueError(f"block count must be non-negative, got {count}")
        if count == 0:
            return 0
        set_aside: List[LockBlock] = []
        node = self._tail
        while node is not None and len(set_aside) < count:
            candidate = node
            node = node._prev
            if candidate.is_empty:
                set_aside.append(candidate)
        if len(set_aside) < count and not partial:
            return 0  # reintegrate: we never unlinked, so nothing to undo
        for block in set_aside:
            self._unlink(block)
            self._all_blocks.remove(block)
            self.capacity_slots -= block.capacity
        return len(set_aside)

    def check_invariants(self) -> None:
        """Raise if internal accounting is inconsistent (used in tests)."""
        listed = self.iter_list()
        listed_set = set(listed)
        if len(listed) != len(listed_set):
            raise MemoryAccountingError("availability list contains a cycle or duplicate")
        for block in listed:
            if block.is_full:
                raise MemoryAccountingError(f"full block {block!r} is in the list")
            if block not in self._all_blocks:
                raise MemoryAccountingError(f"listed block {block!r} not in block set")
        for block in self._all_blocks:
            if not block.is_full and block not in listed_set:
                raise MemoryAccountingError(f"non-full block {block!r} missing from list")
            if not 0 <= block.used <= block.capacity:
                raise MemoryAccountingError(f"block {block!r} has invalid used count")
        total_used = sum(b.used for b in self._all_blocks)
        if total_used != self.used_slots:
            raise MemoryAccountingError(
                f"used-slot counter {self.used_slots} != per-block sum {total_used}"
            )
        total_capacity = sum(b.capacity for b in self._all_blocks)
        if total_capacity != self.capacity_slots:
            raise MemoryAccountingError(
                f"capacity counter {self.capacity_slots} != per-block sum "
                f"{total_capacity}"
            )

    def __repr__(self) -> str:
        return (
            f"LockBlockChain(blocks={self.block_count}, "
            f"used={self.used_slots}/{self.capacity_slots})"
        )
