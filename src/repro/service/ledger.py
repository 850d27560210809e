"""The memory ledger: one LOCKLIST budget over many lock tables.

The stacks partition the lock space across N lock managers, each with
its own :class:`~repro.lockmgr.blocks.LockBlockChain` -- shards in this
process or forked workers (:mod:`repro.service.partition`).  The
paper's tuning algorithm, however, arbitrates exactly *one* LOCKLIST
against the rest of database memory.  This module is the bridge, the
same for every topology:

* :class:`MemoryLedger` is the reporting side: every partition's demand
  (outstanding structures), free-list occupancy and cumulative
  synchronous borrows are readable in one place, and so is the sum of
  any posture counter over the partitions.
* :class:`AggregateLockChain` is the acting side: it duck-types the
  :class:`LockBlockChain` surface that
  :class:`~repro.core.controller.LockMemoryController` and
  :class:`~repro.core.maxlocks.AdaptiveMaxlocks` consume, summing the
  partition chains for every read.  A **grow** is distributed as
  per-partition 128 KB block grants proportional to ledger demand
  (largest-remainder rounding, ties to the lowest index); a **shrink**
  scans the partitions' entirely-free blocks, preferring the partition
  with the most of them (ties to the highest index -- the "tail" of the
  round-robin initial layout, mirroring the single-chain tail-first
  shrink protocol) and leaving every live partition one block, so its
  next request escalates instead of failing on an empty chain.

With one partition both classes degenerate to pass-throughs, which is
what makes the ``shards=1`` equivalence against the unsharded stack
exact.

Locking: neither class takes locks.  In-process callers that mutate
(the tuner, shutdown reclaim) hold **every** partition condition;
callers that only read for distribution decisions run under the
stack's growth lock plus one partition condition, where the transient
understatement of a concurrent partition's demand only skews a
proportional split, never the accounting.  Across processes the single
arbiter thread is the only mutator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.errors import MemoryAccountingError, ServiceError


def initial_split(blocks: int, partitions: int) -> List[int]:
    """Round-robin split of the initial LOCKLIST: early partitions take
    the remainder."""
    base, extra = divmod(blocks, partitions)
    return [base + (1 if idx < extra else 0) for idx in range(partitions)]


class MemoryLedger:
    """Global read-side of the partition memory protocol (see module doc)."""

    def __init__(self, partitions: Sequence[Any]) -> None:
        if not partitions:
            raise ServiceError("ledger needs at least one partition")
        self.partitions = list(partitions)
        self._borrowed_blocks = [0] * len(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def live(self) -> List[Any]:
        """Partitions still serving (not crashed, not closed)."""
        return [p for p in self.partitions if not (p.dead or p.closed)]

    # -- reporting (partitions -> ledger) ----------------------------------

    def record_sync_borrow(self, partition: int, blocks: int) -> None:
        """Account a synchronous-growth grant routed to ``partition``."""
        if blocks <= 0:
            raise ValueError(f"blocks must be positive, got {blocks}")
        self._borrowed_blocks[partition] += blocks

    def borrowed_blocks(self, partition: int) -> int:
        """Cumulative 128 KB blocks ``partition`` borrowed synchronously
        from overflow (its share of the paper's LMO traffic)."""
        return self._borrowed_blocks[partition]

    def total_borrowed_blocks(self) -> int:
        return sum(self._borrowed_blocks)

    # -- global views (ledger -> controller / ops plane) -------------------

    def occupancy(self) -> List[Dict[str, Any]]:
        """Every partition's posture plus its borrow count, in order."""
        return [
            {
                **part.posture(),
                "partition": part.idx,
                "borrowed_blocks": self._borrowed_blocks[part.idx],
            }
            for part in self.partitions
        ]

    def total(self, key: str) -> int:
        """Sum of one posture counter over every partition."""
        return sum(part.posture()[key] for part in self.partitions)

    def demand_weights(self) -> List[int]:
        """Per-partition grow weights: outstanding structures, plus one.

        The +1 keeps an idle partition fundable (it still needs a
        minimal allocation to serve its first request without a
        synchronous borrow).  A partition that is gone weighs nothing.
        """
        return [
            0 if part.dead or part.closed else part.chain.used_slots + 1
            for part in self.partitions
        ]

    def grant_split(self, blocks: int) -> List[int]:
        """Split a grant of ``blocks`` across partitions by demand.

        Largest-remainder rounding; ties go to the lowest index, so the
        split is a pure function of the demand snapshot.
        """
        if blocks < 0:
            raise ValueError(f"blocks must be non-negative, got {blocks}")
        weights = self.demand_weights()
        total = sum(weights)
        if total == 0:
            raise ServiceError("no live partition to fund")
        shares = [blocks * weight / total for weight in weights]
        split = [int(share) for share in shares]
        remainder = blocks - sum(split)
        if remainder:
            by_fraction = sorted(
                range(len(split)),
                key=lambda i: (-(shares[i] - split[i]), i),
            )
            for i in by_fraction[:remainder]:
                split[i] += 1
        return split


class AggregateLockChain:
    """The one global LOCKLIST the controller tunes: sum of the
    partitions' chains.

    Duck-types the :class:`LockBlockChain` surface the tuning layer
    consumes (reads, ``add_blocks``, ``release_blocks``,
    ``check_invariants``); see the module docstring for the grow/shrink
    distribution rules.
    """

    def __init__(self, ledger: MemoryLedger) -> None:
        self._ledger = ledger
        self._parts = ledger.partitions
        #: Read directly: the sums below sit on the MAXLOCKS refresh path.
        self._chains = [part.chain for part in self._parts]

    # -- read surface (sums over partitions) -------------------------------

    @property
    def block_count(self) -> int:
        return sum(chain.block_count for chain in self._chains)

    @property
    def capacity_slots(self) -> int:
        return sum(chain.capacity_slots for chain in self._chains)

    @property
    def used_slots(self) -> int:
        return sum(chain.used_slots for chain in self._chains)

    @property
    def free_slots(self) -> int:
        return max(0, self.capacity_slots - self.used_slots)

    @property
    def allocated_pages(self) -> int:
        return sum(chain.allocated_pages for chain in self._chains)

    def free_fraction(self) -> float:
        capacity = self.capacity_slots
        if capacity == 0:
            return 1.0
        return self.free_slots / capacity

    def entirely_free_blocks(self) -> int:
        return sum(chain.entirely_free_blocks() for chain in self._chains)

    # -- grow / shrink (the controller's physical hooks) -------------------

    def add_blocks(self, count: int) -> int:
        """Distribute ``count`` new blocks across partitions by demand."""
        if count < 0:
            raise ValueError(f"block count must be non-negative, got {count}")
        if count == 0:
            return 0
        undelivered = 0
        for part, share in zip(self._parts, self._ledger.grant_split(count)):
            if share:
                try:
                    part.add_blocks(share)
                except ServiceError:
                    undelivered += share
        if undelivered:
            # A partition died under its share: one more round over the
            # survivors.  Anything still undeliverable raises out of the
            # tuning pass, which freezes tuning -- the degraded mode a
            # dead partition leads to anyway.
            retry = self._ledger.grant_split(undelivered)
            for part, share in zip(self._parts, retry):
                if share:
                    part.add_blocks(share)
        return count

    @staticmethod
    def _reclaimable(part: Any) -> int:
        """Empty blocks ``part`` may surrender to a shrink.

        A crashed partition strands its memory; a cleanly closed one
        (its blocks exist only in the ledger now) can give up all of
        them; a live one keeps a block, so its next request escalates
        instead of failing on an empty chain.
        """
        if part.dead:
            return 0
        free = part.chain.entirely_free_blocks()
        if part.closed:
            return free
        return min(free, part.chain.block_count - 1)

    def release_blocks(self, count: int, partial: bool = False) -> int:
        """Free up to ``count`` entirely-empty blocks across partitions.

        Keeps the single-chain semantics: with ``partial=False`` the
        request is all-or-nothing -- if the partitions cannot jointly
        surrender ``count`` empty blocks, nothing is freed and 0 is
        returned.
        """
        if count < 0:
            raise ValueError(f"block count must be non-negative, got {count}")
        if count == 0:
            return 0
        available = [self._reclaimable(part) for part in self._parts]
        if sum(available) < count and not partial:
            return 0
        order = sorted(
            range(len(self._parts)), key=lambda i: (-available[i], -i)
        )
        freed = 0
        for i in order:
            take = min(count - freed, available[i])
            if take <= 0:
                continue
            try:
                freed += self._parts[i].release_blocks(take)
            except ServiceError:
                continue  # died mid-scan: its blocks are stranded
        return freed

    def check_invariants(self) -> None:
        """Every live partition's own accounting, and its block count
        against what the ledger believes it holds."""
        for part in self._ledger.live():
            reported = part.check()
            if reported != part.chain.block_count:
                raise MemoryAccountingError(
                    f"partition {part.idx} holds {reported} blocks but the "
                    f"ledger says {part.chain.block_count}"
                )

    def __repr__(self) -> str:
        return (
            f"AggregateLockChain(partitions={len(self._parts)}, "
            f"blocks={self.block_count}, "
            f"used={self.used_slots}/{self.capacity_slots})"
        )
