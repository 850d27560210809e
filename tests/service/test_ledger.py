"""Unit tests for the memory ledger and the aggregate chain.

The distribution arithmetic (largest-remainder grant splits, the
most-free-first shrink scan with its one-block floor, all-or-nothing
release semantics, redistribution around a dead partition) is what
keeps every topology's accounting equal to the single-chain stack's --
so it gets pinned here in isolation, once, over scripted fake
partitions, with hand-computed expectations.  The in-process shards and
the forked workers both run exactly this code.
"""

import pytest

from repro.errors import MemoryAccountingError, ServiceError
from repro.lockmgr.blocks import LockBlockChain
from repro.service.ledger import (
    AggregateLockChain,
    MemoryLedger,
    initial_split,
)
from repro.service.partition import WorkerDiedError
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK


class FakePartition:
    """Just the surface the ledger reads: a chain, a posture, block
    moves, liveness flags -- with a switch to die on the next grant."""

    atomic = True

    def __init__(self, idx: int, blocks: int) -> None:
        self.idx = idx
        self.chain = LockBlockChain(initial_blocks=blocks)
        self.dead = False
        self.closed = False
        self.dies_on_grant = False
        self.escalations = 0
        self.reported_blocks = None  # what check() claims; None = truth

    def posture(self):
        return {
            "used_slots": self.chain.used_slots,
            "capacity_slots": self.chain.capacity_slots,
            "free_fraction": self.chain.free_fraction(),
            "entirely_free_blocks": self.chain.entirely_free_blocks(),
            "escalations": self.escalations,
        }

    def add_blocks(self, count: int) -> int:
        if self.dies_on_grant:
            self.dead = True
            raise WorkerDiedError(f"partition {self.idx} died")
        self.chain.add_blocks(count)
        return self.chain.block_count

    def release_blocks(self, count: int) -> int:
        return self.chain.release_blocks(count, partial=True)

    def check(self) -> int:
        self.chain.check_invariants()
        if self.reported_blocks is not None:
            return self.reported_blocks
        return self.chain.block_count


def make_parts(*initial_blocks):
    return [FakePartition(idx, n) for idx, n in enumerate(initial_blocks)]


def make_chain(parts) -> AggregateLockChain:
    return AggregateLockChain(MemoryLedger(parts))


def occupy(chain: LockBlockChain, slots: int):
    return [chain.allocate_slot() for _ in range(slots)]


class TestGrantSplit:
    def test_idle_shards_split_evenly_with_low_index_ties(self):
        ledger = MemoryLedger(make_parts(1, 1, 1))
        # weights [1, 1, 1]; 4 blocks -> floors [1, 1, 1], remainder 1
        # goes to the lowest index
        assert ledger.grant_split(4) == [2, 1, 1]
        assert ledger.grant_split(0) == [0, 0, 0]
        assert ledger.grant_split(3) == [1, 1, 1]

    def test_split_follows_demand(self):
        parts = make_parts(1, 1, 1)
        occupy(parts[0].chain, 30)
        occupy(parts[1].chain, 10)
        ledger = MemoryLedger(parts)
        assert ledger.demand_weights() == [31, 11, 1]
        # shares of 10 blocks: [7.209, 2.558, 0.232] -> floors [7, 2, 0],
        # remainder 1 to the largest fraction (partition 1)
        assert ledger.grant_split(10) == [7, 3, 0]

    def test_split_always_sums_to_the_grant(self):
        parts = make_parts(1, 1, 1, 1, 1)
        occupy(parts[1].chain, 17)
        occupy(parts[3].chain, 1200)
        ledger = MemoryLedger(parts)
        for blocks in range(0, 40):
            split = ledger.grant_split(blocks)
            assert sum(split) == blocks
            assert all(share >= 0 for share in split)

    def test_negative_grant_rejected(self):
        ledger = MemoryLedger(make_parts(1))
        with pytest.raises(ValueError):
            ledger.grant_split(-1)

    def test_gone_partitions_are_unfundable(self):
        parts = make_parts(1, 1, 1)
        parts[0].dead = True
        parts[2].closed = True
        ledger = MemoryLedger(parts)
        assert ledger.demand_weights() == [0, 1, 0]
        assert ledger.grant_split(3) == [0, 3, 0]
        assert [p.idx for p in ledger.live()] == [1]
        parts[1].dead = True
        with pytest.raises(ServiceError, match="no live partition"):
            ledger.grant_split(1)

    def test_initial_split_gives_early_partitions_the_remainder(self):
        assert initial_split(4, 1) == [4]
        assert initial_split(7, 3) == [3, 2, 2]
        assert initial_split(4, 4) == [1, 1, 1, 1]


class TestBorrowAccounting:
    def test_borrows_accumulate_per_shard(self):
        ledger = MemoryLedger(make_parts(1, 1))
        ledger.record_sync_borrow(0, 2)
        ledger.record_sync_borrow(0, 1)
        ledger.record_sync_borrow(1, 4)
        assert ledger.borrowed_blocks(0) == 3
        assert ledger.borrowed_blocks(1) == 4
        assert ledger.total_borrowed_blocks() == 7

    def test_negative_borrow_rejected(self):
        # One rule for every topology: a borrow record is a grant, and
        # a grant is at least one block.
        ledger = MemoryLedger(make_parts(1))
        with pytest.raises(ValueError):
            ledger.record_sync_borrow(0, -1)
        with pytest.raises(ValueError):
            ledger.record_sync_borrow(0, 0)

    def test_occupancy_mirrors_the_chains(self):
        parts = make_parts(2, 1)
        occupy(parts[0].chain, 5)
        parts[1].escalations = 3
        ledger = MemoryLedger(parts)
        ledger.record_sync_borrow(1, 2)
        occ = ledger.occupancy()
        assert [o["partition"] for o in occ] == [0, 1]
        assert occ[0]["used_slots"] == 5
        assert occ[0]["capacity_slots"] == 2 * LOCKS_PER_BLOCK
        assert occ[0]["entirely_free_blocks"] == 1
        assert occ[1]["used_slots"] == 0
        assert occ[1]["borrowed_blocks"] == 2
        assert ledger.total("used_slots") == 5
        assert ledger.total("escalations") == 3


class TestAggregateChain:
    def test_reads_are_sums(self):
        parts = make_parts(2, 3)
        occupy(parts[0].chain, 10)
        occupy(parts[1].chain, 20)
        chain = make_chain(parts)
        assert chain.block_count == 5
        assert chain.capacity_slots == 5 * LOCKS_PER_BLOCK
        assert chain.used_slots == 30
        assert chain.free_slots == 5 * LOCKS_PER_BLOCK - 30
        assert chain.allocated_pages == 5 * PAGES_PER_BLOCK
        assert chain.entirely_free_blocks() == 3
        assert 0.0 < chain.free_fraction() < 1.0

    def test_add_blocks_lands_where_demand_is(self):
        parts = make_parts(1, 1)
        occupy(parts[0].chain, 100)
        chain = make_chain(parts)
        # weights [101, 1]: all 3 blocks go to partition 0
        assert chain.add_blocks(3) == 3
        assert parts[0].chain.block_count == 4
        assert parts[1].chain.block_count == 1

    def test_add_blocks_redistributes_a_dead_partitions_share(self):
        parts = make_parts(1, 1, 1)
        parts[1].dies_on_grant = True
        chain = make_chain(parts)
        # even split [2, 2, 2]; partition 1 dies under its share, which
        # is re-split over the survivors [1, 0, 1]
        assert chain.add_blocks(6) == 6
        assert [p.chain.block_count for p in parts] == [4, 1, 4]
        assert parts[1].dead
        # the dead partition's block is stranded in the ledger's total
        assert chain.block_count == 9

    def test_add_blocks_raises_when_nobody_can_take_the_share(self):
        parts = make_parts(1, 1)
        for part in parts:
            part.dies_on_grant = True
        with pytest.raises(ServiceError):
            make_chain(parts).add_blocks(2)

    def test_release_prefers_most_free_then_highest_index(self):
        parts = make_parts(3, 4, 4)
        occupy(parts[0].chain, 2 * LOCKS_PER_BLOCK)  # 1 free block
        occupy(parts[1].chain, LOCKS_PER_BLOCK)      # 3 free blocks
        occupy(parts[2].chain, LOCKS_PER_BLOCK)      # 3 free blocks
        chain = make_chain(parts)
        # partitions 1 and 2 tie at 3 free; the highest index drains first
        assert chain.release_blocks(3) == 3
        assert parts[2].chain.block_count == 1
        assert parts[1].chain.block_count == 4
        assert parts[0].chain.block_count == 3
        # next release spills from partition 1 into partition 0's single
        # free block
        assert chain.release_blocks(4) == 4
        assert parts[1].chain.block_count == 1
        assert parts[0].chain.block_count == 2

    def test_release_leaves_every_live_partition_one_block(self):
        """The floor, one rule for every topology: an idle partition is
        never stripped to an empty chain."""
        parts = make_parts(2, 3)  # both entirely idle: 5 free blocks
        chain = make_chain(parts)
        assert chain.release_blocks(5, partial=True) == 3
        assert [p.chain.block_count for p in parts] == [1, 1]
        # and all-or-nothing counts only what the floor leaves
        parts = make_parts(2, 3)
        chain = make_chain(parts)
        assert chain.release_blocks(4) == 0
        assert chain.block_count == 5
        assert chain.release_blocks(3) == 3

    def test_release_from_closed_and_dead_partitions(self):
        parts = make_parts(2, 2, 2)
        parts[0].closed = True  # exited cleanly: blocks only in the ledger
        parts[1].dead = True    # crashed: memory stranded
        chain = make_chain(parts)
        # closed gives both blocks (no floor), dead gives none, live
        # keeps one
        assert chain.release_blocks(6, partial=True) == 3
        assert [p.chain.block_count for p in parts] == [0, 2, 1]

    def test_release_is_all_or_nothing_without_partial(self):
        parts = make_parts(2, 2)
        occupy(parts[0].chain, LOCKS_PER_BLOCK + 1)  # pins 2 blocks
        occupy(parts[1].chain, 1)                    # pins 1 block
        chain = make_chain(parts)
        assert chain.entirely_free_blocks() == 1
        # asking for 2 when only 1 is jointly free: nothing moves
        assert chain.release_blocks(2) == 0
        assert chain.block_count == 4
        # partial takes what exists
        assert chain.release_blocks(2, partial=True) == 1
        assert chain.block_count == 3

    def test_check_invariants_compares_partitions_with_the_ledger(self):
        parts = make_parts(2, 2)
        chain = make_chain(parts)
        chain.check_invariants()
        parts[1].reported_blocks = 3
        with pytest.raises(MemoryAccountingError, match="partition 1"):
            chain.check_invariants()
        parts[1].closed = True  # gone partitions are not asked
        chain.check_invariants()

    def test_constructor_rejects_mismatched_ledger(self):
        with pytest.raises(ServiceError):
            MemoryLedger([])
