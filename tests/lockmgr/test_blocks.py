"""Unit and property tests for the 128 KB lock-memory block chain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryAccountingError
from repro.lockmgr.blocks import LockBlockChain
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK


class TestConstruction:
    def test_initial_blocks(self):
        chain = LockBlockChain(initial_blocks=3)
        assert chain.block_count == 3
        assert chain.capacity_slots == 3 * LOCKS_PER_BLOCK
        assert chain.allocated_pages == 3 * PAGES_PER_BLOCK
        assert chain.used_slots == 0

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            LockBlockChain(initial_blocks=-1)

    def test_empty_chain_free_fraction_is_one(self):
        assert LockBlockChain(0).free_fraction() == 1.0


class TestAllocation:
    def test_allocates_from_head(self):
        chain = LockBlockChain(initial_blocks=2, capacity_per_block=4)
        head = chain.iter_list()[0]
        block = chain.allocate_slot()
        assert block is head
        assert chain.used_slots == 1

    def test_exhausted_head_leaves_list(self):
        chain = LockBlockChain(initial_blocks=2, capacity_per_block=2)
        first = chain.iter_list()[0]
        chain.allocate_slot()
        chain.allocate_slot()
        assert first.is_full
        assert first not in chain.iter_list()
        assert chain.iter_list()[0] is not first

    def test_allocate_when_empty_raises(self):
        chain = LockBlockChain(initial_blocks=1, capacity_per_block=1)
        chain.allocate_slot()
        with pytest.raises(MemoryAccountingError):
            chain.allocate_slot()

    def test_freed_full_block_returns_to_head(self):
        """Paper section 2.2: block A returns to the head of the list."""
        chain = LockBlockChain(initial_blocks=2, capacity_per_block=2)
        block_a = chain.iter_list()[0]
        chain.allocate_slot()
        chain.allocate_slot()  # A full, off the list
        chain.allocate_slot()  # from B
        chain.free_slot(block_a)
        assert chain.iter_list()[0] is block_a

    def test_free_slot_validates_ownership(self):
        chain = LockBlockChain(initial_blocks=1)
        other = LockBlockChain(initial_blocks=1)
        foreign = other.allocate_slot()
        with pytest.raises(MemoryAccountingError):
            chain.free_slot(foreign)

    def test_free_slot_underflow_rejected(self):
        chain = LockBlockChain(initial_blocks=1)
        block = chain.allocate_slot()
        chain.free_slot(block)
        with pytest.raises(MemoryAccountingError):
            chain.free_slot(block)


class TestCountedFree:
    """``free_slots_id`` returns a run of structures to one block."""

    def test_a_full_block_returns_to_the_head_once(self):
        chain = LockBlockChain(initial_blocks=3, capacity_per_block=3)
        first, second, third = chain.iter_list()
        for _ in range(6):
            chain.allocate_slot()  # first and second full, off the list
        chain.free_slots_id(first.block_id, 2)
        chain.free_slots_id(second.block_id, 3)
        assert chain.iter_list() == [second, first, third]
        assert (first.used, second.used, chain.used_slots) == (1, 0, 1)
        chain.check_invariants()

    def test_a_run_larger_than_the_block_holds_is_rejected(self):
        chain = LockBlockChain(initial_blocks=1, capacity_per_block=4)
        block = chain.allocate_slot()
        chain.allocate_slot()
        with pytest.raises(MemoryAccountingError):
            chain.free_slots_id(block.block_id, 3)
        with pytest.raises(MemoryAccountingError):
            chain.free_slots_id(block.block_id, 0)
        assert block.used == chain.used_slots == 2

    def test_an_unknown_block_is_rejected(self):
        chain = LockBlockChain(initial_blocks=1)
        with pytest.raises(MemoryAccountingError):
            chain.free_slots_id(10**9, 1)


class TestTailFreeProperty:
    def test_half_demand_leaves_tail_entirely_free(self):
        """Paper section 2.2: with only half the memory needed, blocks
        towards the end of the list stay entirely free."""
        chain = LockBlockChain(initial_blocks=4, capacity_per_block=8)
        handles = [chain.allocate_slot() for _ in range(16)]  # half of 32
        listed = chain.iter_list()
        assert listed[-1].is_empty
        assert listed[-2].is_empty
        # free and re-acquire repeatedly: tail stays free
        for _ in range(5):
            for handle in handles:
                chain.free_slot(handle)
            handles = [chain.allocate_slot() for _ in range(16)]
        assert chain.iter_list()[-1].is_empty
        assert chain.entirely_free_blocks() >= 2


class TestGrowth:
    def test_new_blocks_append_at_tail(self):
        chain = LockBlockChain(initial_blocks=1, capacity_per_block=2)
        chain.allocate_slot()
        chain.add_blocks(2)
        listed = chain.iter_list()
        assert len(listed) == 3
        assert listed[-1].is_empty and listed[-2].is_empty

    def test_add_zero_is_noop(self):
        chain = LockBlockChain(initial_blocks=1)
        assert chain.add_blocks(0) == 0
        assert chain.block_count == 1

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            LockBlockChain(1).add_blocks(-1)


class TestRelease:
    def test_release_frees_empty_tail_blocks(self):
        chain = LockBlockChain(initial_blocks=4, capacity_per_block=4)
        chain.allocate_slot()
        freed = chain.release_blocks(2)
        assert freed == 2
        assert chain.block_count == 2

    def test_all_or_nothing_failure_reintegrates(self):
        """Paper section 2.2: not enough freeable blocks => request fails."""
        chain = LockBlockChain(initial_blocks=2, capacity_per_block=2)
        # touch both blocks so neither is empty
        chain.allocate_slot()
        chain.allocate_slot()
        chain.allocate_slot()
        assert chain.release_blocks(1) == 0
        assert chain.block_count == 2
        chain.check_invariants()

    def test_partial_release_takes_what_it_can(self):
        chain = LockBlockChain(initial_blocks=3, capacity_per_block=2)
        chain.allocate_slot()
        assert chain.release_blocks(3, partial=True) == 2
        assert chain.block_count == 1

    def test_release_scans_from_tail(self):
        chain = LockBlockChain(initial_blocks=3, capacity_per_block=2)
        tail = chain.iter_list()[-1]
        chain.allocate_slot()
        chain.release_blocks(1)
        assert tail not in chain.iter_list()

    def test_release_zero_is_noop(self):
        chain = LockBlockChain(initial_blocks=2)
        assert chain.release_blocks(0) == 0

    def test_capacity_tracks_release(self):
        chain = LockBlockChain(initial_blocks=4)
        chain.release_blocks(2)
        assert chain.capacity_slots == 2 * LOCKS_PER_BLOCK
        chain.check_invariants()


class TestShrinkChurn:
    """Shrink-from-tail semantics under a churned, interleaved list.

    The simple release tests above work on freshly-built chains where
    the empty blocks sit contiguously at the tail.  After alloc/free
    churn the availability list interleaves in-use and empty blocks
    (head-return-on-free reorders it), which is exactly the state the
    shrink scan and its failure/reintegration path must handle.
    """

    def _churned_chain(self):
        """4 blocks of 4 slots churned so the list order is scrambled.

        Returns ``(chain, handles)`` with two blocks entirely empty and
        two blocks partially in use, empties *not* contiguous at the
        tail.
        """
        chain = LockBlockChain(initial_blocks=4, capacity_per_block=4)
        blocks = chain.iter_list()
        # fill every block completely (empties the availability list)
        handles = {b.block_id: [] for b in blocks}
        for block in blocks:
            for _ in range(4):
                handle = chain.allocate_slot()
                assert handle is block
                handles[block.block_id].append(handle)
        assert chain.iter_list() == []
        # free in an interleaved order: each block re-enters at the head
        # as its first slot is freed, scrambling the original order
        for block in (blocks[2], blocks[0], blocks[3], blocks[1]):
            chain.free_slot(handles[block.block_id].pop())
        # drain blocks 2 and 0 completely; 3 and 1 stay half-used
        for block in (blocks[2], blocks[0]):
            while handles[block.block_id]:
                chain.free_slot(handles[block.block_id].pop())
        chain.check_invariants()
        assert chain.entirely_free_blocks() == 2
        remaining = [h for hs in handles.values() for h in hs]
        return chain, remaining

    def test_failed_shrink_reintegrates_and_preserves_order(self):
        chain, handles = self._churned_chain()
        order_before = [b.block_id for b in chain.iter_list()]
        # only 2 empty blocks exist; asking for 3 must fail atomically
        assert chain.release_blocks(3) == 0
        assert [b.block_id for b in chain.iter_list()] == order_before
        assert chain.block_count == 4
        chain.check_invariants()
        # the failed attempt must not have corrupted anything: churn on
        for handle in handles:
            chain.free_slot(handle)
        assert chain.release_blocks(4) == 4
        assert chain.block_count == 0

    def test_partial_shrink_skips_interleaved_inuse_blocks(self):
        chain, handles = self._churned_chain()
        inuse_before = {
            b.block_id for b in chain.iter_list() if not b.is_empty
        }
        # partial shrink frees exactly the two empties, wherever they
        # sit in the list, and leaves the in-use blocks linked
        assert chain.release_blocks(3, partial=True) == 2
        assert chain.block_count == 2
        after = chain.iter_list()
        assert {b.block_id for b in after} == inuse_before
        chain.check_invariants()
        for handle in handles:
            chain.free_slot(handle)
        chain.check_invariants()

    def test_head_return_on_free_under_interleaved_churn(self):
        # Scripted churn: whenever a full block has one slot freed it
        # must re-enter at the *head* and satisfy the next allocation.
        chain = LockBlockChain(initial_blocks=3, capacity_per_block=2)
        first, second, third = chain.iter_list()
        held = [chain.allocate_slot() for _ in range(6)]  # all full
        assert chain.iter_list() == []
        for block in (second, first, third):
            handle = next(h for h in held if h is block)
            held.remove(handle)
            chain.free_slot(handle)
            assert chain.iter_list()[0] is block  # head-return
            refill = chain.allocate_slot()
            assert refill is block  # head allocation
            held.append(refill)
            chain.check_invariants()
        # interleave deeper: free two slots of one block, one of another;
        # the most recently re-listed block must be at the head
        for handle in [h for h in held if h is second][:2]:
            held.remove(handle)
            chain.free_slot(handle)
        handle = next(h for h in held if h is first)
        held.remove(handle)
        chain.free_slot(handle)
        assert chain.iter_list()[0] is first
        assert chain.allocate_slot() is first
        chain.check_invariants()


@st.composite
def chain_operations(draw):
    """A random but valid sequence of chain operations."""
    return draw(
        st.lists(
            st.sampled_from(["alloc", "free", "grow", "release"]),
            min_size=1,
            max_size=200,
        )
    )


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(ops=chain_operations())
    def test_invariants_hold_under_random_ops(self, ops):
        chain = LockBlockChain(initial_blocks=2, capacity_per_block=4)
        handles = []
        for op in ops:
            if op == "alloc":
                if chain.free_slots > 0:
                    handles.append(chain.allocate_slot())
            elif op == "free":
                if handles:
                    chain.free_slot(handles.pop())
            elif op == "grow":
                chain.add_blocks(1)
            elif op == "release":
                chain.release_blocks(1, partial=True)
            chain.check_invariants()
            assert chain.used_slots == len(handles)
            assert chain.free_slots >= 0

    @settings(max_examples=100, deadline=None)
    @given(
        allocs=st.integers(min_value=0, max_value=60),
        frees=st.integers(min_value=0, max_value=60),
    )
    def test_slot_conservation(self, allocs, frees):
        chain = LockBlockChain(initial_blocks=8, capacity_per_block=8)
        handles = []
        for _ in range(min(allocs, chain.free_slots)):
            handles.append(chain.allocate_slot())
        for _ in range(min(frees, len(handles))):
            chain.free_slot(handles.pop())
        assert chain.used_slots == len(handles)
        assert chain.used_slots + chain.free_slots == chain.capacity_slots

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_release_never_frees_inuse_blocks(self, data):
        chain = LockBlockChain(initial_blocks=4, capacity_per_block=4)
        count = data.draw(st.integers(min_value=0, max_value=16))
        handles = [chain.allocate_slot() for _ in range(count)]
        chain.release_blocks(4, partial=True)
        # every handle must still be freeable (its block still exists)
        for handle in handles:
            chain.free_slot(handle)
        chain.check_invariants()
