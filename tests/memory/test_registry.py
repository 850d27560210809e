"""Unit tests for the database shared memory registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MemoryAccountingError
from repro.memory.heaps import HeapCategory, MemoryHeap
from repro.memory.registry import DatabaseMemoryRegistry


def make_registry(total=10_000, goal=500):
    return DatabaseMemoryRegistry(total_pages=total, overflow_goal_pages=goal)


class TestConstruction:
    def test_invalid_total_rejected(self):
        with pytest.raises(ConfigurationError):
            DatabaseMemoryRegistry(total_pages=0)

    def test_goal_above_total_rejected(self):
        with pytest.raises(ConfigurationError):
            DatabaseMemoryRegistry(total_pages=10, overflow_goal_pages=20)

    def test_default_goal_is_two_percent(self):
        registry = DatabaseMemoryRegistry(total_pages=10_000)
        assert registry.overflow_goal_pages == 200

    def test_everything_starts_in_overflow(self):
        registry = make_registry()
        assert registry.overflow_pages == 10_000


class TestRegistration:
    def test_register_carves_from_overflow(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 4_000))
        assert registry.overflow_pages == 6_000

    def test_duplicate_name_rejected(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 100))
        with pytest.raises(ConfigurationError):
            registry.register(MemoryHeap("a", HeapCategory.PMC, 100))

    def test_oversubscription_rejected(self):
        registry = make_registry()
        with pytest.raises(ConfigurationError):
            registry.register(MemoryHeap("a", HeapCategory.PMC, 10_001))

    def test_unknown_heap_lookup_lists_known(self):
        registry = make_registry()
        registry.register(MemoryHeap("known", HeapCategory.PMC, 10))
        with pytest.raises(KeyError, match="known"):
            registry.heap("missing")

    def test_contains(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 10))
        assert "a" in registry
        assert "b" not in registry


class TestGrowShrink:
    def test_grow_takes_from_overflow(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 1_000))
        granted = registry.grow_heap("a", 500)
        assert granted == 500
        assert registry.heap("a").size_pages == 1_500
        assert registry.overflow_pages == 8_500

    def test_grow_beyond_overflow_raises_without_partial(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 9_000))
        with pytest.raises(MemoryAccountingError):
            registry.grow_heap("a", 2_000)

    def test_grow_partial_clips(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 9_000))
        assert registry.grow_heap("a", 2_000, partial=True) == 1_000
        assert registry.overflow_pages == 0

    def test_grow_respects_heap_max(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 100, max_pages=150))
        assert registry.grow_heap("a", 500, partial=True) == 50

    def test_shrink_returns_to_overflow(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 1_000))
        assert registry.shrink_heap("a", 400) == 400
        assert registry.overflow_pages == 9_400

    def test_shrink_respects_min_without_partial(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 1_000, min_pages=800))
        with pytest.raises(MemoryAccountingError):
            registry.shrink_heap("a", 400)
        assert registry.shrink_heap("a", 400, partial=True) == 200

    def test_negative_amounts_rejected(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 100))
        with pytest.raises(ValueError):
            registry.grow_heap("a", -1)
        with pytest.raises(ValueError):
            registry.shrink_heap("a", -1)


class TestTransfer:
    def test_transfer_moves_pages(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 1_000))
        registry.register(MemoryHeap("b", HeapCategory.PMC, 1_000))
        overflow_before = registry.overflow_pages
        assert registry.transfer("a", "b", 300) == 300
        assert registry.heap("a").size_pages == 700
        assert registry.heap("b").size_pages == 1_300
        assert registry.overflow_pages == overflow_before

    def test_self_transfer_rejected(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 100))
        with pytest.raises(ValueError):
            registry.transfer("a", "a", 1)

    def test_transfer_partial_clips_on_donor_min(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 500, min_pages=400))
        registry.register(MemoryHeap("b", HeapCategory.PMC, 100))
        assert registry.transfer("a", "b", 300, partial=True) == 100


class TestDonorsReceivers:
    def _registry_with_benefits(self):
        registry = make_registry()
        registry.register(
            MemoryHeap("low", HeapCategory.PMC, 1_000, benefit=lambda h: 1.0)
        )
        registry.register(
            MemoryHeap("high", HeapCategory.PMC, 1_000, benefit=lambda h: 10.0)
        )
        registry.register(MemoryHeap("fmc", HeapCategory.FMC, 1_000))
        return registry

    def test_donors_sorted_least_needy_first(self):
        registry = self._registry_with_benefits()
        assert [h.name for h in registry.pmc_donors()] == ["low", "high"]

    def test_receivers_sorted_most_needy_first(self):
        registry = self._registry_with_benefits()
        assert [h.name for h in registry.pmc_receivers()] == ["high", "low"]

    def test_fmc_never_a_donor_or_receiver(self):
        registry = self._registry_with_benefits()
        names = {h.name for h in registry.pmc_donors()}
        names |= {h.name for h in registry.pmc_receivers()}
        assert "fmc" not in names

    def test_exclude_filters(self):
        registry = self._registry_with_benefits()
        assert [h.name for h in registry.pmc_donors(exclude=["low"])] == ["high"]

    def test_reclaim_from_donors_least_needy_first(self):
        registry = self._registry_with_benefits()
        reclaimed = registry.reclaim_from_donors(1_500)
        assert reclaimed == 1_500
        assert registry.heap("low").size_pages == 0
        assert registry.heap("high").size_pages == 500

    def test_reclaim_clips_at_donor_minimums(self):
        registry = make_registry()
        registry.register(
            MemoryHeap("a", HeapCategory.PMC, 1_000, min_pages=900)
        )
        assert registry.reclaim_from_donors(500) == 100


class TestShortfallPaths:
    """Under-budget shortfalls: exact clip amounts and strict raises."""

    def test_transfer_shortfall_raises_without_partial(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 500, min_pages=400))
        registry.register(MemoryHeap("b", HeapCategory.PMC, 100))
        with pytest.raises(MemoryAccountingError, match="transfer"):
            registry.transfer("a", "b", 300)
        # the failed transfer moved nothing
        assert registry.heap("a").size_pages == 500
        assert registry.heap("b").size_pages == 100

    def test_transfer_clips_on_receiver_max(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 500))
        registry.register(
            MemoryHeap("b", HeapCategory.PMC, 100, max_pages=150)
        )
        with pytest.raises(MemoryAccountingError):
            registry.transfer("a", "b", 300)
        assert registry.transfer("a", "b", 300, partial=True) == 50

    def test_grow_clipped_by_overflow_and_heap_max_together(self):
        registry = make_registry(total=1_000)
        registry.register(
            MemoryHeap("a", HeapCategory.PMC, 900, max_pages=950)
        )
        registry.register(MemoryHeap("b", HeapCategory.PMC, 80))
        # overflow 20, headroom 50: overflow binds
        assert registry.grow_heap("a", 100, partial=True) == 20

    def test_grow_zero_available_partial_grants_nothing(self):
        registry = make_registry(total=100, goal=10)
        registry.register(MemoryHeap("a", HeapCategory.PMC, 100))
        registry.register(MemoryHeap("b", HeapCategory.PMC, 0))
        assert registry.grow_heap("b", 10, partial=True) == 0
        with pytest.raises(MemoryAccountingError):
            registry.grow_heap("b", 10)

    def test_oversubscription_detected_by_overflow_property(self):
        registry = make_registry(total=100, goal=10)
        heap = registry.register(MemoryHeap("a", HeapCategory.PMC, 100))
        heap._size_pages += 1  # corrupt accounting behind the registry
        with pytest.raises(MemoryAccountingError, match="oversubscribe"):
            _ = registry.overflow_pages
        with pytest.raises(MemoryAccountingError):
            registry.snapshot()

    def test_reclaim_shortfall_reports_achieved_pages(self):
        registry = make_registry()
        registry.register(
            MemoryHeap("a", HeapCategory.PMC, 1_000, min_pages=950)
        )
        registry.register(
            MemoryHeap("b", HeapCategory.PMC, 500, min_pages=500)
        )
        assert registry.reclaim_from_donors(200) == 50


class TestInvariant:
    def test_snapshot_sums_to_total(self):
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 3_000))
        registry.register(MemoryHeap("b", HeapCategory.FMC, 2_000))
        registry.grow_heap("a", 123)
        registry.shrink_heap("b", 45)
        snapshot = registry.snapshot()
        assert sum(snapshot.values()) == registry.total_pages

    def test_deficit_and_surplus(self):
        registry = make_registry(total=1_000, goal=300)
        registry.register(MemoryHeap("a", HeapCategory.PMC, 800))
        assert registry.overflow_pages == 200
        assert registry.overflow_deficit_pages == 100
        assert registry.overflow_surplus_pages == 0
        registry.shrink_heap("a", 300)
        assert registry.overflow_deficit_pages == 0
        assert registry.overflow_surplus_pages == 200

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["grow", "shrink", "transfer"]),
                st.integers(min_value=0, max_value=2_000),
            ),
            max_size=40,
        )
    )
    def test_random_ops_preserve_total(self, ops):
        """Property: no operation sequence changes total accounted pages."""
        registry = make_registry()
        registry.register(MemoryHeap("a", HeapCategory.PMC, 2_000))
        registry.register(MemoryHeap("b", HeapCategory.PMC, 2_000))
        for op, amount in ops:
            if op == "grow":
                registry.grow_heap("a", amount, partial=True)
            elif op == "shrink":
                registry.shrink_heap("a", amount, partial=True)
            else:
                registry.transfer("a", "b", amount, partial=True)
            assert sum(registry.snapshot().values()) == registry.total_pages
