"""Tests for Table 1 parameters and the section 3.2 formulas."""

import pytest

from repro.core.params import TuningParameters
from repro.errors import ConfigurationError
from repro.units import MB, PAGES_PER_BLOCK, pages_to_bytes


class TestDefaultsMatchTable1:
    def test_free_band(self):
        params = TuningParameters()
        assert params.min_free_fraction == 0.50
        assert params.max_free_fraction == 0.60

    def test_delta_reduce_is_five_percent(self):
        assert TuningParameters().delta_reduce == 0.05

    def test_c1_is_65_percent(self):
        assert TuningParameters().c1_overflow_fraction == 0.65

    def test_max_lock_memory_is_20_percent(self):
        assert TuningParameters().max_lock_memory_fraction == 0.20

    def test_compiler_view_is_10_percent(self):
        assert TuningParameters().sql_compiler_fraction == 0.10

    def test_maxlocks_curve_constants(self):
        params = TuningParameters()
        assert params.maxlocks_p == 98.0
        assert params.maxlocks_exponent == 3.0
        assert params.maxlocks_floor == 1.0

    def test_refresh_period_is_0x80(self):
        assert TuningParameters().refresh_period_requests == 0x80

    def test_min_lock_memory_constants(self):
        params = TuningParameters()
        assert params.min_lock_memory_floor_bytes == 2 * MB
        assert params.min_locks_per_application == 500


class TestValidation:
    def test_inverted_free_band_rejected(self):
        with pytest.raises(ConfigurationError):
            TuningParameters(min_free_fraction=0.7, max_free_fraction=0.6)

    def test_c1_of_one_rejected(self):
        """C1 < 1 so overflow is never fully consumed (section 3.2)."""
        with pytest.raises(ConfigurationError):
            TuningParameters(c1_overflow_fraction=1.0)

    def test_zero_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            TuningParameters(delta_reduce=0.0)

    def test_bad_maxlocks_floor(self):
        with pytest.raises(ConfigurationError):
            TuningParameters(maxlocks_floor=0.0)

    def test_negative_exponent(self):
        with pytest.raises(ConfigurationError):
            TuningParameters(maxlocks_exponent=-1)


class TestMinLockMemory:
    def test_floor_dominates_few_applications(self):
        """minLockMemory = MAX(2MB, 500 * locksize * num_applications)."""
        params = TuningParameters()
        # 10 apps: 500 * 64 * 10 = 320 KB < 2 MB -> floor wins
        assert params.min_lock_memory_pages(10) == 512  # 2 MB in pages

    def test_per_application_term_dominates_many(self):
        params = TuningParameters()
        # 130 apps: 500 * 64 * 130 = 4.16 MB = 1,015.6 pages -> 1,024 (blocks)
        assert params.min_lock_memory_pages(130) == 1_024

    def test_rounded_to_blocks(self):
        params = TuningParameters()
        for apps in (0, 1, 17, 130, 1000):
            assert params.min_lock_memory_pages(apps) % PAGES_PER_BLOCK == 0

    def test_negative_apps_rejected(self):
        with pytest.raises(ValueError):
            TuningParameters().min_lock_memory_pages(-1)

    def test_table1_values_in_bytes(self):
        params = TuningParameters()
        assert pages_to_bytes(params.min_lock_memory_pages(0)) == 2 * MB
        assert pages_to_bytes(params.min_lock_memory_pages(130)) >= 500 * 64 * 130


class TestMaxLockMemory:
    def test_20_percent_of_database_memory(self):
        params = TuningParameters()
        # 512 MB database -> 131072 pages -> max = 26214 -> block-rounded up
        assert params.max_lock_memory_pages(131_072) == 26_240

    def test_rounded_to_blocks(self):
        params = TuningParameters()
        assert params.max_lock_memory_pages(99_999) % PAGES_PER_BLOCK == 0

    def test_rounding_never_goes_below_20_percent(self):
        assert TuningParameters().max_lock_memory_pages(131_072) >= 0.20 * 131_072

    def test_zero_database_memory_rejected(self):
        with pytest.raises(ValueError):
            TuningParameters().max_lock_memory_pages(0)


class TestCompilerView:
    def test_10_percent(self):
        assert TuningParameters().sql_compiler_lock_memory_pages(131_072) == 13_107


class TestLmoMax:
    def test_c1_of_overflow_plus_lmo(self):
        """LMOmax = C1 * (database overflow memory + LMO)."""
        params = TuningParameters()
        assert params.lmo_max_pages(overflow_pages=1_000, lmo_pages=0) == 650
        # lock memory already took 400 from overflow: the base is restored
        assert params.lmo_max_pages(overflow_pages=600, lmo_pages=400) == 650
        assert params.lmo_max_pages(10_000, 0) == 6_500

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TuningParameters().lmo_max_pages(-1, 0)


class TestFrozen:
    def test_immutable(self):
        params = TuningParameters()
        with pytest.raises(AttributeError):
            params.delta_reduce = 0.5
