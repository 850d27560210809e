"""Unit and property tests for counters, gauges and histograms."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    LATENCY_BUCKETS_S,
    SLOT_COUNT_BUCKETS,
    WALL_CLOCK_BUCKETS_S,
    Counter,
    Gauge,
    PENDING_LIMIT,
    Histogram,
    HistogramView,
    MetricRegistry,
    exponential_bounds,
)


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_last_value_wins(self):
        g = Gauge("x")
        g.set(3)
        g.set(7)
        assert g.value == 7.0


class TestExponentialBounds:
    def test_shape(self):
        bounds = exponential_bounds(0.001, 2.0, 4)
        assert bounds == (0.001, 0.002, 0.004, 0.008)

    @pytest.mark.parametrize(
        "kwargs", [dict(start=0), dict(start=-1), dict(factor=1.0),
                   dict(count=0)]
    )
    def test_validation(self, kwargs):
        args = dict(start=1.0, factor=2.0, count=4)
        args.update(kwargs)
        with pytest.raises(ValueError):
            exponential_bounds(**args)

    def test_canonical_buckets_ascending(self):
        for bounds in (LATENCY_BUCKETS_S, WALL_CLOCK_BUCKETS_S,
                       SLOT_COUNT_BUCKETS):
            assert list(bounds) == sorted(bounds)


class TestHistogramBasics:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[])
        with pytest.raises(ValueError):
            Histogram("h", bounds=[2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", bounds=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", bounds=[1.0, math.inf])

    def test_empty_raises_everywhere(self):
        h = Histogram("h")
        for access in (lambda: h.mean, lambda: h.min, lambda: h.max,
                       lambda: h.percentile(50)):
            with pytest.raises(ValueError):
                access()
        assert h.summary() == {"count": 0}

    def test_percentile_q_validation(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(100.1)

    def test_single_sample_percentiles_equal_sample(self):
        h = Histogram("h", bounds=[1.0, 2.0, 4.0])
        h.observe(1.5)
        # rank 1 lands in the 2.0 bucket; clamping to the observed max
        # reports the sample itself, not the bucket bound.
        assert h.p50 == h.p95 == h.p99 == 1.5
        assert h.mean == h.min == h.max == 1.5

    def test_overflow_bucket_reports_max(self):
        h = Histogram("h", bounds=[1.0, 2.0])
        h.observe(50.0)
        h.observe(99.0)
        assert h.p99 == 99.0
        assert h.counts[-1] == 2

    def test_known_distribution(self):
        h = Histogram("h", bounds=[1.0, 2.0, 4.0, 8.0])
        for value in (0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 7.0):
            h.observe(value)
        assert h.count == 10
        # ranks: p50 -> 5th of 10 -> cumulative 1+2+6 covers it in the
        # 4.0 bucket; p95 -> 10th -> 8.0 bucket, clamped to max 7.0.
        assert h.p50 == 4.0
        assert h.p95 == 7.0

    def test_summary_keys(self):
        h = Histogram("h")
        h.observe(0.01)
        assert set(h.summary()) == {
            "count", "mean", "min", "max", "p50", "p95", "p99"
        }


class TestHistogramSnapshot:
    def test_round_trip_identity(self):
        h = Histogram("h", bounds=[0.5, 1.0, 2.0])
        for value in (0.1, 0.7, 1.5, 9.0):
            h.observe(value)
        restored = Histogram.from_snapshot(h.snapshot())
        assert restored.snapshot() == h.snapshot()
        assert restored.summary() == h.summary()

    def test_empty_round_trip(self):
        h = Histogram("h", bounds=[1.0])
        restored = Histogram.from_snapshot(h.snapshot())
        assert restored.count == 0
        assert restored.snapshot() == h.snapshot()

    def test_bucket_count_mismatch_rejected(self):
        snapshot = Histogram("h", bounds=[1.0, 2.0]).snapshot()
        snapshot["counts"] = [0, 0]
        with pytest.raises(ValueError):
            Histogram.from_snapshot(snapshot)


class TestHistogramProperties:
    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e4), min_size=1, max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_percentiles_monotone_and_bounded(self, values):
        h = Histogram("h")
        for value in values:
            h.observe(value)
        qs = [1, 25, 50, 75, 95, 99, 100]
        results = [h.percentile(q) for q in qs]
        assert results == sorted(results)
        for r in results:
            assert h.min <= r <= h.max or math.isclose(r, h.min)
        assert h.percentile(100) == h.max

    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e4), min_size=0, max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_round_trip_preserves_percentiles(self, values):
        h = Histogram("h")
        for value in values:
            h.observe(value)
        restored = Histogram.from_snapshot(h.snapshot())
        if h.count:
            for q in (50, 95, 99):
                assert restored.percentile(q) == h.percentile(q)
        assert restored.counts == h.counts
        assert restored.sum == h.sum


def exact_state(hist):
    """Everything a histogram reports, floats by their bits."""
    snap = hist.snapshot()
    state = {key: snap[key] for key in ("counts", "count")}
    for key in ("sum", "min", "max"):
        state[key] = None if snap[key] is None else float(snap[key]).hex()
    if hist.count:
        state["percentiles"] = [
            hist.percentile(q).hex() for q in (0.1, 1, 25, 50, 75, 95, 99, 100)
        ]
        state["mean"] = hist.mean.hex()
    return state


class TestHistogramViewFolds:
    """A :class:`HistogramView` buffers raw observations and folds them
    at reads and at ``PENDING_LIMIT``; whenever it is read it must equal
    an eager :class:`Histogram` fed the same values in the same order --
    bucket counts, count, the bits of ``sum``, min, max, every
    percentile."""

    VALUES = st.one_of(
        st.floats(min_value=0.0, max_value=10.0),
        st.sampled_from(WALL_CLOCK_BUCKETS_S),  # on a bound: bisect_left's edge
        st.just(0.0),
    )

    @given(
        cycle=st.lists(VALUES, min_size=1, max_size=40),
        length=st.one_of(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=PENDING_LIMIT - 5, max_value=3 * PENDING_LIMIT),
        ),
        reads=st.lists(
            st.integers(min_value=0, max_value=3 * PENDING_LIMIT), max_size=20
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_view_reads_as_an_eager_histogram(self, cycle, length, reads):
        eager = Histogram("h", WALL_CLOCK_BUCKETS_S)
        view = HistogramView("h", WALL_CLOCK_BUCKETS_S, threading.RLock())
        read_at = set(reads)
        for i in range(length):
            if i in read_at:
                assert exact_state(view) == exact_state(eager), i
            value = cycle[i % len(cycle)]
            eager.observe(value)
            view.observe_held(value)
            assert len(view._pending) < PENDING_LIMIT
        assert exact_state(view) == exact_state(eager)
        assert view.summary() == eager.summary()

    def test_the_limit_folds_without_a_read(self):
        view = HistogramView("h", WALL_CLOCK_BUCKETS_S, threading.RLock())
        for _ in range(PENDING_LIMIT - 1):
            view.observe_held(3e-6)
        assert view.count == 0 and len(view._pending) == PENDING_LIMIT - 1
        view.observe_held(3e-6)
        assert view.count == PENDING_LIMIT and not view._pending

    def test_observe_keeps_the_arrival_order(self):
        """The locked entry point appends too: a fold adds the values in
        the order they came, whichever way each came in."""
        eager = Histogram("h", WALL_CLOCK_BUCKETS_S)
        view = HistogramView("h", WALL_CLOCK_BUCKETS_S, threading.RLock())
        for i, value in enumerate((0.1, 1e-17, 3.0, 1e-17, 7)):
            eager.observe(value)
            (view.observe if i % 2 else view.observe_held)(float(value))
        assert exact_state(view) == exact_state(eager)


class TestMetricRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_get_and_contains(self):
        reg = MetricRegistry()
        c = reg.counter("a")
        assert reg.get("a") is c
        assert reg.get("missing") is None
        assert "a" in reg and "missing" not in reg
        assert len(reg) == 1

    def test_install_restored_histogram(self):
        reg = MetricRegistry()
        h = Histogram("h", bounds=[1.0])
        h.observe(0.5)
        reg.install(Histogram.from_snapshot(h.snapshot()))
        assert reg.get("h").count == 1

    def test_install_cross_type_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.install(Gauge("x"))

    def test_snapshot_groups_by_type(self):
        reg = MetricRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(0.01)
        snapshot = reg.snapshot()
        assert snapshot["counters"] == {"c": 3.0}
        assert snapshot["gauges"] == {"g": 7.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_typed_listings_sorted(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.counter("a")
        reg.gauge("g")
        assert [c.name for c in reg.counters()] == ["a", "b"]
        assert [g.name for g in reg.gauges()] == ["g"]
        assert reg.names() == ["a", "b", "g"]
