"""Tests for the whole-memory broker: estimators, pressure, trading.

The centrepiece is the deterministic :class:`ManualClock` scenario the
PR's acceptance criterion asks for: a scripted demand sequence
(bufferpool-heavy, then a sort-spill surge, then a lock surge) must
produce an *exact* expected trade/posture audit sequence, with total
pages across all heaps plus the free pool equal to ``DATABASE_MEMORY``
after every interval.
"""

import pytest

from repro.errors import MemoryAccountingError
from repro.memory.bufferpool import BufferpoolModel
from repro.memory.heaps import HeapCategory, MemoryHeap
from repro.memory.registry import DatabaseMemoryRegistry
from repro.obs.audit import BROKER_REASONS
from repro.obs.registry import MetricRegistry
from repro.service.admission import AdmissionController
from repro.service.broker import (
    BrokerConfig,
    BufferpoolEstimator,
    LockListEstimator,
    MemoryBroker,
    PressureConfig,
    PressureMonitor,
    RateMeter,
    as_rate,
    default_estimators,
    WorkloadProfile,
)
from repro.service.broker.estimators import BenefitEstimator
from repro.service.clock import ManualClock


class ScriptedEstimator(BenefitEstimator):
    """An estimator whose slope and demand the test scripts directly."""

    def __init__(self, heap, slope_fn, demand_fn, tradeable=True):
        super().__init__(heap, 1.0)  # rate 1.0: benefit == slope
        self._slope_fn = slope_fn
        self._demand_fn = demand_fn
        self.tradeable = tradeable

    def _slope(self):
        return self._slope_fn()

    def demand_pages(self):
        return self._demand_fn()


class TestRateHelpers:
    def test_as_rate_constant_and_callable(self):
        assert as_rate(5)() == 5.0
        assert as_rate(lambda: 7.5)() == 7.5

    def test_as_rate_rejects_negative_constant(self):
        with pytest.raises(ValueError):
            as_rate(-1.0)

    def test_rate_meter_differentiates(self):
        counter = {"n": 0}
        meter = RateMeter(lambda: counter["n"])
        assert meter.sample(1.0) == 0.0  # no interval yet
        counter["n"] = 50
        assert meter.sample(6.0) == pytest.approx(10.0)

    def test_rate_meter_non_advancing_clock_is_zero(self):
        meter = RateMeter(lambda: 100.0)
        meter.sample(1.0)
        assert meter.sample(1.0) == 0.0

    def test_rate_meter_counter_reset_clamps_to_zero(self):
        counter = {"n": 100}
        meter = RateMeter(lambda: counter["n"])
        meter.sample(1.0)
        counter["n"] = 0
        assert meter.sample(2.0) == 0.0


class TestEstimators:
    def test_bufferpool_demand_from_hit_curve(self):
        heap = MemoryHeap("bufferpool", HeapCategory.PMC, 100)
        model = BufferpoolModel(half_saturation_pages=1_000)
        est = BufferpoolEstimator(heap, model, 500.0, demand_fraction=0.75)
        # s = h * f / (1 - f) = 1000 * 3
        assert est.demand_pages() == 3_000
        est.observe(0.0)
        assert est.benefit == pytest.approx(
            model.marginal_benefit(100) * 500.0
        )

    def test_locklist_estimator_is_signal_only(self):
        heap = MemoryHeap("locklist", HeapCategory.PMC, 100)
        est = LockListEstimator(
            heap, lambda: 80.0, 2.0, min_free_fraction=0.50
        )
        assert est.tradeable is False
        # used / (1 - minFree) = 160, above the current size
        assert est.demand_pages() == 160
        est.observe(0.0)
        assert est.benefit == pytest.approx(2.0 * 0.25 / 100)

    def test_locklist_demand_never_below_current_size(self):
        heap = MemoryHeap("locklist", HeapCategory.PMC, 400)
        est = LockListEstimator(heap, lambda: 10.0, 0.0)
        assert est.demand_pages() == 400

    def test_default_estimators_cover_registered_heaps_only(self):
        registry = DatabaseMemoryRegistry(total_pages=4_096)
        registry.register(MemoryHeap("bufferpool", HeapCategory.PMC, 1_024))
        registry.register(MemoryHeap("sortheap", HeapCategory.PMC, 256))
        ests = default_estimators(registry, WorkloadProfile())
        assert sorted(e.heap_name for e in ests) == [
            "bufferpool",
            "sortheap",
        ]

    def test_default_estimators_locklist_needs_used_pages(self):
        registry = DatabaseMemoryRegistry(total_pages=4_096)
        registry.register(MemoryHeap("locklist", HeapCategory.PMC, 128))
        assert default_estimators(registry, WorkloadProfile()) == []
        ests = default_estimators(
            registry, WorkloadProfile(), locklist_used_pages=lambda: 10.0
        )
        assert [e.heap_name for e in ests] == ["locklist"]


class TestPressureMonitor:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PressureConfig(throttle_enter=1.3, queue_enter=1.2)
        with pytest.raises(ValueError):
            PressureConfig(release_margin=-0.1)
        with pytest.raises(ValueError):
            PressureConfig(release_intervals=0)

    def test_escalates_one_rung_per_interval(self):
        monitor = PressureMonitor()
        # A shed-level surge still walks the ladder rung by rung.
        assert monitor.update(9.9) == (
            "normal", "throttle", "pressure-throttle"
        )
        assert monitor.update(9.9) == ("throttle", "queue", "pressure-queue")
        assert monitor.update(9.9) == ("queue", "shed", "pressure-shed")
        assert monitor.update(9.9) is None  # already at the top

    def test_release_needs_consecutive_calm_intervals(self):
        monitor = PressureMonitor(
            config=PressureConfig(release_intervals=2)
        )
        monitor.update(1.10)  # -> throttle
        assert monitor.update(0.90) is None  # calm 1
        monitor.update(1.04)  # inside the margin: streak resets
        assert monitor.update(0.90) is None  # calm 1 again
        assert monitor.update(0.90) == (
            "throttle", "normal", "pressure-release"
        )

    def test_limits_per_posture(self):
        admission = AdmissionController(8, max_queue_depth=16)
        monitor = PressureMonitor(admission)
        assert monitor.limits_for("normal") == (8, 16)
        assert monitor.limits_for("throttle") == (4, 16)
        assert monitor.limits_for("queue") == (2, 16)
        assert monitor.limits_for("shed") == (2, 0)

    def test_in_flight_never_below_one(self):
        admission = AdmissionController(1, max_queue_depth=0)
        monitor = PressureMonitor(admission)
        assert monitor.limits_for("shed") == (1, 0)

    def test_actuates_admission_controller(self):
        admission = AdmissionController(8, max_queue_depth=16)
        monitor = PressureMonitor(admission)
        monitor.update(2.0)  # throttle
        assert admission.max_in_flight == 4
        monitor.update(2.0)  # queue
        monitor.update(2.0)  # shed
        assert admission.max_in_flight == 2
        assert admission.max_queue_depth == 0
        for _ in range(6):
            monitor.update(0.5)
        assert monitor.posture == "normal"
        assert admission.max_in_flight == 8
        assert admission.max_queue_depth == 16


class TestBrokerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BrokerConfig(trade_block_pages=0)
        with pytest.raises(ValueError):
            BrokerConfig(max_trades_per_interval=-1)
        with pytest.raises(ValueError):
            BrokerConfig(min_benefit_ratio=0.5)

    def test_duplicate_estimator_heaps_rejected(self):
        registry = DatabaseMemoryRegistry(total_pages=1_024)
        heap = registry.register(MemoryHeap("a", HeapCategory.PMC, 128))
        ests = [
            ScriptedEstimator(heap, lambda: 1.0, lambda: 128),
            ScriptedEstimator(heap, lambda: 1.0, lambda: 128),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            MemoryBroker(registry, ests)


class TestDeterministicScenario:
    """The acceptance scenario: scripted demand, exact audit sequence."""

    TOTAL = 1_024

    def build(self):
        registry = DatabaseMemoryRegistry(
            total_pages=self.TOTAL, overflow_goal_pages=32
        )
        bufferpool = registry.register(
            MemoryHeap("bufferpool", HeapCategory.PMC, 512, min_pages=32)
        )
        sortheap = registry.register(
            MemoryHeap("sortheap", HeapCategory.PMC, 256, min_pages=32)
        )
        locklist = registry.register(
            MemoryHeap("locklist", HeapCategory.PMC, 128, min_pages=32)
        )
        state = {
            "benefit": {"bufferpool": 10.0, "sortheap": 1.0, "locklist": 0.0},
            "demand": {"bufferpool": 640, "sortheap": 128, "locklist": 128},
        }

        def est(heap, tradeable=True):
            return ScriptedEstimator(
                heap,
                lambda: state["benefit"][heap.name],
                lambda: state["demand"][heap.name],
                tradeable=tradeable,
            )

        admission = AdmissionController(8, max_queue_depth=16)
        broker = MemoryBroker(
            registry,
            [est(bufferpool), est(sortheap), est(locklist, tradeable=False)],
            admission=admission,
            config=BrokerConfig(
                trade_block_pages=32,
                max_trades_per_interval=2,
                min_benefit_ratio=1.25,
            ),
        )
        return registry, broker, admission, state

    def test_exact_trade_and_posture_sequence(self):
        registry, broker, admission, state = self.build()
        clock = ManualClock()
        observed = []
        for interval in range(1, 11):
            if interval == 3:  # sort-spill surge
                state["benefit"]["sortheap"] = 50.0
                state["demand"]["sortheap"] = 320
            if interval == 4:  # lock surge on top
                state["benefit"]["locklist"] = 5.0
                state["demand"]["locklist"] = 512
            if interval == 6:  # both surges subside
                state["benefit"]["sortheap"] = 1.0
                state["demand"]["sortheap"] = 128
                state["benefit"]["locklist"] = 0.0
                state["demand"]["locklist"] = 128
            clock.advance(1.0)
            records = broker.run_interval(clock.now())
            observed.append(
                [
                    (r.reason, r.heap_from, r.heap_to, r.pages, r.posture)
                    for r in records
                ]
            )
            # The conservation invariant, after *every* interval.
            snapshot = registry.snapshot()
            assert sum(snapshot.values()) == self.TOTAL
            assert registry.overflow_pages >= 0

        assert observed == [
            # bufferpool-heavy: sortheap donates to the bufferpool
            [("trade-benefit", "sortheap", "bufferpool", 64, "normal")],
            [("trade-benefit", "sortheap", "bufferpool", 64, "normal")],
            # sort-spill surge reverses the flow and crosses 1.05
            [
                ("trade-benefit", "bufferpool", "sortheap", 64, "normal"),
                ("pressure-throttle", "", "", 0, "throttle"),
            ],
            # lock surge stacks demand past 1.25
            [
                ("trade-benefit", "bufferpool", "sortheap", 64, "throttle"),
                ("pressure-queue", "", "", 0, "queue"),
            ],
            # sortheap reaches its demand; pressure holds below shed
            [("trade-benefit", "bufferpool", "sortheap", 64, "queue")],
            # calm: flow reverses again, hysteresis counts calm interval 1
            [("trade-benefit", "sortheap", "bufferpool", 64, "queue")],
            # calm interval 2 releases one rung
            [
                ("trade-benefit", "sortheap", "bufferpool", 64, "queue"),
                ("pressure-release", "", "", 0, "throttle"),
            ],
            [("trade-benefit", "sortheap", "bufferpool", 64, "throttle")],
            # bufferpool sated: nothing to trade, second calm pair releases
            [("pressure-release", "", "", 0, "normal")],
            [],
        ]

    def test_final_sizes_and_counters(self):
        registry, broker, admission, state = self.build()
        clock = ManualClock()
        for interval in range(1, 11):
            if interval == 3:
                state["benefit"]["sortheap"] = 50.0
                state["demand"]["sortheap"] = 320
            if interval == 4:
                state["benefit"]["locklist"] = 5.0
                state["demand"]["locklist"] = 512
            if interval == 6:
                state["benefit"]["sortheap"] = 1.0
                state["demand"]["sortheap"] = 128
                state["benefit"]["locklist"] = 0.0
                state["demand"]["locklist"] = 128
            clock.advance(1.0)
            broker.run_interval(clock.now())
        assert registry.heap("bufferpool").size_pages == 640
        assert registry.heap("sortheap").size_pages == 128
        assert registry.heap("locklist").size_pages == 128  # never traded
        assert registry.overflow_pages == 128
        assert broker.intervals_run == 10
        assert broker.trades_total == 8
        assert broker.pages_traded_total == 512
        # Admission limits restored with the posture.
        assert admission.max_in_flight == 8
        assert admission.max_queue_depth == 16
        # Every recorded reason belongs to the closed vocabulary.
        assert set(broker.audit.reasons()) <= set(BROKER_REASONS)

    def test_postures_actuate_admission_mid_run(self):
        registry, broker, admission, state = self.build()
        clock = ManualClock()
        state["benefit"]["sortheap"] = 50.0
        state["demand"]["sortheap"] = 320
        state["demand"]["locklist"] = 512
        clock.advance(1.0)
        broker.run_interval(clock.now())  # -> throttle
        assert admission.max_in_flight == 4
        clock.advance(1.0)
        broker.run_interval(clock.now())  # -> queue
        assert admission.max_in_flight == 2

    def test_metrics_published(self):
        registry, broker, admission, state = self.build()
        broker.metrics = metrics = MetricRegistry()
        clock = ManualClock()
        clock.advance(1.0)
        broker.run_interval(clock.now())
        gauges = {g.name: g.value for g in metrics.gauges()}
        assert gauges["broker.pressure.score"] == pytest.approx(0.90625)
        assert gauges["broker.posture"] == 0.0
        assert gauges['broker.heap.size_pages{heap="bufferpool"}'] == 576.0
        assert gauges['broker.heap.demand_pages{heap="bufferpool"}'] == 640.0
        counters = {c.name: c.value for c in metrics.counters()}
        assert counters["broker.trades"] == 1.0
        assert counters["broker.pages_traded"] == 64.0

    def test_status_block_shape(self):
        registry, broker, admission, state = self.build()
        clock = ManualClock()
        clock.advance(1.0)
        broker.run_interval(clock.now())
        status = broker.status()
        assert status["posture"] == "normal"
        assert status["total_pages"] == self.TOTAL
        heaps = {h["heap"]: h for h in status["heaps"]}
        assert heaps["locklist"]["tradeable"] is False
        assert heaps["bufferpool"]["size_pages"] == 576
        assert status["audit"][0]["reason"] == "trade-benefit"


class TestAdmissionSetLimits:
    def test_raising_in_flight_wakes_queued_waiters(self):
        import threading

        from tests.service.sched import wait_until

        admission = AdmissionController(1, max_queue_depth=4)
        admission.acquire()
        admitted = threading.Event()

        def waiter():
            admission.acquire()
            admitted.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        wait_until(
            lambda: admission.queue_depth() == 1, what="waiter queued"
        )
        admission.set_limits(max_in_flight=2)
        thread.join(5.0)
        assert admitted.is_set()

    def test_lowering_never_evicts_running_sessions(self):
        admission = AdmissionController(4, max_queue_depth=0)
        for _ in range(4):
            admission.acquire()
        admission.set_limits(max_in_flight=1)
        assert admission.in_flight() == 4  # existing work finishes
        for _ in range(4):
            admission.release()
        admission.acquire()
        from repro.errors import AdmissionRejectedError

        with pytest.raises(AdmissionRejectedError):
            admission.acquire()

    def test_validation(self):
        admission = AdmissionController(4)
        with pytest.raises(ValueError):
            admission.set_limits(max_in_flight=0)
        with pytest.raises(ValueError):
            admission.set_limits(max_queue_depth=-1)


class TestServiceStackIntegration:
    """The broker wired into the live stack (driven synchronously)."""

    def make_stack(self, **overrides):
        from repro.service.stack import ServiceConfig, ServiceStack

        defaults = dict(
            total_memory_pages=16_384,
            initial_locklist_pages=128,
            tuner_interval_s=30.0,  # drive tuning manually
            broker=True,
        )
        defaults.update(overrides)
        return ServiceStack(ServiceConfig(**defaults))

    def test_broker_heaps_registered_and_traded(self):
        stack = self.make_stack()
        assert stack.broker is not None
        for name in ("sortheap", "hashjoin", "pkgcache"):
            assert name in stack.registry
        # STMM's own PMC rebalance is off: page moves are broker trades.
        assert stack.stmm.config.pmc_rebalance_fraction == 0.0
        with stack:
            for _ in range(6):
                stack.tuner.tune_now()
        assert stack.broker.intervals_run == 6
        assert stack.broker.trades_total > 0
        assert set(stack.broker.audit.reasons()) <= set(BROKER_REASONS)
        snapshot = stack.registry.snapshot()
        assert sum(snapshot.values()) == 16_384
        stack.check_invariants()

    def test_default_profile_stays_normal(self):
        """The stock profile must not throttle a default-sized run."""
        stack = self.make_stack()
        with stack:
            for _ in range(4):
                stack.tuner.tune_now()
        assert stack.broker.pressure.posture == "normal"
        assert stack.admission.max_in_flight == stack.config.max_in_flight

    def test_undersized_budget_throttles_under_load(self):
        """A DATABASE_MEMORY below the stock profile's demand throttles
        the admission door while real threads run, and trading still
        conserves every page through shutdown."""
        import threading

        from repro.service.cli import _check_shutdown_accounting
        from repro.service.driver import LoadDriver

        stack = self.make_stack(total_memory_pages=2_048, max_in_flight=8)
        pressure = stack.broker.pressure
        assert stack.broker.pressure_score() > pressure.config.throttle_enter
        with stack:
            driver = LoadDriver(
                stack, threads=4, requests_per_thread=100, seed=0,
                admission_timeout_s=60.0,
            )
            reports = []
            load = threading.Thread(
                target=lambda: reports.append(driver.run()), daemon=True
            )
            load.start()
            # The posture climbs one rung per interval whatever the load
            # is doing, so the dip is deterministic; sampling it on every
            # pass catches it before calm intervals could release it.
            min_in_flight = 8
            for _ in range(4):
                stack.tuner.tune_now()
                min_in_flight = min(min_in_flight, stack.admission.max_in_flight)
            load.join(60.0)
            assert not load.is_alive()
            assert reports[0].worker_errors == []
            for _ in range(6):
                stack.tuner.tune_now()
            assert not stack.tuner.frozen
            reasons = set(stack.broker.audit.reasons())
            assert {"trade-benefit", "pressure-throttle"} <= reasons
            assert min_in_flight < 8
            assert sum(stack.registry.snapshot().values()) == 2_048
        assert _check_shutdown_accounting(stack) == []

    def test_ops_stmm_carries_the_broker_block(self):
        stack = self.make_stack()
        with stack:
            stack.tuner.tune_now()
            block = stack.ops_stmm()["broker"]
        assert block is not None
        assert block["posture"] == "normal"
        assert {h["heap"] for h in block["heaps"]} >= {
            "bufferpool",
            "sortheap",
            "hashjoin",
            "pkgcache",
            "locklist",
        }

    def test_broker_off_by_default(self):
        stack = self.make_stack(broker=False)
        assert stack.broker is None
        assert "sortheap" not in stack.registry
        with stack:
            stack.tuner.tune_now()
        assert stack.ops_stmm()["broker"] is None

    def test_broker_crash_rides_the_freeze_path(self):
        stack = self.make_stack()

        def bomb(now):
            raise RuntimeError("broker bug")

        stack.broker.run_interval = bomb
        with stack:
            with pytest.raises(RuntimeError, match="broker bug"):
                stack.tuner.tune_now()
            assert stack.tuner.frozen
            assert stack.service.frozen_reason is not None
        stack.check_invariants()

    def test_telemetry_carries_broker_records(self, tmp_path):
        from repro.obs.events import RunTelemetry
        from repro.service.telemetry import service_telemetry

        stack = self.make_stack()
        with stack:
            for _ in range(6):
                stack.tuner.tune_now()
        telemetry = service_telemetry(stack, label="broker-run")
        assert telemetry.broker  # trades happened above
        path = str(tmp_path / "broker.jsonl")
        telemetry.write_jsonl(path)
        reloaded = RunTelemetry.from_jsonl(path)
        assert reloaded.broker == telemetry.broker


class TestConservationUnderFault:
    def test_oversubscription_is_caught_by_the_interval_proof(self):
        registry = DatabaseMemoryRegistry(total_pages=256)
        heap = registry.register(
            MemoryHeap("bufferpool", HeapCategory.PMC, 128)
        )
        broker = MemoryBroker(
            registry,
            [ScriptedEstimator(heap, lambda: 1.0, lambda: 128)],
        )
        # Corrupt the accounting behind the registry's back.
        heap._size_pages += 512
        with pytest.raises(MemoryAccountingError):
            broker.run_interval(1.0)
