"""Tests for the STMM tuner daemon (live tuning + crash degradation)."""

import time

import pytest

from repro.lockmgr.modes import LockMode
from repro.service.stack import ServiceConfig, ServiceStack
from tests.service.sched import wait_until


def make_stack(**overrides) -> ServiceStack:
    defaults = dict(
        total_memory_pages=8_192,
        initial_locklist_pages=32,
        tuner_interval_s=0.02,
    )
    defaults.update(overrides)
    return ServiceStack(ServiceConfig(**defaults))


class TestLiveTuning:
    def test_daemon_runs_intervals_on_wall_clock(self):
        stack = make_stack()
        with stack:
            wait_until(
                lambda: stack.tuner.intervals_run >= 3,
                what="three tuner intervals",
            )
        assert stack.tuner.intervals_run >= 3
        assert stack.tuner.crash is None
        assert len(stack.tuner.reports) == stack.tuner.intervals_run
        stack.check_invariants()

    def test_tuning_grows_lock_memory_under_demand(self):
        """Hold most of the lock list; the daemon's next pass must grow
        it (free fraction below minFreeLockMemory)."""
        stack = make_stack(tuner_interval_s=30.0)  # drive tuning manually
        before = stack.chain.allocated_pages
        with stack:
            with stack.service.session() as app:
                # one block = 2048 slots; push free fraction below 50 %
                for row in range(1_200):
                    stack.service.lock_row(app, 0, row, LockMode.S)
                stack.tuner.tune_now()
                after = stack.chain.allocated_pages
                assert after > before
        stack.check_invariants()
        assert stack.registry.heap("locklist").size_pages == after

    def test_interval_report_recorded(self):
        stack = make_stack(tuner_interval_s=30.0)
        with stack:
            report = stack.tuner.tune_now()
        assert report is stack.tuner.reports[0]
        assert stack.tuner.intervals_run == 1

    def test_stop_joins_the_thread(self):
        stack = make_stack()
        stack.start()
        assert stack.tuner.alive
        stack.stop()
        assert not stack.tuner.alive

    def test_metrics_published(self):
        stack = make_stack(tuner_interval_s=30.0)
        with stack:
            stack.tuner.tune_now()
        counters = {c.name: c.value for c in stack.metrics.counters()}
        gauges = {g.name: g.value for g in stack.metrics.gauges()}
        assert counters["tuner.intervals"] == 1
        assert gauges["tuner.locklist_pages"] == stack.chain.allocated_pages


class TestCrashDegradation:
    def _crash_tuner(self, stack: ServiceStack) -> None:
        """Make the next controller pass explode inside stmm.tune."""

        def bomb():
            raise RuntimeError("tuner bug")

        # compute_target_pages is the first controller step of a pass and
        # runs before any page moves, so the crash has no side effects.
        stack.controller.compute_target_pages = bomb

    def test_crash_freezes_service_and_preserves_accounting(self):
        stack = make_stack(tuner_interval_s=0.02)
        self._crash_tuner(stack)
        with stack:
            wait_until(
                lambda: not stack.tuner.alive,
                what="tuner thread death after injected crash",
            )
            assert not stack.tuner.alive
            assert isinstance(stack.tuner.crash, RuntimeError)
            assert stack.tuner.frozen
            assert stack.service.frozen_reason is not None
            # frozen = static LOCKLIST: no growth provider, fixed maxlocks
            assert stack.service.manager.growth_provider is None
            assert stack.service.manager.maxlocks_provider is None
            # the service keeps serving requests in degraded mode
            with stack.service.session() as app:
                stack.service.lock_row(app, 0, 1, LockMode.X)
        stack.check_invariants()
        assert stack.chain.used_slots == 0

    def test_tune_now_reraises_after_freezing(self):
        stack = make_stack(tuner_interval_s=30.0)
        self._crash_tuner(stack)
        with stack:
            with pytest.raises(RuntimeError, match="tuner bug"):
                stack.tuner.tune_now()
            assert stack.tuner.frozen
            assert stack.service.frozen_reason is not None
        stack.check_invariants()

    def test_crash_metrics(self):
        stack = make_stack(tuner_interval_s=30.0)
        self._crash_tuner(stack)
        with stack:
            with pytest.raises(RuntimeError):
                stack.tuner.tune_now()
        counters = {c.name: c.value for c in stack.metrics.counters()}
        assert counters["tuner.crashes"] == 1
        assert counters["service.tuning_frozen"] == 1
