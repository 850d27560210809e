"""Tests for the thread-safe LockService facade."""

import math
import threading
import time

import pytest

from tests.service.sched import wait_until

from repro.errors import (
    DeadlockError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
)
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource
from repro.service.service import LockService


def make_service(**kwargs):
    return LockService(LockBlockChain(initial_blocks=2), **kwargs)


def spawn(fn, *args):
    thread = threading.Thread(target=fn, args=args, daemon=True)
    thread.start()
    return thread


def outcome_of(call, *args, **kwargs):
    """What ``call`` returned or raised, run on a daemon thread given
    5 s: a request that never returns fails the test instead of hanging
    it."""
    outcome = []

    def run():
        try:
            outcome.append(call(*args, **kwargs))
        except Exception as exc:  # the caller reads it
            outcome.append(exc)

    spawn(run).join(timeout=5.0)
    assert outcome, f"{call.__name__}{args} did not return"
    return outcome[0]


class TestBasics:
    def test_uncontended_grant_and_release(self):
        service = make_service()
        app = service.open_session()
        service.lock_row(app, 0, 1, LockMode.X)
        service.lock_table(app, 1, LockMode.S)
        assert service.manager.app_slots(app) == 3  # row + intent + table
        freed = service.close_session(app)
        assert freed == 3
        assert service.chain.used_slots == 0
        service.check_invariants()

    def test_session_context_manager_always_releases(self):
        service = make_service()
        with pytest.raises(RuntimeError):
            with service.session() as app:
                service.lock_row(app, 0, 1, LockMode.X)
                raise RuntimeError("client bug")
        assert service.chain.used_slots == 0
        assert service.session_count() == 0

    def test_requests_require_an_open_session(self):
        service = make_service()
        with pytest.raises(ServiceError, match="not open"):
            service.lock_row(99, 0, 1, LockMode.S)

    def test_shared_locks_do_not_block(self):
        service = make_service()
        with service.session() as a, service.session() as b:
            service.lock_row(a, 0, 1, LockMode.S)
            service.lock_row(b, 0, 1, LockMode.S)
            assert service.stats.granted == 2

    def test_stats_count_outcomes(self):
        service = make_service()
        with service.session() as app:
            service.lock_row(app, 0, 1, LockMode.X)
        assert service.stats.requests == 1
        assert service.stats.granted == 1
        assert service.stats.sessions_opened == 1
        assert service.stats.sessions_closed == 1


class TestBlockingAndHandoff:
    def test_conflicting_lock_blocks_until_release(self):
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)
        order = []

        def contender():
            with service.session() as app:
                service.lock_row(app, 0, 7, LockMode.X)
                order.append("granted")

        thread = spawn(contender)
        wait_until(
            lambda: len(service.waiting_sessions()) == 1,
            what="contender parked in the wait queue",
        )
        assert order == []  # observably enqueued, not granted
        order.append("releasing")
        service.close_session(holder)
        thread.join(5.0)
        assert not thread.is_alive()
        assert order == ["releasing", "granted"]
        service.check_invariants()

    def test_fifo_grant_order_under_contention(self):
        """Waiters are granted in arrival order, decided by the manager's
        queue, not by thread scheduling."""
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)
        granted = []
        arrived = []
        lock = threading.Lock()

        def contender(app):
            with lock:
                arrived.append(app)
            try:
                service.lock_row(app, 0, 7, LockMode.X)
                with lock:
                    granted.append(app)
            finally:
                service.close_session(app)

        threads = []
        for _ in range(4):
            app = service.open_session()
            threads.append(spawn(contender, app))
            # stagger arrivals so the wait queue order is deterministic
            wait_until(
                lambda: app in service.waiting_sessions(),
                what=f"app {app} parked in the wait queue",
            )
        service.close_session(holder)
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert granted == arrived
        assert service.chain.used_slots == 0

    def test_deadlock_detected_across_threads(self):
        service = make_service()
        a, b = service.open_session(), service.open_session()
        service.lock_row(a, 0, 1, LockMode.X)
        service.lock_row(b, 0, 2, LockMode.X)
        outcome = {}
        barrier = threading.Barrier(2)

        def worker(me, want):
            barrier.wait()
            try:
                service.lock_row(me, 0, want, LockMode.X)
                outcome[me] = "granted"
            except DeadlockError:
                outcome[me] = "deadlock"
                service.rollback(me)

        t1 = spawn(worker, a, 2)
        t2 = spawn(worker, b, 1)
        t1.join(10.0)
        t2.join(10.0)
        assert not t1.is_alive() and not t2.is_alive()
        assert sorted(outcome.values()) == ["deadlock", "granted"]
        service.close_session(a)
        service.close_session(b)
        assert service.chain.used_slots == 0
        service.check_invariants()


class TestDeadlinesAndCancellation:
    def test_request_deadline_expires(self):
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)
        with service.session() as app:
            started = time.monotonic()
            with pytest.raises(LockTimeoutError):
                service.lock_row(app, 0, 7, LockMode.X, timeout_s=0.05)
            assert time.monotonic() - started < 5.0
        assert service.stats.timeouts == 1
        assert service.manager.waiting_apps() == set()
        service.close_session(holder)
        service.check_invariants()

    def test_zero_timeout_is_immediate_no_wait(self):
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)
        with service.session() as app:
            with pytest.raises(LockTimeoutError):
                service.lock_row(app, 0, 7, LockMode.X, timeout_s=0.0)
        service.close_session(holder)

    def test_negative_timeout_rejected(self):
        service = make_service()
        with service.session() as app:
            with pytest.raises(ServiceError):
                service.lock_row(app, 0, 1, LockMode.S, timeout_s=-1.0)

    @pytest.mark.parametrize("timeout_s", [math.nan, -1.0])
    def test_a_nan_or_negative_timeout_is_refused_with_nothing_queued(self, timeout_s):
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 1, LockMode.X)
        with service.session() as app:
            used, requests = service.chain.used_slots, service.stats.requests
            for request in (
                (service.lock_row, app, 0, 1, LockMode.X),  # contended
                (service.lock_row, app, 0, 2, LockMode.X),  # free
                (service.lock_table, app, 0, LockMode.X),  # contended
            ):
                exc = outcome_of(*request, timeout_s=timeout_s)
                assert isinstance(exc, ServiceError)
                assert str(exc) == f"timeout_s must be non-negative, got {timeout_s}"
            assert service.waiting_sessions() == set()
            assert service.chain.used_slots == used
            assert service.stats.requests == requests
        service.close_session(holder)
        service.check_invariants()

    def test_an_infinite_timeout_parks_and_is_granted_on_release(self):
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 1, LockMode.X)
        app = service.open_session()
        outcome = []

        def request():
            try:
                service.lock_row(app, 0, 1, LockMode.X, timeout_s=math.inf)
                outcome.append("granted")
            except Exception as exc:  # the test reads it below
                outcome.append(exc)

        thread = spawn(request)
        wait_until(lambda: service.waiting_sessions() == {app})
        service.close_session(holder)
        thread.join(timeout=5.0)
        assert outcome == ["granted"]  # not an OverflowError
        assert service.manager.holder_mode(app, row_resource(0, 1)) is LockMode.X
        service.close_session(app)
        service.check_invariants()

    def test_cancel_releases_waiter(self):
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)
        app = service.open_session()
        result = {}

        def waiter():
            try:
                service.lock_row(app, 0, 7, LockMode.X)
                result["outcome"] = "granted"
            except RequestCancelledError:
                result["outcome"] = "cancelled"

        thread = spawn(waiter)
        wait_until(
            lambda: app in service.waiting_sessions(),
            what="waiter parked before cancel",
        )
        assert service.cancel(app, "client disconnected")
        thread.join(5.0)
        assert not thread.is_alive()
        assert result["outcome"] == "cancelled"
        assert service.stats.cancellations == 1
        service.close_session(app)
        service.close_session(holder)
        assert service.chain.used_slots == 0
        service.check_invariants()

    def test_cancel_of_idle_session_is_noop(self):
        service = make_service()
        with service.session() as app:
            assert service.cancel(app) is False
        assert service.stats.cancellations == 0

    def test_rollback_withdraws_a_parked_request(self):
        """A rollback from another thread (the wire's inline OP_ROLLBACK)
        wakes the session's parked request instead of stranding it."""
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 1, 1, LockMode.X)
        app = service.open_session()
        result = {}

        def waiter():
            try:
                service.lock_row(app, 1, 1, LockMode.X, timeout_s=None)
                result["outcome"] = "granted"
            except RequestCancelledError:
                result["outcome"] = "cancelled"

        thread = spawn(waiter)
        wait_until(
            lambda: app in service.waiting_sessions(),
            what="waiter parked before rollback",
        )
        service.rollback(app)
        thread.join(5.0)
        assert not thread.is_alive(), "rollback stranded the parked request"
        assert result["outcome"] == "cancelled"
        assert service.manager.waiting_apps() == set()
        service.check_invariants()
        # The session survives the rollback and can lock again.
        service.lock_row(app, 1, 2, LockMode.X)
        service.close_session(holder)
        service.lock_row(app, 1, 1, LockMode.X)
        assert service.close_session(app) == 3  # two rows + one intent
        assert service.chain.used_slots == 0
        service.check_invariants()


class TestLifecycleAndDegradation:
    def test_close_rejects_new_requests(self):
        service = make_service()
        app = service.open_session()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.lock_row(app, 0, 1, LockMode.S)
        with pytest.raises(ServiceClosedError):
            service.open_session()
        service.close()  # idempotent

    def test_close_cancels_pending_waiters(self):
        service = make_service()
        holder = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)
        app = service.open_session()
        result = {}

        def waiter():
            try:
                service.lock_row(app, 0, 7, LockMode.X)
                result["outcome"] = "granted"
            except ServiceClosedError:
                result["outcome"] = "closed"

        thread = spawn(waiter)
        wait_until(
            lambda: app in service.waiting_sessions(),
            what="waiter parked before close",
        )
        service.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert result["outcome"] == "closed"
        assert service.manager.waiting_apps() == set()

    def test_freeze_tuning_detaches_providers(self):
        grown = []
        service = make_service()
        service.manager.growth_provider = lambda b: grown.append(b) or b
        service.manager.maxlocks_provider = lambda: 0.5
        service.freeze_tuning("tuner died")
        assert service.manager.growth_provider is None
        assert service.manager.maxlocks_provider is None
        assert service.frozen_reason == "tuner died"
        service.freeze_tuning("second call")  # first reason sticks
        assert service.frozen_reason == "tuner died"


class TestTelemetry:
    def test_metrics_record_requests(self):
        from repro.obs.registry import MetricRegistry

        registry = MetricRegistry()
        service = LockService(
            LockBlockChain(initial_blocks=2), metrics=registry
        )
        with service.session() as app:
            service.lock_row(app, 0, 1, LockMode.X)
        snapshot = {
            c.name: c.value for c in registry.counters()
        }
        assert snapshot["service.requests"] == 1
