"""Wait-profiler accounting races and the incident capture sequence.

Two layers, both deterministic:

* DES-driven :class:`LockManager` scenarios pin down exactly-once wait
  accounting at the races the live service actually runs -- the
  deadline canceller vs. an already-fired grant, ``release_all`` over a
  parked waiter, timeouts and deadlock victims;
* a :class:`ManualClock` service stack walks the three incident kinds
  in a scripted order (deadlock -> escalation -> tuner freeze) and
  asserts the forensics ring captured that exact reason sequence.
"""

import threading

import pytest

from repro.engine.des import Environment
from repro.errors import DeadlockError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager, LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.lockmgr.tracing import LockTrace
from repro.obs.waits import WaitEventProfiler, merged_class_totals
from repro.service.clock import ManualClock
from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack
from repro.service.stack import ServiceConfig, ServiceStack
from tests.service.sched import ScriptedThread, wait_until


class _EnvClock:
    """Adapter: the profiler wants ``.now()``, the DES env has ``.now``."""

    def __init__(self, env: Environment) -> None:
        self._env = env

    def now(self) -> float:
        return self._env.now


def make_profiled_manager(**kwargs):
    env = Environment()
    manager = LockManager(env, LockBlockChain(initial_blocks=4), **kwargs)
    profiler = WaitEventProfiler(_EnvClock(env))
    manager.wait_profiler = profiler
    return env, manager, profiler


class TestExactlyOnceAccounting:
    def test_granted_wait_counted_once(self):
        env, manager, profiler = make_profiled_manager()

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(5)
            manager.release_all(1)

        def waiter():
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 7, LockMode.X)
            manager.release_all(2)

        env.process(holder())
        env.process(waiter())
        env.run(until=20)
        totals = profiler.class_totals()
        assert totals["lock.granted"][0] == 1
        assert totals["lock.granted"][1] == pytest.approx(4.0)
        assert sum(c for c, _ in totals.values()) == 1
        assert profiler.open_lock_waits() == 0
        (event,) = profiler.recent()
        assert event.app_id == 2
        assert event.blocker == 1
        assert event.blocker_mode == "X"
        assert event.mode == "X"

    def test_grant_wins_race_counts_granted_not_cancelled(self):
        """Deadline fires after the grant event: the cancel must lose,
        and the wait must land in lock.granted exactly once."""
        env, manager, profiler = make_profiled_manager()
        outcome = {}

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(5)
            manager.release_all(1)  # grant event fires for app 2...
            # ...but app 2 has not resumed yet: a deadline canceller
            # arriving in this window must not withdraw the grant.
            cancelled = manager.cancel_wait(
                2, LockTimeoutError("deadline"), reason="timeout"
            )
            outcome["cancelled"] = cancelled

        def waiter():
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 7, LockMode.X)
            outcome["granted_at"] = env.now
            manager.release_all(2)

        env.process(holder())
        env.process(waiter())
        env.run(until=20)
        assert outcome["cancelled"] is False
        assert outcome["granted_at"] == 5.0
        totals = profiler.class_totals()
        assert totals["lock.granted"][0] == 1
        assert totals["lock.timeout"][0] == 0
        assert totals["lock.cancelled"][0] == 0
        assert profiler.open_lock_waits() == 0

    def test_cancel_before_grant_counts_terminal_class_once(self):
        env, manager, profiler = make_profiled_manager()
        outcome = {}

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(3)
            cancelled = manager.cancel_wait(
                2, LockTimeoutError("deadline"), reason="timeout"
            )
            outcome["cancelled"] = cancelled
            manager.release_all(1)

        def waiter():
            yield env.timeout(1)
            try:
                yield from manager.lock_row(2, 0, 7, LockMode.X)
                outcome["result"] = "granted"
            except LockTimeoutError:
                outcome["result"] = "timeout"
                manager.release_all(2)

        env.process(holder())
        env.process(waiter())
        env.run(until=20)
        assert outcome["cancelled"] is True
        assert outcome["result"] == "timeout"
        totals = profiler.class_totals()
        assert totals["lock.timeout"][0] == 1
        assert totals["lock.timeout"][1] == pytest.approx(2.0)
        assert totals["lock.granted"][0] == 0
        assert profiler.open_lock_waits() == 0

    def test_locktimeout_expiry_counts_timeout_once(self):
        """A request deadline ending a wait is counted once everywhere:
        the timeout counter, the wait time, the ``timeout`` trace event
        and the profiler's ``timeout`` outcome."""
        env, manager, profiler = make_profiled_manager()
        manager.tracer = LockTrace(capacity=None)

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(100)
            manager.release_all(1)

        def waiter():
            yield env.timeout(1)
            try:
                yield from manager.lock_row(2, 0, 7, LockMode.X)
            except LockTimeoutError:
                manager.release_all(2)

        def deadline():
            yield env.timeout(3)
            manager.cancel_wait(2, LockTimeoutError("deadline"), reason="timeout")

        env.process(holder())
        env.process(waiter())
        env.process(deadline())
        env.run(until=50)
        assert manager.stats.lock_timeouts == 1
        assert manager.stats.wait_time_total == pytest.approx(2.0)
        (event,) = manager.tracer.query(kind="timeout")
        assert (event.app_id, event.value) == (2, pytest.approx(2.0))
        totals = profiler.class_totals()
        assert totals["lock.timeout"][0] == 1
        assert totals["lock.timeout"][1] == pytest.approx(2.0)
        assert totals["lock.granted"][0] == 0
        assert profiler.open_lock_waits() == 0

    def test_sweep_deadlock_victim_wait_recorded_once(self):
        """A parked waiter the cross-shard sweep picks as victim has its
        wait recorded once, when the sweep withdraws it: the wait time,
        the profiler's ``deadlock`` outcome, the ``deadlock`` count."""
        clock = ManualClock()
        stack = ShardedServiceStack(
            ShardedServiceConfig(
                shards=2, tuner_interval_s=None, wait_profile=True
            ),
            clock=clock,
        )
        service = stack.service
        a, b = service.open_session(), service.open_session()
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1
        threads = {
            app: ScriptedThread(service.lock_table, app, table, LockMode.X)
            for app, table in ((a, 1), (b, 0))
        }
        wait_until(
            lambda: service.waiting_sessions() == {a, b},
            what="both cycle participants parked",
        )
        clock.advance(2.0)
        assert stack.detector.check() == 1
        (victim,) = stack.detector.stats.victims
        survivor = b if victim == a else a
        assert isinstance(threads[victim].outcome(), DeadlockError)
        stats = stack.manager_stats
        assert stats.deadlocks == 1
        assert stats.wait_time_total == pytest.approx(2.0)
        clock.advance(1.0)
        service.rollback(victim)
        threads[survivor].result()
        # The survivor's grant adds its own 3 s, and nothing else does.
        assert stack.manager_stats.wait_time_total == pytest.approx(5.0)
        totals = merged_class_totals(stack.wait_profilers)
        assert totals["lock.deadlock"][0] == 1
        assert totals["lock.deadlock"][1] == pytest.approx(2.0)
        assert totals["lock.granted"][0] == 1
        assert sum(p.open_lock_waits() for p in stack.wait_profilers) == 0
        for app in (a, b):
            service.rollback(app)
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_release_all_leaves_no_open_wait(self):
        """A parked waiter rolled back wholesale must close its wait."""
        env, manager, profiler = make_profiled_manager()

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(5)
            # Roll the *waiter* back while it is still parked.
            manager.release_all(2)
            manager.release_all(1)

        def waiter():
            yield env.timeout(1)
            try:
                yield from manager.lock_row(2, 0, 7, LockMode.X)
            except Exception:
                pass

        env.process(holder())
        env.process(waiter())
        env.run(until=20)
        totals = profiler.class_totals()
        assert totals["lock.cancelled"][0] == 1
        assert profiler.open_lock_waits() == 0
        manager.check_invariants()

    def test_immediate_deadlock_victim_never_opens_a_wait(self):
        env, manager, profiler = make_profiled_manager()
        outcome = {}

        def proc_a():
            yield from manager.lock_row(1, 0, 1, LockMode.X)
            yield env.timeout(2)
            try:
                yield from manager.lock_row(1, 0, 2, LockMode.X)
                outcome[1] = "granted"
            except DeadlockError:
                outcome[1] = "deadlock"
            manager.release_all(1)

        def proc_b():
            yield from manager.lock_row(2, 0, 2, LockMode.X)
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 1, LockMode.X)
            outcome[2] = "granted"
            manager.release_all(2)

        env.process(proc_a())
        env.process(proc_b())
        env.run(until=20)
        assert outcome[1] == "deadlock"
        assert outcome[2] == "granted"
        totals = profiler.class_totals()
        # The victim's doomed request is rejected before it ever parks;
        # only app 2's wait (granted after the rollback) is recorded.
        assert totals["lock.deadlock"][0] == 0
        assert totals["lock.granted"][0] == 1
        assert profiler.open_lock_waits() == 0


class TestIncidentCaptureSequence:
    def make_stack(self, **overrides):
        defaults = dict(
            total_memory_pages=8_192,
            initial_locklist_pages=32,
            tuner_interval_s=30.0,  # daemon idle; the test drives tune_now
            wait_profile=True,
        )
        defaults.update(overrides)
        clock = ManualClock()
        return ServiceStack(ServiceConfig(**defaults), clock=clock), clock

    def test_deadlock_then_escalation_then_freeze(self):
        stack, clock = self.make_stack()
        with stack:
            service = stack.service
            a, b = service.open_session(), service.open_session()

            # --- incident 1: deadlock -------------------------------
            service.lock_row(a, 0, 1, LockMode.X)
            service.lock_row(b, 0, 2, LockMode.X)
            blocked = threading.Thread(
                target=service.lock_row, args=(a, 0, 2, LockMode.X),
                daemon=True,
            )
            blocked.start()
            wait_until(
                lambda: a in service.waiting_sessions(),
                what="session a parked behind b",
            )
            # b closing the cycle is detected immediately: b is victim.
            with pytest.raises(DeadlockError):
                service.lock_row(b, 0, 1, LockMode.X)
            service.rollback(b)
            blocked.join(10.0)
            assert not blocked.is_alive()
            service.rollback(a)

            (deadlock,) = stack.incidents.records()
            assert deadlock.kind == "deadlock"
            assert deadlock.app_id == b
            assert set(deadlock.cycle) == {a, b}
            assert deadlock.cycle[0] == b  # victim first
            assert "cycle" in deadlock.detail
            assert deadlock.posture["waiting_apps"] >= 1
            # a is parked behind b's X on row 2, so b is the top blocker.
            assert any(blk["app"] == b for blk in deadlock.blockers)

            # --- incident 2: escalation -----------------------------
            service.manager.growth_provider = None
            maxlocks = int(
                stack.chain.capacity_slots
                * service.manager.maxlocks_fraction
            )
            for row in range(maxlocks + 2):
                service.lock_row(a, 3, row, LockMode.S)
            assert service.manager.stats.escalations.count >= 1
            service.rollback(a)

            kinds = stack.incidents.kinds()
            assert kinds[0] == "deadlock"
            assert "escalation" in kinds
            escalation = next(
                r for r in stack.incidents.records()
                if r.kind == "escalation"
            )
            assert escalation.app_id == a
            assert escalation.data["table_id"] == 3
            assert escalation.data["rows_freed"] > 0

            # --- incident 3: tuner freeze ---------------------------
            def bomb():
                raise RuntimeError("injected tuner bug")

            stack.controller.compute_target_pages = bomb
            clock.advance(30.0)
            with pytest.raises(RuntimeError):
                stack.tuner.tune_now()

            service.close_session(a)
            service.close_session(b)

        freeze = stack.incidents.records()[-1]
        assert freeze.kind == "tuner-freeze"
        assert "injected tuner bug" in freeze.detail
        assert freeze.app_id == -1
        # The freeze capture includes the audit trail ending in freeze.
        assert freeze.audit_tail[-1]["reason"] == "freeze"

        counts = stack.incidents.kind_counts()
        assert counts["deadlock"] == 1
        assert counts["escalation"] >= 1
        assert counts["tuner-freeze"] == 1
        # Scripted order: deadlock strictly first, freeze strictly last.
        kinds = stack.incidents.kinds()
        assert kinds[0] == "deadlock"
        assert kinds[-1] == "tuner-freeze"
        assert stack.incidents.total_recorded == len(kinds)

    def test_wait_classes_populated_through_stack(self):
        stack, _ = self.make_stack()
        with stack:
            service = stack.service
            a, b = service.open_session(), service.open_session()
            service.lock_row(a, 0, 1, LockMode.X)
            blocked = threading.Thread(
                target=service.lock_row, args=(b, 0, 1, LockMode.S),
                daemon=True,
            )
            blocked.start()
            wait_until(
                lambda: b in service.waiting_sessions(),
                what="session b parked behind a",
            )
            service.rollback(a)
            blocked.join(10.0)
            assert not blocked.is_alive()
            service.rollback(b)
            service.close_session(a)
            service.close_session(b)
        (profiler,) = stack.wait_profilers
        totals = profiler.class_totals()
        assert totals["lock.granted"][0] == 1
        assert profiler.open_lock_waits() == 0
        assert profiler.latch.gets > 0
        (event,) = [
            e for e in profiler.recent() if e.wait_class == "lock.granted"
        ]
        assert event.app_id == b
        assert event.blocker == a
