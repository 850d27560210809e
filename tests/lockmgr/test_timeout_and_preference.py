"""Tests for lock-wait timeouts and the selective-escalation extension."""

import pytest

from repro.engine.des import Environment
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager, LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import table_resource
from tests.conftest import run_process


def make_manager(env, blocks=4, capacity=None, **kwargs):
    chain = (
        LockBlockChain(initial_blocks=blocks, capacity_per_block=capacity)
        if capacity
        else LockBlockChain(initial_blocks=blocks)
    )
    return LockManager(env, chain, **kwargs)


def expire(env, manager, app_id, at):
    """DES process: at time ``at``, end ``app_id``'s wait the way a
    request deadline does; returns whether it was still waiting."""
    yield env.timeout(at - env.now)
    return manager.cancel_wait(
        app_id, LockTimeoutError(f"app {app_id}: deadline"), reason="timeout"
    )


class TestLockTimeout:
    """A wait's one bound is its request's deadline, which ends the wait
    through ``cancel_wait(reason="timeout")``; without one it waits."""

    def test_wait_expires_with_error(self, env):
        manager = make_manager(env)
        outcome = {}

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(100)
            manager.release_all(1)

        def waiter():
            yield env.timeout(1)
            try:
                yield from manager.lock_row(2, 0, 7, LockMode.X)
                outcome["result"] = "granted"
            except LockTimeoutError:
                outcome["result"] = f"timeout@{env.now}"
                manager.release_all(2)

        env.process(holder())
        env.process(waiter())
        env.process(expire(env, manager, 2, at=6.0))
        env.run(until=50)
        assert outcome["result"] == "timeout@6.0"
        assert manager.stats.lock_timeouts == 1
        manager.check_invariants()
        assert manager.app_slots(2) == 0

    def test_grant_before_timeout_proceeds(self, env):
        manager = make_manager(env)
        outcome = {}

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(3)
            manager.release_all(1)

        def waiter():
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 7, LockMode.X)
            outcome["granted_at"] = env.now
            yield env.timeout(30)
            manager.release_all(2)

        env.process(holder())
        env.process(waiter())
        late = env.process(expire(env, manager, 2, at=21.0))
        env.run(until=50)
        assert outcome["granted_at"] == 3.0
        assert late.value is False
        assert manager.stats.lock_timeouts == 0

    def test_timed_out_waiter_unblocks_queue(self, env):
        """A timed-out waiter must not gate later compatible waiters."""
        manager = make_manager(env)
        outcome = {}

        def s_holder():
            yield from manager.lock_row(1, 0, 7, LockMode.S)
            yield env.timeout(30)
            manager.release_all(1)

        def x_waiter():
            yield env.timeout(1)
            try:
                yield from manager.lock_row(2, 0, 7, LockMode.X)
            except LockTimeoutError:
                manager.release_all(2)

        def s_requester():
            yield env.timeout(2)
            yield from manager.lock_row(3, 0, 7, LockMode.S)
            outcome["s_granted_at"] = env.now
            manager.release_all(3)

        env.process(s_holder())
        env.process(x_waiter())
        env.process(s_requester())
        env.process(expire(env, manager, 2, at=3.0))
        env.run(until=60)
        # once the X gave up at t=3, the queued S should be granted
        # immediately (not wait for the holder's release at t=31)
        assert outcome["s_granted_at"] == pytest.approx(3.0)

    def test_default_is_wait_forever(self, env):
        manager = make_manager(env)
        outcome = {}

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(10_000)
            manager.release_all(1)

        def waiter():
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 7, LockMode.X)
            outcome["granted_at"] = env.now
            manager.release_all(2)

        env.process(holder())
        env.process(waiter())
        env.run()
        assert outcome["granted_at"] == 10_000.0
        assert manager.stats.lock_timeouts == 0
        assert manager.stats.wait_time_total == pytest.approx(9_999.0)


class TestSelectiveEscalation:
    """Section 6.1 future work: bias escalation over memory growth."""

    def test_preferring_app_escalates_instead_of_growing(self, env):
        manager = make_manager(
            env, blocks=1, capacity=16,
            growth_provider=lambda blocks: blocks,
        )
        manager.set_escalation_preference(1, True)

        def proc():
            for row in range(20):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        # no growth happened; the app's rows were escalated away
        assert manager.stats.sync_growth_blocks == 0
        assert manager.stats.escalations.count >= 1
        assert manager.holder_mode(1, table_resource(0)) is LockMode.S

    def test_normal_app_still_grows(self, env):
        manager = make_manager(
            env, blocks=1, capacity=16,
            growth_provider=lambda blocks: blocks,
        )

        def proc():
            for row in range(20):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        assert manager.stats.sync_growth_blocks > 0
        assert manager.stats.escalations.count == 0

    def test_preference_is_per_application(self, env):
        manager = make_manager(
            env, blocks=1, capacity=16,
            growth_provider=lambda blocks: blocks,
        )
        manager.set_escalation_preference(1, True)

        def saver():
            for row in range(20):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        def normal():
            for row in range(20):
                yield from manager.lock_row(2, 1, row, LockMode.S)

        run_process(env, saver())
        run_process(env, normal())
        # app 1 escalated; app 2's pressure grew the memory
        assert any(
            o.app_id == 1 for o in manager.stats.escalations.outcomes
        )
        assert manager.stats.sync_growth_blocks > 0
        assert manager.app_row_lock_count(2) == 20

    def test_preference_can_be_cleared(self, env):
        manager = make_manager(
            env, blocks=1, capacity=16,
            growth_provider=lambda blocks: blocks,
        )
        manager.set_escalation_preference(1, True)
        assert manager.prefers_escalation(1)
        manager.set_escalation_preference(1, False)
        assert not manager.prefers_escalation(1)

    def test_preferring_app_saves_lock_memory(self, env):
        """The point of the extension: less lock memory consumed."""

        def run(preferred):
            local_env = Environment()
            manager = make_manager(
                local_env, blocks=1, capacity=16,
                growth_provider=lambda blocks: blocks,
            )
            if preferred:
                manager.set_escalation_preference(1, True)

            def proc():
                for row in range(64):
                    yield from manager.lock_row(1, 0, row, LockMode.S)

            run_process(local_env, proc())
            return manager.chain.allocated_pages

        assert run(preferred=True) < run(preferred=False)
