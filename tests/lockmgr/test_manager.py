"""Unit and integration tests for the lock manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.des import Environment
from repro.errors import DeadlockError, LockManagerError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.locks import LockObject
from repro.lockmgr.manager import LockListFullError, LockManager
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource, table_resource
from tests.conftest import run_process


def make_manager(env, blocks=4, capacity=None, **kwargs):
    chain = (
        LockBlockChain(initial_blocks=blocks, capacity_per_block=capacity)
        if capacity
        else LockBlockChain(initial_blocks=blocks)
    )
    return LockManager(env, chain, **kwargs)


def grab_row(manager, app, table, row, mode):
    yield from manager.lock_row(app, table, row, mode)


def grab_table(manager, app, table, mode):
    yield from manager.lock_table(app, table, mode)


class TestBasicAcquisition:
    def test_row_lock_takes_intent_plus_row_structure(self, env):
        manager = make_manager(env)
        run_process(env, grab_row(manager, 1, 0, 5, LockMode.S))
        assert manager.app_slots(1) == 2  # IS on table + S on row
        assert manager.holder_mode(1, table_resource(0)) is LockMode.IS
        assert manager.holder_mode(1, row_resource(0, 5)) is LockMode.S
        manager.check_invariants()

    def test_write_row_lock_takes_ix(self, env):
        manager = make_manager(env)
        run_process(env, grab_row(manager, 1, 0, 5, LockMode.X))
        assert manager.holder_mode(1, table_resource(0)) is LockMode.IX

    def test_reacquire_same_row_no_new_structure(self, env):
        manager = make_manager(env)

        def proc():
            yield from manager.lock_row(1, 0, 5, LockMode.S)
            yield from manager.lock_row(1, 0, 5, LockMode.S)

        run_process(env, proc())
        assert manager.app_slots(1) == 2

    def test_distinct_rows_one_structure_each(self, env):
        manager = make_manager(env)

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        assert manager.app_slots(1) == 11
        assert manager.app_row_lock_count(1) == 10

    def test_shared_row_lock_two_apps_two_structures(self, env):
        manager = make_manager(env)
        run_process(env, grab_row(manager, 1, 0, 5, LockMode.S))
        run_process(env, grab_row(manager, 2, 0, 5, LockMode.S))
        assert manager.chain.used_slots == 4
        manager.check_invariants()

    def test_table_lock_covers_rows(self, env):
        manager = make_manager(env)

        def proc():
            yield from manager.lock_table(1, 0, LockMode.X)
            before = manager.app_slots(1)
            yield from manager.lock_row(1, 0, 5, LockMode.X)
            return before

        before = run_process(env, proc())
        assert before == 1
        assert manager.app_slots(1) == 1  # no row structure added

    def test_conversion_upgrades_in_place(self, env):
        manager = make_manager(env)

        def proc():
            yield from manager.lock_row(1, 0, 5, LockMode.U)
            yield from manager.lock_row(1, 0, 5, LockMode.X)

        run_process(env, proc())
        assert manager.holder_mode(1, row_resource(0, 5)) is LockMode.X
        assert manager.app_slots(1) == 2


class TestRelease:
    def test_release_all_frees_everything(self, env):
        manager = make_manager(env)

        def proc():
            for row in range(5):
                yield from manager.lock_row(1, 0, row, LockMode.X)

        run_process(env, proc())
        freed = manager.release_all(1)
        assert freed == 6
        assert manager.chain.used_slots == 0
        assert manager.app_slots(1) == 0
        manager.check_invariants()

    def test_release_all_idempotent(self, env):
        manager = make_manager(env)
        run_process(env, grab_row(manager, 1, 0, 1, LockMode.S))
        manager.release_all(1)
        assert manager.release_all(1) == 0

    def test_release_wakes_waiter(self, env):
        manager = make_manager(env)
        events = []

        def writer():
            yield from manager.lock_row(1, 0, 5, LockMode.X)
            yield env.timeout(10)
            manager.release_all(1)
            events.append(("released", env.now))

        def reader():
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 5, LockMode.S)
            events.append(("granted", env.now))

        env.process(writer())
        env.process(reader())
        env.run()
        assert events == [("released", 10.0), ("granted", 10.0)]
        assert manager.stats.waits == 1
        assert manager.stats.wait_time_total == pytest.approx(9.0)


class TestFifoConvoy:
    def test_figure3_queue_order(self, env):
        """S, S share; X queues; later S queues behind the X."""
        manager = make_manager(env)
        grants = []

        def app(app_id, mode, start, hold):
            yield env.timeout(start)
            yield from manager.lock_row(app_id, 0, 7, mode)
            grants.append(app_id)
            yield env.timeout(hold)
            manager.release_all(app_id)

        env.process(app(1, LockMode.S, 0, 10))
        env.process(app(2, LockMode.S, 1, 10))
        env.process(app(3, LockMode.X, 2, 1))
        env.process(app(4, LockMode.S, 3, 1))
        env.run()
        assert grants == [1, 2, 3, 4]


class TestDeadlock:
    def test_classic_two_app_deadlock_detected(self, env):
        manager = make_manager(env)
        outcomes = {}

        def app(app_id, first, second):
            try:
                yield from manager.lock_row(app_id, 0, first, LockMode.X)
                yield env.timeout(1)
                yield from manager.lock_row(app_id, 0, second, LockMode.X)
                outcomes[app_id] = "ok"
                yield env.timeout(5)
            except DeadlockError:
                outcomes[app_id] = "deadlock"
            manager.release_all(app_id)

        env.process(app(1, 100, 200))
        env.process(app(2, 200, 100))
        env.run()
        assert sorted(outcomes.values()) == ["deadlock", "ok"]
        assert manager.stats.deadlocks == 1
        manager.check_invariants()
        assert manager.chain.used_slots == 0

    def test_conversion_deadlock_detected(self, env):
        """Two S holders both upgrading to X: a classic conversion cycle."""
        manager = make_manager(env)
        outcomes = {}

        def app(app_id, delay):
            try:
                yield from manager.lock_row(app_id, 0, 7, LockMode.S)
                yield env.timeout(delay)
                yield from manager.lock_row(app_id, 0, 7, LockMode.X)
                outcomes[app_id] = "ok"
            except DeadlockError:
                outcomes[app_id] = "deadlock"
            manager.release_all(app_id)

        env.process(app(1, 1))
        env.process(app(2, 2))
        env.run()
        assert sorted(outcomes.values()) == ["deadlock", "ok"]

    def test_no_false_deadlock_on_simple_contention(self, env):
        manager = make_manager(env)

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(5)
            manager.release_all(1)

        def waiter_app(app_id, delay):
            yield env.timeout(delay)
            yield from manager.lock_row(app_id, 0, 7, LockMode.X)
            manager.release_all(app_id)

        env.process(holder())
        env.process(waiter_app(2, 1))
        env.process(waiter_app(3, 2))
        env.run()
        assert manager.stats.deadlocks == 0


    def test_no_false_deadlock_in_the_grant_handoff_window(self, env):
        """A releases and re-requests in the same instant, before the
        waiter its release granted has resumed.  That waiter is off the
        queue and *holds* the row: A queues behind it.  A stale wait
        entry used to make A look queued ahead of a waiting B -- a
        cycle that is not there."""
        manager = make_manager(env)
        order = []

        def app_a():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(2)
            manager.release_all(1)  # grants B, who has not resumed yet
            assert 2 not in manager.waiting_apps()  # the wait ended there
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            order.append("a-again")
            manager.release_all(1)

        def app_b():
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 7, LockMode.X)
            order.append("b")
            yield env.timeout(1)
            manager.release_all(2)

        env.process(app_a())
        env.process(app_b())
        env.run()
        assert order == ["b", "a-again"]
        assert manager.stats.deadlocks == 0
        assert manager.stats.waits == 2
        manager.check_invariants()
        assert manager.chain.used_slots == 0


class TestMemoryPressure:
    def test_sync_growth_called_when_full(self, env):
        grown = []

        def provider(blocks):
            grown.append(blocks)
            return blocks

        manager = make_manager(env, blocks=1, capacity=4, growth_provider=provider)

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        assert grown  # growth happened
        assert manager.stats.sync_growth_blocks == len(grown)
        assert manager.app_row_lock_count(1) == 10

    def test_full_chain_without_growth_escalates(self, env):
        manager = make_manager(env, blocks=1, capacity=8, maxlocks_fraction=0.98)

        def proc():
            for row in range(20):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        assert manager.stats.escalations.count >= 1
        # after escalation the app holds a table S lock covering the rows
        assert manager.holder_mode(1, table_resource(0)) is LockMode.S
        manager.check_invariants()

    def test_escalation_failure_raises_lock_list_full(self, env):
        manager = make_manager(env, blocks=1, capacity=4, maxlocks_fraction=0.98)

        def filler():
            # table locks only: nothing escalatable
            for table in range(3):
                yield from manager.lock_table(1, table, LockMode.S)
            yield from manager.lock_table(2, 3, LockMode.S)

        run_process(env, filler())

        def victim():
            yield from manager.lock_table(3, 9, LockMode.S)

        with pytest.raises(LockListFullError):
            run_process(env, victim())
        assert manager.stats.lock_list_full_errors == 1

    def test_refused_requests_leave_no_lock_objects(self, env):
        """A request refused with the lock list full never got a
        structure, so it must not leave an (idle) lock object either."""
        manager = make_manager(env, blocks=1, capacity=64)

        def filler():
            # table locks only: nothing escalatable
            for table in range(64):
                yield from manager.lock_table(1 + table % 2, table, LockMode.S)

        run_process(env, filler())
        assert len(manager._objects) == 64
        for table in range(1_000, 2_000):
            with pytest.raises(LockListFullError):
                run_process(env, grab_table(manager, 3, table, LockMode.S))
        assert manager.stats.lock_list_full_errors == 1_000
        assert len(manager._objects) == 64
        manager.check_invariants()
        for app in (1, 2, 3):
            manager.release_all(app)
        assert not manager._objects
        manager.check_invariants()

    def test_check_invariants_rejects_an_idle_lock_object(self, env):
        manager = make_manager(env)
        run_process(env, grab_row(manager, 1, 0, 5, LockMode.S))
        manager._objects[row_resource(0, 6)] = LockObject(row_resource(0, 6))
        with pytest.raises(LockManagerError, match="idle lock object"):
            manager.check_invariants()

    def test_escalation_prefers_biggest_table(self, env):
        manager = make_manager(env, blocks=1, capacity=16, maxlocks_fraction=0.98)

        def proc():
            for row in range(3):
                yield from manager.lock_row(1, 0, row, LockMode.S)
            for row in range(9):
                yield from manager.lock_row(1, 1, row, LockMode.S)
            # chain now full (3+9+2 intent = 14); next needs escalation
            yield from manager.lock_row(1, 2, 0, LockMode.S)

        run_process(env, proc())
        outcome = manager.stats.escalations.outcomes[0]
        assert outcome.table_id == 1  # the table with the most row locks


class TestMaxlocks:
    def test_maxlocks_triggers_escalation(self, env):
        # 2 blocks of 16 slots = 32 capacity; 25% = 8 slots per app
        manager = make_manager(env, blocks=2, capacity=16, maxlocks_fraction=0.25)

        def proc():
            for row in range(12):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        assert manager.stats.escalations.by_reason("maxlocks") >= 1
        assert manager.app_slots(1) <= manager.maxlocks_limit_slots()

    def test_maxlocks_provider_refreshed_on_resize(self, env):
        calls = []

        def provider():
            calls.append(1)
            return 0.5

        def growth(blocks):
            return blocks

        manager = make_manager(
            env, blocks=1, capacity=4,
            growth_provider=growth, maxlocks_provider=provider,
        )

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        assert calls  # refreshed at least once on growth

    def test_refresh_period_drives_provider(self, env):
        calls = []
        manager = make_manager(
            env, blocks=4,
            maxlocks_provider=lambda: calls.append(1) or 0.9,
            refresh_period=8,
        )

        def proc():
            for row in range(20):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        # ~21+20 requests (fast-path re-grants count too) / 8 per refresh
        assert len(calls) >= 2

    def test_invalid_provider_fraction_rejected(self, env):
        manager = make_manager(env, maxlocks_provider=lambda: 1.5)
        with pytest.raises(LockManagerError):
            manager.refresh_maxlocks()

    def test_static_fraction_validation(self, env):
        with pytest.raises(ValueError):
            make_manager(env, maxlocks_fraction=0.0)


class TestWaiterCleanup:
    def test_release_all_cancels_queued_waiter(self, env):
        manager = make_manager(env)

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(100)
            manager.release_all(1)

        def impatient():
            yield env.timeout(1)
            process = env.process(wants_lock())
            yield env.timeout(1)
            # roll back while still queued
            manager.release_all(2)

        def wants_lock():
            yield from manager.lock_row(2, 0, 7, LockMode.X)

        env.process(holder())
        env.process(impatient())
        env.run(until=50)
        manager.check_invariants()
        assert manager.app_slots(2) == 0


class TestStats:
    def test_request_and_grant_counters(self, env):
        manager = make_manager(env)
        run_process(env, grab_row(manager, 1, 0, 1, LockMode.S))
        assert manager.stats.requests == 2
        assert manager.stats.immediate_grants == 2

    def test_peak_used_slots(self, env):
        manager = make_manager(env)

        def proc():
            for row in range(5):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        manager.release_all(1)
        assert manager.stats.peak_used_slots == 6
        assert manager.used_slots == 0

    def test_used_bytes(self, env):
        manager = make_manager(env)
        run_process(env, grab_row(manager, 1, 0, 1, LockMode.S))
        assert manager.used_bytes == 2 * 64


class TestPropertyRandomWorkload:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        apps=st.integers(2, 5),
        steps=st.integers(5, 60),
    )
    def test_invariants_after_random_runs(self, seed, apps, steps):
        """Random clients acquiring/releasing keep all accounting exact."""
        import random

        rng = random.Random(seed)
        env = Environment()
        manager = make_manager(env, blocks=2, capacity=16,
                               growth_provider=lambda blocks: blocks)
        done = []

        def client(app_id):
            for _ in range(steps):
                try:
                    table = rng.randrange(2)
                    row = rng.randrange(8)
                    mode = rng.choice([LockMode.S, LockMode.X])
                    yield from manager.lock_row(app_id, table, row, mode)
                    yield env.timeout(rng.random())
                    if rng.random() < 0.4:
                        manager.release_all(app_id)
                except (DeadlockError, LockListFullError):
                    manager.release_all(app_id)
            manager.release_all(app_id)
            done.append(app_id)

        for app_id in range(1, apps + 1):
            env.process(client(app_id))
        env.run(until=10_000)
        assert len(done) == apps
        manager.check_invariants()
        assert manager.chain.used_slots == 0
        for obj in manager._objects.values():
            obj.check_invariants()
