"""Failure injection: the system must stay consistent when parts fail.

Each test injects a fault -- a crashing growth provider, a misbehaving
tuner, an interrupted client, an abandoned transaction -- and asserts
that lock-manager and memory accounting remain exact afterwards.
"""

import pytest

from repro.engine.des import Environment, Interrupt
from repro.errors import LockManagerError, MemoryAccountingError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from repro.memory.heaps import HeapCategory, MemoryHeap
from repro.memory.registry import DatabaseMemoryRegistry
from repro.memory.stmm import Stmm, StmmConfig
from tests.conftest import make_database, run_process


class TestGrowthProviderFaults:
    def test_provider_exception_propagates_but_state_consistent(self, env):
        calls = {"n": 0}

        def faulty(blocks):
            calls["n"] += 1
            raise RuntimeError("allocation backend down")

        chain = LockBlockChain(initial_blocks=1, capacity_per_block=4)
        manager = LockManager(env, chain, growth_provider=faulty)

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        with pytest.raises(RuntimeError, match="backend down"):
            run_process(env, proc())
        assert calls["n"] == 1
        manager.release_all(1)
        manager.check_invariants()
        assert chain.used_slots == 0

    def test_provider_negative_grant_rejected(self, env):
        chain = LockBlockChain(initial_blocks=1, capacity_per_block=4)
        manager = LockManager(env, chain, growth_provider=lambda b: -1)

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        with pytest.raises(LockManagerError):
            run_process(env, proc())
        manager.release_all(1)
        manager.check_invariants()

    def test_provider_lying_about_grant_size_is_contained(self, env):
        """A provider granting more than asked: extra blocks are simply
        added; accounting stays exact."""
        chain = LockBlockChain(initial_blocks=1, capacity_per_block=4)
        manager = LockManager(env, chain, growth_provider=lambda b: b + 3)

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        manager.check_invariants()
        assert manager.app_row_lock_count(1) == 10


class TestClientFaults:
    def test_interrupted_waiter_recovers_via_release_all(self, env):
        manager = LockManager(env, LockBlockChain(initial_blocks=2))

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.X)
            yield env.timeout(50)
            manager.release_all(1)

        def victim():
            try:
                yield from manager.lock_row(2, 0, 7, LockMode.X)
            except Interrupt:
                manager.release_all(2)
                return "cleaned-up"

        env.process(holder())
        victim_proc = env.process(victim())

        def killer():
            yield env.timeout(5)
            victim_proc.interrupt("client disconnected")

        env.process(killer())
        env.run(until=100)
        assert victim_proc.value == "cleaned-up"
        manager.check_invariants()
        assert manager.chain.used_slots == 0
        assert manager.waiting_apps() == set()

    def test_crashing_transaction_leaves_recoverable_state(self, env):
        """A client that dies without cleanup leaks its locks (as a real
        crashed agent would) -- until release_all reclaims them."""
        manager = LockManager(env, LockBlockChain(initial_blocks=2))

        def crasher():
            yield from manager.lock_row(1, 0, 1, LockMode.X)
            yield from manager.lock_row(1, 0, 2, LockMode.X)
            raise RuntimeError("agent crash")

        with pytest.raises(RuntimeError):
            run_process(env, crasher())
        manager.check_invariants()  # consistent even while leaked
        assert manager.app_slots(1) == 3
        manager.release_all(1)  # crash recovery
        assert manager.chain.used_slots == 0

    def test_database_survives_client_churn_with_contention(self):
        """Stress: aggressive churn + contention + rollbacks, then a
        full-invariant sweep."""
        from repro.engine.client import ClientPool
        from repro.engine.transactions import TransactionMix
        from repro.workloads.schedule import ClientSchedule

        db = make_database(seed=77)
        mix = TransactionMix(
            locks_per_txn_mean=15, write_fraction=0.8,
            update_lock_fraction=0.3, num_tables=2, rows_per_table=40,
            think_time_mean_s=0.01, work_time_per_lock_s=0.01,
        )
        pool = ClientPool(db, mix)
        schedule = ClientSchedule([(0, 8), (15, 1), (30, 10), (45, 0), (60, 6)])
        db.env.process(schedule.drive(pool))
        db.run(until=120)
        db.check_invariants()  # every lock object's and grant word's too
        assert db.rollbacks > 0  # the contention really was hostile


class TestStmmFaults:
    def _registry(self):
        registry = DatabaseMemoryRegistry(10_000, overflow_goal_pages=500)
        registry.register(
            MemoryHeap("bufferpool", HeapCategory.PMC, 5_000,
                       min_pages=1_000, benefit=lambda h: 1.0)
        )
        registry.register(MemoryHeap("locklist", HeapCategory.FMC, 500))
        return registry

    def test_tuner_exception_propagates_and_accounting_holds(self):
        registry = self._registry()
        stmm = Stmm(registry, StmmConfig(pmc_rebalance_fraction=0))

        class ExplodingTuner:
            heap_name = "locklist"

            def compute_target_pages(self):
                raise RuntimeError("tuner bug")

            def grow_physical(self, pages):
                return pages

            def shrink_physical(self, pages):
                return pages

            def on_interval_end(self, now):
                pass

        stmm.register_deterministic_tuner(ExplodingTuner())
        with pytest.raises(RuntimeError, match="tuner bug"):
            stmm.tune(0.0)
        assert sum(registry.snapshot().values()) == registry.total_pages

    def test_tuner_refusing_physical_growth_hands_pages_back(self):
        registry = self._registry()
        stmm = Stmm(registry, StmmConfig(pmc_rebalance_fraction=0))

        class RefusingTuner:
            heap_name = "locklist"

            def compute_target_pages(self):
                return 2_000

            def grow_physical(self, pages):
                return 0  # physical layer refuses everything

            def shrink_physical(self, pages):
                return 0

            def on_interval_end(self, now):
                pass

        stmm.register_deterministic_tuner(RefusingTuner())
        stmm.tune(0.0)
        # the grant was fully returned: nothing leaked
        assert registry.heap("locklist").size_pages == 500
        assert sum(registry.snapshot().values()) == registry.total_pages

    def test_registry_detects_accounting_corruption(self):
        registry = self._registry()
        heap = registry.heap("bufferpool")
        heap._size_pages = 20_000  # corrupt it behind the registry's back
        with pytest.raises(MemoryAccountingError):
            registry.overflow_pages


class TestServiceFaults:
    """Failure injection against the live (threaded) service stack."""

    def _make_stack(self, tuner_interval_s=0.02):
        from repro.service.stack import ServiceConfig, ServiceStack

        return ServiceStack(
            ServiceConfig(
                total_memory_pages=8_192,
                initial_locklist_pages=32,
                tuner_interval_s=tuner_interval_s,
            )
        )

    def test_tuner_thread_crash_freezes_size_with_exact_accounting(self):
        """The tuning thread dies mid-run: the service degrades to a
        frozen (static-LOCKLIST) size, keeps serving lock traffic, and
        every layer's accounting stays byte-exact."""
        import time

        from repro.service.driver import LoadDriver

        stack = self._make_stack()
        passes = {"n": 0}
        original = stack.controller.compute_target_pages

        def eventually_explodes():
            passes["n"] += 1
            if passes["n"] >= 3:
                # before any page moves this pass: no partial side effects
                raise RuntimeError("tuner heap walk segfault")
            return original()

        stack.controller.compute_target_pages = eventually_explodes
        with stack:
            pages_when_frozen = {}

            def watch():
                deadline = time.monotonic() + 30.0
                while stack.tuner.alive and time.monotonic() < deadline:
                    time.sleep(0.005)
                pages_when_frozen["pages"] = stack.chain.allocated_pages

            import threading

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            report = LoadDriver(
                stack, threads=4, requests_per_thread=1_500, seed=23
            ).run()
            watcher.join(30.0)

        assert report.worker_errors == []
        # the crash really happened and degraded the stack to frozen
        assert isinstance(stack.tuner.crash, RuntimeError)
        assert stack.tuner.frozen
        assert stack.service.frozen_reason is not None
        assert stack.service.manager.growth_provider is None
        assert stack.service.manager.maxlocks_provider is None
        # frozen means frozen: no resize after the crash (tuning was the
        # only grower here -- growth_provider is detached)
        assert stack.chain.allocated_pages == pages_when_frozen["pages"]
        # exact accounting after the full crash + load run
        assert stack.chain.used_slots == 0
        assert (
            stack.registry.heap("locklist").size_pages
            == stack.chain.allocated_pages
        )
        stack.check_invariants()

    def test_cancelled_client_releases_admission_slot_no_orphan(self):
        """A client thread cancelled mid-wait must free its admission
        slot and leave no orphaned waiter in the lock manager."""
        import threading
        import time

        from repro.errors import RequestCancelledError
        from repro.lockmgr.modes import LockMode

        stack = self._make_stack(tuner_interval_s=30.0)
        admission = stack.admission
        service = stack.service
        with stack:
            holder = service.open_session()
            service.lock_row(holder, 0, 7, LockMode.X)
            outcome = {}
            victim_app = service.open_session()

            def victim():
                admission.acquire()
                try:
                    service.lock_row(victim_app, 0, 7, LockMode.X)
                    outcome["result"] = "granted"
                except RequestCancelledError:
                    outcome["result"] = "cancelled"
                    service.rollback(victim_app)
                finally:
                    admission.release()

            thread = threading.Thread(target=victim, daemon=True)
            thread.start()
            deadline = time.monotonic() + 30.0
            while (
                victim_app not in service.waiting_sessions()
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert admission.in_flight() == 1
            assert service.cancel(victim_app, "client disconnected")
            thread.join(30.0)
            assert not thread.is_alive()

            assert outcome["result"] == "cancelled"
            # the admission slot came back ...
            assert admission.in_flight() == 0
            assert admission.stats.completed == 1
            # ... and no orphaned waiter or stray slot remains
            assert service.manager.waiting_apps() == set()
            assert service.manager.app_slots(victim_app) == 0
            service.close_session(victim_app)
            service.close_session(holder)
            assert stack.chain.used_slots == 0
        stack.check_invariants()
