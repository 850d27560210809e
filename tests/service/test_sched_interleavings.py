"""Scripted interleavings of the races the monitor design must win.

Each test drives real threads through one *specific* interleaving using
the :mod:`tests.service.sched` harness -- no sleeps, no hoping the
scheduler cooperates.  The four races:

* **Grant vs cancel**: a waiter's grant event fires (the holder
  released) but its thread has not resumed when a cancel arrives.  The
  grant must win -- cancelling then would double-free the structure the
  grant now owns.  Scripted by holding the service mutex across the
  release, so the granted thread *cannot* resume before the cancel.
* **Hand-off vs re-request**: in that same window the releaser asks for
  the row again.  The granted-but-parked waiter now *holds* the row; the
  releaser must queue behind it -- not be told it closed a wait-for
  cycle with a waiter that is no longer waiting.
* **Tuner resize vs synchronous growth**: a request thread is parked
  mid-sync-growth (heap possibly grown, chain not yet) while a tuning
  pass wants to run.  The lock-ordering protocol says the tuner cannot
  observe that window; scripted by gating the growth provider while
  the grower holds its shard condition.
* **Cross-shard deadlock**: two sessions close a cycle spanning two
  shards.  Neither shard can see it locally (immediate detection is
  per-shard); one manual sweep of the merged graph must resolve it.
"""

import pytest

from repro.errors import DeadlockError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.service.service import LockService
from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK
from tests.service.sched import Gate, ScriptedThread, wait_until


class TestGrantVersusCancel:
    def test_grant_beats_cancel_when_thread_not_yet_resumed(self):
        """The exact window: event fired, waiter thread still parked."""
        service = LockService(LockBlockChain(initial_blocks=2))
        holder = service.open_session()
        contender = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)

        worker = ScriptedThread(
            service.lock_row, contender, 0, 7, LockMode.X, name="contender"
        )
        wait_until(
            lambda: contender in service.waiting_sessions(),
            what="contender parked in the wait queue",
        )
        # Holding the mutex across release + cancel pins the window
        # open: the grant event fires inside rollback (the manager pumps
        # the queue), but the contender thread cannot re-acquire the
        # mutex to resume until we let go.
        with service._mutex:
            service.rollback(holder)
            # The grant event has fired but the contender has not
            # resumed.  Its wait ended with the grant -- it already
            # owns the structure a naive cancel would free twice.
            assert contender not in service.manager.waiting_apps()
            assert service.manager.app_slots(contender) == 2
            assert service.cancel(contender, "too late") is False
        worker.result()  # the grant, not a cancellation, reached the thread
        assert service.manager.app_slots(contender) == 2  # row + intent
        assert service.stats.cancellations == 0
        service.close_session(contender)
        service.close_session(holder)
        assert service.chain.used_slots == 0
        service.check_invariants()

    def test_cancel_wins_when_still_queued(self):
        """Control case: before any grant, the cancel does land."""
        service = LockService(LockBlockChain(initial_blocks=2))
        holder = service.open_session()
        contender = service.open_session()
        service.lock_row(holder, 0, 7, LockMode.X)
        worker = ScriptedThread(
            service.lock_row, contender, 0, 7, LockMode.X, name="contender"
        )
        wait_until(
            lambda: contender in service.waiting_sessions(),
            what="contender parked in the wait queue",
        )
        assert service.cancel(contender, "client gone") is True
        outcome = worker.outcome()
        assert isinstance(outcome, Exception)
        service.close_session(contender)
        service.close_session(holder)
        service.check_invariants()


class TestHandOffVersusReRequest:
    def test_releaser_rerequesting_queues_behind_the_granted_waiter(self):
        """A holds X, B queues, A releases and re-requests before B
        resumes: A waits for B.  There is no cycle -- B is not waiting
        for anything any more."""
        service = LockService(LockBlockChain(initial_blocks=2))
        a = service.open_session()
        b = service.open_session()
        service.lock_row(a, 0, 7, LockMode.X)
        tb = ScriptedThread(service.lock_row, b, 0, 7, LockMode.X, name="b")
        wait_until(
            lambda: b in service.waiting_sessions(),
            what="b parked behind a",
        )
        # Pin the hand-off window open exactly as above: b is granted
        # inside a's rollback but cannot resume while we hold the mutex
        # (an RLock, so a's re-request runs right here, inside it).
        with service._mutex:
            service.rollback(a)
            # A zero deadline makes the outcome observable without
            # letting go of the mutex: a request that *waits* times out
            # on the spot; one that closes a cycle raises DeadlockError.
            with pytest.raises(LockTimeoutError):
                service.lock_row(a, 0, 7, LockMode.X, timeout_s=0)
            assert service.manager.stats.deadlocks == 0
            assert service.manager.stats.waits == 2  # b's wait, then a's
        tb.result()  # b resumes with the grant it was handed
        # With the window closed a simply queues behind b and is granted
        # when b lets go.
        ta = ScriptedThread(service.lock_row, a, 0, 7, LockMode.X, name="a")
        wait_until(
            lambda: a in service.waiting_sessions(),
            what="a parked behind b",
        )
        service.rollback(b)
        ta.result()
        assert service.manager.stats.deadlocks == 0
        service.close_session(a)
        service.close_session(b)
        assert service.chain.used_slots == 0
        service.check_invariants()


class TestTunerVersusSyncGrowth:
    def test_tuning_pass_cannot_observe_half_applied_growth(self):
        """A tune_now must serialize behind an in-flight sync borrow."""
        stack = ShardedServiceStack(
            ShardedServiceConfig(
                shards=2,
                initial_locklist_pages=2 * PAGES_PER_BLOCK,
                tuner_interval_s=None,
            )
        )
        gate = Gate("sync-growth")
        shard0 = stack.service.shards[0]
        original = shard0.manager.growth_provider

        def gated(blocks_wanted: int) -> int:
            gate.block()
            return original(blocks_wanted)

        shard0.manager.growth_provider = gated

        grower_app = stack.service.open_session()

        def fill_shard0() -> None:
            # One block backs shard 0; one over capacity forces growth.
            for row in range(LOCKS_PER_BLOCK):
                stack.service.lock_row(grower_app, 0, row, LockMode.X)

        grower = ScriptedThread(fill_shard0, name="grower")
        gate.await_arrival()
        # The grower is parked inside its request, holding shard 0's
        # condition with the registry about to change under it.
        tuner = ScriptedThread(stack.tuner.tune_now, name="tuner")
        # Finishing before the gate opens would require shard 0's
        # condition, which the grower holds -- so this can only fail if
        # the tuner bypassed the lock-ordering protocol.
        assert tuner.alive
        gate.open()
        grower.result()
        tuner.result()
        assert stack.tuner.crash is None
        # The borrow landed on shard 0 and every layer agrees on it.
        assert stack.ledger.borrowed_blocks(0) >= 1
        assert stack.ledger.borrowed_blocks(1) == 0
        assert (
            stack.registry.heap("locklist").size_pages
            == stack.chain.allocated_pages
        )
        stack.service.rollback(grower_app)
        stack.service.close_session(grower_app)
        stack.stop()
        stack.check_invariants()


class TestCrossShardDeadlock:
    def test_two_shard_cycle_resolved_by_one_sweep(self):
        stack = ShardedServiceStack(
            ShardedServiceConfig(shards=2, tuner_interval_s=None)
        )
        service = stack.service
        a = service.open_session()
        b = service.open_session()
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1

        ta = ScriptedThread(service.lock_table, a, 1, LockMode.X, name="a")
        tb = ScriptedThread(service.lock_table, b, 0, LockMode.X, name="b")
        wait_until(
            lambda: service.waiting_sessions() == {a, b},
            what="both sessions parked across shards",
        )
        # Neither shard saw a local cycle: no immediate deadlock fired.
        assert stack.manager_stats.deadlocks == 0

        victims = stack.detector.check()
        assert victims == 1
        assert stack.detector.stats.cycles_found == 1
        # Equal footprints: the documented tie-break picks the lowest id.
        assert stack.detector.stats.victims == [a]

        assert isinstance(ta.outcome(), DeadlockError)
        service.rollback(a)
        tb.result()  # b's request grants once a's locks are gone
        service.rollback(b)
        service.close_session(a)
        service.close_session(b)
        stack.stop()
        stack.check_invariants()
