"""Cross-shard deadlock detection: merged graphs, sweeps, victim rules.

Shard-local cycles cannot exist (each shard keeps immediate
detection), so these tests build cycles that genuinely span shard
boundaries and assert the sweep finds them in ONE pass, picks victims
by global footprint with the documented lowest-app-id tie-break, and
that the degraded path (graph-merge invariant violation) fails loudly.
"""

import pytest

from repro.errors import DeadlockError, LockManagerError
from repro.lockmgr.detector import merge_wait_graphs
from repro.lockmgr.modes import LockMode
from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack
from tests.service.sched import ScriptedThread, wait_until


def make_stack(shards: int, **cfg_kwargs) -> ShardedServiceStack:
    cfg_kwargs.setdefault("tuner_interval_s", None)
    return ShardedServiceStack(
        ShardedServiceConfig(shards=shards, **cfg_kwargs)
    )


def global_slots(service, app) -> int:
    """``app``'s lock structures summed over every shard."""
    return sum(shard.manager.app_slots(app) for shard in service.shards)


def park_all(service, requests):
    """Issue blocking table requests on threads; wait until all parked."""
    threads = {
        app: ScriptedThread(
            service.lock_table, app, table, LockMode.X, name=f"app{app}"
        )
        for app, table in requests
    }
    expected = {app for app, _ in requests}
    wait_until(
        lambda: service.waiting_sessions() == expected,
        what="all cycle participants parked",
    )
    return threads


class TestCycleSpans:
    def test_two_shard_cycle_found_in_one_sweep(self):
        stack = make_stack(2)
        service = stack.service
        a, b = service.open_session(), service.open_session()
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1
        threads = park_all(service, [(a, 1), (b, 0)])

        assert stack.detector.check() == 1
        assert stack.detector.stats.checks == 1
        assert stack.detector.stats.cycles_found == 1

        victim = stack.detector.stats.victims[0]
        assert isinstance(threads[victim].outcome(), DeadlockError)
        service.rollback(victim)
        survivor = b if victim == a else a
        threads[survivor].result()
        assert stack.manager_stats.deadlocks == 1
        for app in (a, b):
            service.rollback(app)
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_three_shard_cycle_found_in_one_sweep(self):
        stack = make_stack(3)
        service = stack.service
        a, b, c = (service.open_session() for _ in range(3))
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1
        service.lock_table(c, 2, LockMode.X)  # shard 2
        threads = park_all(service, [(a, 1), (b, 2), (c, 0)])

        assert stack.detector.check() == 1
        assert stack.detector.stats.cycles_found == 1
        # Equal global footprints (one table lock + one parked request
        # each): the tie-break picks the lowest application id.
        assert stack.detector.stats.victims == [a]

        assert isinstance(threads[a].outcome(), DeadlockError)
        # Unwinding the cycle is a chain: a's rollback grants c (who
        # waited on table 0), c's rollback then grants b.
        service.rollback(a)
        threads[c].result()
        service.rollback(c)
        threads[b].result()
        service.rollback(b)
        for app in (a, b, c):
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_two_and_three_shard_cycles_in_the_same_sweep(self):
        """Disjoint cycles spanning 2 and 3 shards resolved together."""
        stack = make_stack(3)
        service = stack.service
        a, b, c, d, e = (service.open_session() for _ in range(5))
        # 2-shard cycle over tables 0 (shard 0) and 1 (shard 1).
        service.lock_table(a, 0, LockMode.X)
        service.lock_table(b, 1, LockMode.X)
        # 3-shard cycle over tables 3, 4, 5 (shards 0, 1, 2).
        service.lock_table(c, 3, LockMode.X)
        service.lock_table(d, 4, LockMode.X)
        service.lock_table(e, 5, LockMode.X)
        threads = park_all(
            service, [(a, 1), (b, 0), (c, 4), (d, 5), (e, 3)]
        )

        assert stack.detector.check() == 2
        assert stack.detector.stats.cycles_found == 2
        assert sorted(stack.detector.stats.victims) == [a, c]

        for victim in (a, c):
            assert isinstance(threads[victim].outcome(), DeadlockError)
            service.rollback(victim)
        # 2-cycle: a's rollback grants b directly.  3-cycle: c's
        # rollback grants e (who waited on table 3); e's rollback then
        # grants d.
        threads[b].result()
        threads[e].result()
        service.rollback(e)
        threads[d].result()
        assert stack.manager_stats.deadlocks == 2
        for app in (b, d):
            service.rollback(app)
        for app in (a, b, c, d, e):
            service.close_session(app)
        stack.stop()
        stack.check_invariants()


class TestVictimChoice:
    def test_victim_has_smallest_global_footprint(self):
        """Global, not per-shard, slot counts drive the choice."""
        stack = make_stack(2)
        service = stack.service
        a, b = service.open_session(), service.open_session()
        # Inflate a's GLOBAL footprint with row locks on an unrelated
        # table in the *other* shard -- a per-shard count at a's wait
        # site would miss them.
        for row in range(5):
            service.lock_row(a, 9, row, LockMode.X)  # table 9 -> shard 1
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1
        threads = park_all(service, [(a, 1), (b, 0)])
        assert global_slots(service, a) > global_slots(service, b)

        assert stack.detector.check() == 1
        # b holds fewer structures globally, so b is the victim even
        # though a has the lower id.
        assert stack.detector.stats.victims == [b]
        assert isinstance(threads[b].outcome(), DeadlockError)
        service.rollback(b)
        threads[a].result()
        for app in (a, b):
            service.rollback(app)
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_tie_break_is_lowest_app_id(self):
        """Documented contract: equal footprints -> lowest id loses."""
        stack = make_stack(2)
        service = stack.service
        # Open in reverse-ish order so id order != creation order of
        # the cycle edges.
        a, b = service.open_session(), service.open_session()
        service.lock_table(b, 1, LockMode.X)
        service.lock_table(a, 0, LockMode.X)
        threads = park_all(service, [(b, 0), (a, 1)])
        assert global_slots(service, a) == global_slots(service, b)

        stack.detector.check()
        assert stack.detector.stats.victims == [min(a, b)]
        assert isinstance(threads[min(a, b)].outcome(), DeadlockError)
        service.rollback(min(a, b))
        threads[max(a, b)].result()
        for app in (a, b):
            service.rollback(app)
            service.close_session(app)
        stack.stop()


class TestSweepThread:
    def test_background_sweep_resolves_cycle_without_manual_check(self):
        stack = make_stack(2, deadlock_interval_s=0.02)
        with stack:
            service = stack.service
            a, b = service.open_session(), service.open_session()
            service.lock_table(a, 0, LockMode.X)
            service.lock_table(b, 1, LockMode.X)
            ta = ScriptedThread(service.lock_table, a, 1, LockMode.X)
            tb = ScriptedThread(service.lock_table, b, 0, LockMode.X)
            wait_until(
                lambda: stack.detector.stats.victims,
                what="background sweep picked a victim",
            )
            victim = stack.detector.stats.victims[0]
            tv, ts = (ta, tb) if victim == a else (tb, ta)
            assert isinstance(tv.outcome(), DeadlockError)
            # The survivor grants only once the victim's held table
            # lock is gone.
            service.rollback(victim)
            ts.result()
            assert stack.detector.crash is None
            for app in (a, b):
                service.rollback(app)
                service.close_session(app)
        stack.check_invariants()


class TestMergeBackstop:
    def test_duplicate_waiter_across_shards_is_rejected(self):
        """One session waiting in two shards means the one-in-flight
        invariant broke upstream; the merge must not paper over it."""
        with pytest.raises(LockManagerError, match="two shards"):
            merge_wait_graphs([{7: [1]}, {7: [2]}])

    def test_one_in_flight_is_enforced_globally(self):
        from repro.errors import ServiceError

        stack = make_stack(2)
        service = stack.service
        blocker = service.open_session()
        app = service.open_session()
        service.lock_table(blocker, 0, LockMode.X)
        thread = ScriptedThread(service.lock_table, app, 0, LockMode.X)
        wait_until(
            lambda: app in service.waiting_sessions(),
            what="first request parked",
        )
        # A second concurrent request -- even routed to the OTHER
        # shard -- must be refused, or the merged wait-for graph would
        # contain this session twice.
        with pytest.raises(ServiceError, match="in flight"):
            service.lock_table(app, 1, LockMode.X)
        service.rollback(blocker)
        thread.result()
        for s in (blocker, app):
            service.rollback(s)
            service.close_session(s)
        stack.stop()
