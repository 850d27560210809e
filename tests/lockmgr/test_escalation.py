"""Tests for lock escalation mechanics and bookkeeping."""

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.des import Environment
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.escalation import EscalationOutcome, EscalationStats
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource, table_resource
from tests.conftest import run_process


def make_manager(env, blocks=1, capacity=16, **kwargs):
    chain = LockBlockChain(initial_blocks=blocks, capacity_per_block=capacity)
    return LockManager(env, chain, **kwargs)


class TestEscalationMode:
    def test_read_only_rows_escalate_to_s(self, env):
        manager = make_manager(env, capacity=8)

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        outcome = manager.stats.escalations.outcomes[0]
        assert outcome.target_mode is LockMode.S
        assert manager.holder_mode(1, table_resource(0)) is LockMode.S

    def test_any_write_row_escalates_to_x(self, env):
        manager = make_manager(env, capacity=8)

        def proc():
            yield from manager.lock_row(1, 0, 0, LockMode.X)
            for row in range(1, 10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        outcome = manager.stats.escalations.outcomes[0]
        assert outcome.target_mode is LockMode.X
        assert manager.holder_mode(1, table_resource(0)) is LockMode.X

    def test_escalation_frees_row_structures(self, env):
        manager = make_manager(env, capacity=8)

        def proc():
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        run_process(env, proc())
        outcome = manager.stats.escalations.outcomes[0]
        # capacity 8, MAXLOCKS 98% -> limit 7: escalation fires while the
        # app holds the intent lock plus 6 row locks, freeing the 6 rows
        assert outcome.freed_slots == 6
        assert manager.app_row_lock_count(1) == 0
        # table lock + newly granted coverage only
        assert manager.app_slots(1) == 1


class TestEscalationBlocking:
    def test_escalation_waits_for_conflicting_reader(self, env):
        """The escalating app's IX -> X conversion waits for a reader."""
        manager = make_manager(env, capacity=8)
        timeline = []

        def reader():
            yield from manager.lock_row(2, 0, 99, LockMode.S)
            yield env.timeout(10)
            manager.release_all(2)
            timeline.append(("reader-done", env.now))

        def writer():
            yield env.timeout(1)
            # fills the chain with X row locks; escalation to X must wait
            # for the reader's S row lock + IS table lock to clear
            for row in range(10):
                yield from manager.lock_row(1, 0, row, LockMode.X)
            timeline.append(("writer-done", env.now))

        env.process(reader())
        env.process(writer())
        env.run(until=60)
        assert timeline[0][0] == "reader-done"
        outcome = manager.stats.escalations.outcomes[0]
        assert outcome.waited
        assert timeline[1][1] >= 10.0

    def test_maxlocks_escalation_targets_requesters_biggest_table(self, env):
        manager = make_manager(env, capacity=16)

        def proc():
            # app 1 grabs rows in two tables up to the MAXLOCKS limit
            # (98% of 16 = 15 structures)
            for row in range(6):
                yield from manager.lock_row(1, 0, row, LockMode.S)
            for row in range(7):
                yield from manager.lock_row(1, 1, row, LockMode.S)
            yield from manager.lock_row(1, 2, 0, LockMode.S)

        run_process(env, proc())
        outcome = manager.stats.escalations.outcomes[0]
        assert outcome.app_id == 1
        assert outcome.reason == "maxlocks"
        assert outcome.table_id == 1  # 7 rows there vs 6 in table 0

    def test_memory_escalation_picks_biggest_holder_when_requester_has_none(
        self, env
    ):
        # MAXLOCKS effectively disabled so only the full chain triggers.
        manager = make_manager(env, capacity=16, maxlocks_fraction=1.0)

        def hog():
            for row in range(15):
                yield from manager.lock_row(1, 0, row, LockMode.S)

        def newcomer():
            yield env.timeout(1)
            # chain full (15 rows + intent); newcomer's intent lock needs
            # a structure, the requester holds no rows -> hog escalates
            yield from manager.lock_row(2, 1, 0, LockMode.S)

        run_process(env, hog())
        run_process(env, newcomer())
        outcomes = manager.stats.escalations.outcomes
        assert outcomes and outcomes[0].app_id == 1
        assert outcomes[0].reason == "memory"
        manager.check_invariants()


    def test_memory_escalation_tie_broken_by_first_row_acquirer(self, env):
        # Two holders with *equal* row-lock counts: the documented
        # tie-break picks whichever application acquired a row lock
        # first (here app 2, despite app 1's lower id), so the victim
        # can never depend on how the holder index is iterated.
        manager = make_manager(env, capacity=16, maxlocks_fraction=1.0)

        def hold(app_id, table_id):
            for row in range(7):
                yield from manager.lock_row(app_id, table_id, row, LockMode.S)

        def newcomer():
            yield env.timeout(1)
            yield from manager.lock_row(3, 9, 0, LockMode.S)

        run_process(env, hold(2, 2))  # first row acquirer
        run_process(env, hold(1, 1))
        assert manager.app_row_lock_count(1) == manager.app_row_lock_count(2)
        assert manager.chain.free_slots == 0
        run_process(env, newcomer())
        outcomes = manager.stats.escalations.outcomes
        assert outcomes and outcomes[0].reason == "memory"
        assert outcomes[0].app_id == 2
        manager.check_invariants()


VICTIM_APPS = (1, 2, 3)
_victim_apps = st.sampled_from(VICTIM_APPS)
_victim_tables = st.sampled_from((0, 1))
_victim_rows = st.integers(0, 3)
#: Every row the operations below can lock.
VICTIM_ROWS = [
    row_resource(app * 10 + table, row)
    for app in VICTIM_APPS for table in (0, 1) for row in range(4)
]
VICTIM_OPS = st.one_of(
    st.tuples(
        st.just("lock"), _victim_apps, _victim_tables, _victim_rows,
        st.sampled_from((LockMode.S, LockMode.X)),
    ),
    st.tuples(st.just("unlock"), _victim_apps, _victim_tables, _victim_rows),
    st.tuples(st.just("escalate"), _victim_apps),
    st.tuples(st.just("release"), _victim_apps),
)


def finish(gen):
    """Drive a manager generator that must not block; its return value."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a request on an application's own table blocked")


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(VICTIM_OPS, min_size=1, max_size=60))
def test_memory_escalation_victim_matches_brute_force(ops):
    """The victim scan against a reference built from the lock table.

    Each application locks rows of its own two tables (so nothing
    blocks and nothing escalates on its own: a roomy chain, MAXLOCKS
    off), and row counts also fall through cursor-stability releases and
    escalations, so the largest count can drop.  After every step, for every
    requester: itself when it holds a row lock, else the application
    holding the most row locks (counted in the lock table), ties to the
    one whose first row lock -- since its last release_all -- came first.
    """
    manager = make_manager(
        Environment(), blocks=8, capacity=16, maxlocks_fraction=1.0
    )
    first_row = {}  # app -> order of its first row lock since release_all
    stamps = itertools.count(1)
    for op in ops:
        kind, app = op[0], op[1]
        table = app * 10 + op[2] if len(op) > 2 else None
        if kind == "lock":
            finish(manager.lock_row(app, table, op[3], op[4]))
        elif kind == "unlock":
            manager.release_read_lock(app, table, op[3])
        elif kind == "escalate":
            finish(manager._escalate(app, "memory", blocking=False))
        else:
            manager.release_all(app)
            first_row.pop(app, None)
        rows = collections.Counter(
            holder
            for resource in VICTIM_ROWS
            for holder in VICTIM_APPS
            if manager.holder_mode(holder, resource) is not None
        )
        for holder in rows:
            first_row.setdefault(holder, next(stamps))
        manager.check_invariants()
        for requester in VICTIM_APPS + (99,):
            if rows.get(requester):
                expected = requester
            elif rows:
                expected = min(rows, key=lambda a: (-rows[a], first_row[a]))
            else:
                expected = None
            assert manager._memory_escalation_victim(requester) == expected, op


class TestEscalationStats:
    def test_exclusive_count(self):
        stats = EscalationStats()
        stats.record(EscalationOutcome(0, 1, 0, "memory", LockMode.S, 5, False))
        stats.record(EscalationOutcome(1, 2, 0, "maxlocks", LockMode.X, 9, True))
        assert stats.count == 2
        assert stats.exclusive_count == 1
        assert stats.freed_slots_total == 14
        assert stats.by_reason("memory") == 1
        assert stats.by_reason("maxlocks") == 1
