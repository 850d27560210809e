"""Unit tests for LockObject: grants, convoys, pumping, blockers."""

from collections import deque

import pytest

from repro.engine.des import Environment
from repro.errors import LockManagerError
from repro.lockmgr.locks import LockObject, Waiter
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource


@pytest.fixture
def obj():
    return LockObject(row_resource(1, 1))


def waiter(env, app, mode, converting=False):
    return Waiter(app, mode, env.event(), converting=converting)


class TestGrants:
    def test_add_and_holder_mode(self, obj):
        obj.add_grant(1, LockMode.S)
        assert obj.holder_mode(1) is LockMode.S
        assert obj.holder_mode(2) is None
        obj.check_invariants()

    def test_double_add_rejected(self, obj):
        obj.add_grant(1, LockMode.S)
        with pytest.raises(LockManagerError):
            obj.add_grant(1, LockMode.S)

    def test_upgrade_to_supremum(self, obj):
        obj.add_grant(1, LockMode.IX)
        obj.upgrade_grant(1, LockMode.S)
        assert obj.holder_mode(1) is LockMode.SIX
        obj.check_invariants()

    def test_upgrade_without_grant_rejected(self, obj):
        with pytest.raises(LockManagerError):
            obj.upgrade_grant(1, LockMode.X)

    def test_remove_grant(self, obj):
        obj.add_grant(1, LockMode.S)
        obj.remove_grant(1)
        assert obj.is_idle
        obj.check_invariants()

    def test_remove_missing_rejected(self, obj):
        with pytest.raises(LockManagerError):
            obj.remove_grant(1)


class TestOthersCompatible:
    def test_empty_always_compatible(self, obj):
        assert obj.others_compatible(1, LockMode.X)

    def test_own_lock_ignored(self, obj):
        obj.add_grant(1, LockMode.X)
        assert obj.others_compatible(1, LockMode.X)

    def test_other_incompatible(self, obj):
        obj.add_grant(1, LockMode.X)
        assert not obj.others_compatible(2, LockMode.S)

    def test_shared_mode_multiple_holders(self, obj):
        obj.add_grant(1, LockMode.S)
        obj.add_grant(2, LockMode.S)
        assert obj.others_compatible(3, LockMode.S)
        assert not obj.others_compatible(3, LockMode.X)

    def test_same_mode_two_holders_blocks_self_upgrade(self, obj):
        obj.add_grant(1, LockMode.S)
        obj.add_grant(2, LockMode.S)
        # app 1 wants X: its own S is fine but app 2's S conflicts
        assert not obj.others_compatible(1, LockMode.X)

    def test_sole_incompatible_holder_is_self(self, obj):
        obj.add_grant(1, LockMode.U)
        # U-U incompatible, but the only U holder is the requester
        assert obj.others_compatible(1, LockMode.U)


class TestQueue:
    def test_fifo_enqueue(self, obj):
        env = Environment()
        w1, w2 = waiter(env, 1, LockMode.X), waiter(env, 2, LockMode.X)
        obj.enqueue(w1)
        obj.enqueue(w2)
        assert list(obj.waiters) == [w1, w2]

    def test_conversions_jump_ahead_of_new_requests(self, obj):
        env = Environment()
        new1 = waiter(env, 1, LockMode.X)
        conv = waiter(env, 2, LockMode.X, converting=True)
        obj.enqueue(new1)
        obj.enqueue(conv)
        assert list(obj.waiters) == [conv, new1]

    def test_conversions_fifo_among_themselves(self, obj):
        env = Environment()
        conv1 = waiter(env, 1, LockMode.X, converting=True)
        conv2 = waiter(env, 2, LockMode.X, converting=True)
        obj.enqueue(waiter(env, 3, LockMode.X))
        obj.enqueue(conv1)
        obj.enqueue(conv2)
        assert [w.app_id for w in obj.waiters] == [1, 2, 3]

    def test_remove_waiter(self, obj):
        env = Environment()
        obj.enqueue(waiter(env, 1, LockMode.X))
        obj.enqueue(waiter(env, 2, LockMode.S))
        removed = obj.remove_waiter(1)
        assert len(removed) == 1
        assert [w.app_id for w in obj.waiters] == [2]

    def test_drained_queue_is_the_shared_empty_tuple_again(self, obj):
        """``waiters`` is ``()`` whenever nothing is queued, however the
        queue emptied: a long-lived table object must not keep a deque."""
        env = Environment()
        obj.add_grant(9, LockMode.X)
        obj.enqueue(waiter(env, 1, LockMode.X))
        obj.remove_waiter(1)
        assert obj.waiters == ()
        obj.check_invariants()
        obj.enqueue(waiter(env, 2, LockMode.S))
        obj.remove_grant(9)
        assert [w.app_id for w in obj.pump()] == [2]
        assert obj.waiters == ()
        obj.check_invariants()
        obj.waiters = deque()
        with pytest.raises(LockManagerError, match="drained queue"):
            obj.check_invariants()


class TestPump:
    def test_pump_grants_compatible_prefix(self, obj):
        env = Environment()
        obj.enqueue(waiter(env, 1, LockMode.S))
        obj.enqueue(waiter(env, 2, LockMode.S))
        obj.enqueue(waiter(env, 3, LockMode.X))
        obj.enqueue(waiter(env, 4, LockMode.S))
        granted = obj.pump()
        assert [w.app_id for w in granted] == [1, 2]
        assert [w.app_id for w in obj.waiters] == [3, 4]
        obj.check_invariants()

    def test_pump_strict_fifo_no_overtaking(self, obj):
        """Figure 3: the later S waits behind the X, never jumps it."""
        env = Environment()
        obj.add_grant(9, LockMode.S)
        obj.enqueue(waiter(env, 3, LockMode.X))
        obj.enqueue(waiter(env, 4, LockMode.S))
        assert obj.pump() == []  # X blocked by S holder; S4 must not pass
        obj.remove_grant(9)
        granted = obj.pump()
        assert [w.app_id for w in granted] == [3]

    def test_pump_applies_conversion(self, obj):
        env = Environment()
        obj.add_grant(1, LockMode.S)
        obj.add_grant(2, LockMode.S)
        conv = waiter(env, 1, LockMode.X, converting=True)
        obj.enqueue(conv)
        assert obj.pump() == []
        obj.remove_grant(2)
        assert obj.pump() == [conv]
        assert obj.holder_mode(1) is LockMode.X
        obj.check_invariants()

    def test_grant_now_conversion_without_held_rejected(self, obj):
        env = Environment()
        with pytest.raises(LockManagerError):
            obj.grant_now(waiter(env, 1, LockMode.X, converting=True))


class TestBlockers:
    def test_blockers_include_incompatible_holders(self, obj):
        env = Environment()
        obj.add_grant(1, LockMode.X)
        w = waiter(env, 2, LockMode.S)
        obj.enqueue(w)
        assert obj.blockers_of(w) == [1]

    def test_blockers_exclude_compatible_holders(self, obj):
        env = Environment()
        obj.add_grant(1, LockMode.S)
        w = waiter(env, 2, LockMode.S)
        obj.enqueue(w)
        # queued behind nothing; S holder compatible
        assert obj.blockers_of(w) == []

    def test_blockers_include_earlier_waiters(self, obj):
        env = Environment()
        obj.add_grant(1, LockMode.X)
        w_first = waiter(env, 2, LockMode.X)
        w_second = waiter(env, 3, LockMode.X)
        obj.enqueue(w_first)
        obj.enqueue(w_second)
        assert set(obj.blockers_of(w_second)) == {1, 2}

    def test_own_entries_not_blockers(self, obj):
        env = Environment()
        obj.add_grant(2, LockMode.X)
        w = waiter(env, 2, LockMode.X)
        obj.enqueue(w)
        assert obj.blockers_of(w) == []
