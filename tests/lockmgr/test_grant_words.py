"""Grant words and lock objects: the lock table's two representations.

A lock with one holder and no queue is a grant word in the lock table,
``(app_id, mode code, count, block id)``; the first request that would
add a second holder or a waiter inflates it into a ``LockObject``.
Each transition is checked on both grant paths -- the DES's
``lock_row`` generator and the live service's ``lock_row_fast``.
"""

import gc

import pytest

from repro.engine.des import Environment
from repro.errors import LockManagerError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.locks import LockObject
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import MODE_BY_CODE, LockMode
from repro.lockmgr.resources import row_key, row_resource, table_resource
from tests.conftest import lock_table_entry as entry, run_process

KEY = row_key(0, 7)


def take(manager, app_id, table_id, row_id, mode, fast):
    if fast:
        assert manager.lock_row_fast(app_id, table_id, row_id, mode)
    else:
        run_process(manager.env, manager.lock_row(app_id, table_id, row_id, mode))


def is_word(entry):
    return type(entry) is tuple and len(entry) == 4 and all(
        type(field) is int for field in entry
    )


@pytest.mark.parametrize("fast", [False, True], ids=["lock_row", "lock_row_fast"])
class TestWordsAndObjects:
    def manager(self, **kwargs):
        chain = kwargs.pop("chain", None) or LockBlockChain(initial_blocks=2)
        return LockManager(Environment(), chain, **kwargs)

    def test_a_lone_grant_is_a_word_the_collector_forgets(self, fast):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, fast)
        row, table = entry(manager, KEY), entry(manager, table_resource(0))
        assert is_word(row) and is_word(table)
        app_id, code, count, block_id = row
        assert (app_id, MODE_BY_CODE[code], count) == (1, LockMode.S, 1)
        assert manager.chain.block(block_id).used == 2
        assert MODE_BY_CODE[table[1]] is LockMode.IS
        gc.collect()
        assert not gc.is_tracked(row) and not gc.is_tracked(table)
        manager.check_invariants()

    def test_a_second_holder_inflates_the_word_and_keeps_its_count(self, fast):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, fast)
        take(manager, 1, 0, 7, LockMode.S, fast)  # re-grant: count 2
        block_id = entry(manager, KEY)[3]
        take(manager, 2, 0, 7, LockMode.S, fast)
        obj = entry(manager, KEY)
        assert type(obj) is LockObject
        assert [held.app_id for held in obj.holders()] == [1, 2]
        first = obj.held_by(1)
        assert first.count == 2 and first.mode is LockMode.S
        assert first.block is manager.chain.block(block_id)
        assert obj.held_by(2).count == 1
        # The table's word was inflated too: both apps hold IS on it.
        assert type(entry(manager, table_resource(0))) is LockObject
        manager.check_invariants()
        # No deflation: the object lives until the resource is idle.
        manager.release_all(2)
        assert entry(manager, KEY) is obj
        manager.release_all(1)
        assert not manager._objects and not manager._rows
        manager.check_invariants()

    def test_an_incompatible_request_inflates_and_queues(self, fast):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, fast)
        word = entry(manager, KEY)
        if fast:
            # The fast path refuses the request and mutates nothing.
            assert not manager.lock_row_fast(2, 0, 7, LockMode.X)
            assert entry(manager, KEY) is word
        request = manager.lock_row(2, 0, 7, LockMode.X)
        next(request)  # parks on the wait event
        obj = entry(manager, KEY)
        assert type(obj) is LockObject
        assert [(held.app_id, held.count) for held in obj.holders()] == [(1, 1)]
        assert [(w.app_id, w.mode) for w in obj.waiters] == [(2, LockMode.X)]
        assert manager.contended_objects() == {KEY: obj}
        manager.check_invariants()
        manager.release_all(1)  # grants the waiter
        assert manager.holder_mode(2, row_resource(0, 7)) is LockMode.X
        assert not manager.contended_objects()
        request.close()
        manager.release_all(2)
        assert not manager._objects and not manager._rows
        manager.check_invariants()

    def test_re_grant_then_read_release_moves_the_count(self, fast):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, fast)
        take(manager, 1, 0, 7, LockMode.S, fast)
        assert entry(manager, KEY)[2] == 2
        assert manager.release_read_lock(1, 0, 7)
        assert is_word(entry(manager, KEY)) and entry(manager, KEY)[2] == 1
        assert manager.app_row_lock_count(1) == 1
        assert manager.release_read_lock(1, 0, 7)
        assert entry(manager, KEY) is None and not manager._rows
        assert manager.app_row_lock_count(1) == 0 and manager.app_slots(1) == 1
        assert not manager.release_read_lock(1, 0, 7)
        manager.check_invariants()

    def test_a_conversion_on_a_word_stays_a_word(self, fast):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, fast)
        block_id = entry(manager, KEY)[3]
        slots = manager.app_slots(1)
        take(manager, 1, 0, 7, LockMode.X, fast)
        assert entry(manager, KEY) == (1, LockMode.X._idx, 2, block_id)
        assert MODE_BY_CODE[entry(manager, table_resource(0))[1]] is LockMode.IX
        assert manager.app_slots(1) == slots
        assert not manager.release_read_lock(1, 0, 7)  # held to commit
        manager.check_invariants()

    def test_escalation_over_word_rows_under_a_word_table(self, fast):
        # 16 structures, MAXLOCKS 50 %: the ninth structure escalates.
        manager = self.manager(
            chain=LockBlockChain(initial_blocks=1, capacity_per_block=16),
            maxlocks_fraction=0.5,
        )
        for row in range(7):
            take(manager, 1, 0, row, LockMode.X if row == 3 else LockMode.S, fast)
        assert manager.app_slots(1) == 8
        if fast:
            assert not manager.lock_row_fast(1, 0, 7, LockMode.S)  # would escalate
        run_process(manager.env, manager.lock_row(1, 0, 7, LockMode.S))
        assert manager.stats.escalations.count == 1
        table = entry(manager, table_resource(0))
        assert is_word(table) and MODE_BY_CODE[table[1]] is LockMode.X
        assert list(manager._objects) == [table_resource(0)] and not manager._rows
        assert manager.app_row_lock_count(1) == 0 and manager.app_slots(1) == 1
        manager.check_invariants()
        assert manager.release_all(1) == 1
        assert not manager._objects and manager.chain.used_slots == 0

    def test_reports_read_the_same_for_both_kinds(self, fast):
        # The same holder on the same row, once as a word and once as an
        # object that a second holder inflated and then left; the second
        # holder takes the same structures elsewhere in the first manager
        # so that both have the same counters.
        as_word, as_object = self.manager(), self.manager()
        take(as_word, 1, 0, 7, LockMode.S, fast)
        take(as_word, 2, 1, 7, LockMode.S, fast)
        take(as_object, 1, 0, 7, LockMode.S, fast)
        take(as_object, 2, 0, 7, LockMode.S, fast)
        for manager in (as_word, as_object):
            manager.release_all(2)
        assert is_word(entry(as_word, KEY))
        assert type(entry(as_object, KEY)) is LockObject
        resource = row_resource(0, 7)
        for manager in (as_word, as_object):
            assert manager.lock_status(resource) == "T0.R7: granted[1:S] queue[]"
            assert manager.lock_status(table_resource(0)) == "T0: granted[1:IS] queue[]"
            assert manager.holder_mode(1, resource) is LockMode.S
            assert manager.holder_mode(2, resource) is None
            manager.check_invariants()
        assert as_word.snapshot_report() == as_object.snapshot_report()

    def test_check_invariants_rejects_a_word_off_the_chain(self, fast):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, fast)
        app_id, code, count, block_id = entry(manager, KEY)
        missing = max(block.block_id for block in manager.chain.iter_list()) + 1
        manager._file(KEY, KEY[3], (app_id, code, count, missing))
        with pytest.raises(LockManagerError, match=rf"names block #{missing}, not in the chain"):
            manager.check_invariants()

    def test_check_invariants_rejects_an_unindexed_word(self, fast):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, fast)
        take(manager, 1, 0, 8, LockMode.S, fast)
        rec = manager._apps[1]
        del rec.rows[0][7]
        rec.row_count -= 1  # so that only the word's own check can fail
        with pytest.raises(LockManagerError, match=r"grant word on T0\.R7 is not indexed for app 1"):
            manager.check_invariants()
