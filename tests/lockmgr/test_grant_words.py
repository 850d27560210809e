"""Grant words and lock objects: the lock table's two representations.

A lock with one holder and no queue is a grant word in the lock table,
``(app_id, mode code, count, block id)``; the first request that would
add a second holder or a waiter inflates it into a ``LockObject``.
Fresh grants of one app in one mode from one block share one word, and
an app indexes its rows in one list per table.  Each transition is
checked on the one grant path, with and without a tracer attached.
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
from repro.lockmgr.tracing import LockTrace
from tests.conftest import lock_table_entry as entry, run_process

KEY = row_key(0, 7)


def take(manager, app_id, table_id, row_id, mode, traced):
    """A lock_row request that does not wait, with a tracer attached to
    ``manager`` when ``traced`` (a tracer takes no path of its own)."""
    if traced and manager.tracer is None:
        manager.tracer = LockTrace(None)
    for _ in manager.lock_row(app_id, table_id, row_id, mode):
        raise AssertionError("the request waited")


def is_word(entry):
    return type(entry) is tuple and len(entry) == 4 and all(
        type(field) is int for field in entry
    )


@pytest.mark.parametrize("traced", [False, True], ids=["lock_row", "lock_row_traced"])
class TestWordsAndObjects:
    def manager(self, **kwargs):
        chain = kwargs.pop("chain", None) or LockBlockChain(initial_blocks=2)
        return LockManager(Environment(), chain, **kwargs)

    def test_a_lone_grant_is_a_word_the_collector_forgets(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        row, table = entry(manager, KEY), entry(manager, table_resource(0))
        assert is_word(row) and is_word(table)
        app_id, code, count, block_id = row
        assert (app_id, MODE_BY_CODE[code], count) == (1, LockMode.S, 1)
        assert manager.chain.block(block_id).used == 2
        assert MODE_BY_CODE[table[1]] is LockMode.IS
        gc.collect()
        assert not gc.is_tracked(row) and not gc.is_tracked(table)
        manager.check_invariants()

    def test_a_second_holder_inflates_the_word_and_keeps_its_count(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 1, 0, 7, LockMode.S, traced)  # re-grant: count 2
        block_id = entry(manager, KEY)[3]
        take(manager, 2, 0, 7, LockMode.S, traced)
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

    def test_an_incompatible_request_inflates_and_queues(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        request = manager.begin_lock_row(2, 0, 7, LockMode.X)
        assert request is not None  # a continuation: the request waits
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

    def test_re_grant_then_read_release_moves_the_count(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 1, 0, 7, LockMode.S, traced)
        assert entry(manager, KEY)[2] == 2
        assert manager.release_read_lock(1, 0, 7)
        assert is_word(entry(manager, KEY)) and entry(manager, KEY)[2] == 1
        assert manager.app_row_lock_count(1) == 1
        assert manager.release_read_lock(1, 0, 7)
        assert entry(manager, KEY) is None and not manager._rows
        assert manager.app_row_lock_count(1) == 0 and manager.app_slots(1) == 1
        assert not manager.release_read_lock(1, 0, 7)
        manager.check_invariants()

    def test_a_conversion_on_a_word_stays_a_word(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        block_id = entry(manager, KEY)[3]
        slots = manager.app_slots(1)
        take(manager, 1, 0, 7, LockMode.X, traced)
        assert entry(manager, KEY) == (1, LockMode.X._idx, 2, block_id)
        assert MODE_BY_CODE[entry(manager, table_resource(0))[1]] is LockMode.IX
        assert manager.app_slots(1) == slots
        assert not manager.release_read_lock(1, 0, 7)  # held to commit
        manager.check_invariants()

    def test_escalation_over_word_rows_under_a_word_table(self, traced):
        # 16 structures, MAXLOCKS 50 %: the ninth structure escalates.
        manager = self.manager(
            chain=LockBlockChain(initial_blocks=1, capacity_per_block=16),
            maxlocks_fraction=0.5,
        )
        for row in range(7):
            take(manager, 1, 0, row, LockMode.X if row == 3 else LockMode.S, traced)
        assert manager.app_slots(1) == 8
        rest = manager.begin_lock_row(1, 0, 7, LockMode.S)
        assert rest is not None  # a continuation: it escalates
        run_process(manager.env, rest)
        assert manager.stats.escalations.count == 1
        table = entry(manager, table_resource(0))
        assert is_word(table) and MODE_BY_CODE[table[1]] is LockMode.X
        assert list(manager._objects) == [table_resource(0)] and not manager._rows
        assert manager.app_row_lock_count(1) == 0 and manager.app_slots(1) == 1
        manager.check_invariants()
        assert manager.release_all(1) == 1
        assert not manager._objects and manager.chain.used_slots == 0

    def test_reports_read_the_same_for_both_kinds(self, traced):
        # The same holder on the same row, once as a word and once as an
        # object that a second holder inflated and then left; the second
        # holder takes the same structures elsewhere in the first manager
        # so that both have the same counters.
        as_word, as_object = self.manager(), self.manager()
        take(as_word, 1, 0, 7, LockMode.S, traced)
        take(as_word, 2, 1, 7, LockMode.S, traced)
        take(as_object, 1, 0, 7, LockMode.S, traced)
        take(as_object, 2, 0, 7, LockMode.S, traced)
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

    def test_check_invariants_rejects_a_word_off_the_chain(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        app_id, code, count, block_id = entry(manager, KEY)
        missing = max(block.block_id for block in manager.chain.iter_list()) + 1
        manager._file(KEY, KEY[3], (app_id, code, count, missing))
        with pytest.raises(LockManagerError, match=rf"names block #{missing}, not in the chain"):
            manager.check_invariants()

    def test_check_invariants_rejects_an_unindexed_word(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 1, 0, 8, LockMode.S, traced)
        rec = manager._apps[1]
        rec.rows[0].remove(7)
        rec.row_count -= 1  # so that only the word's own check can fail
        with pytest.raises(LockManagerError, match=r"grant word on T0\.R7 is not indexed for app 1"):
            manager.check_invariants()

    def test_check_invariants_rejects_a_row_indexed_twice(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        rec = manager._apps[1]
        rec.rows[0].append(7)
        rec.row_count += 1  # so that only the duplicate can fail
        with pytest.raises(LockManagerError, match=r"app 1 indexes a row of T0 twice"):
            manager.check_invariants()


def row_entry(manager, table_id, row_id):
    return manager._entry(table_resource(table_id), row_id)


@pytest.mark.parametrize("traced", [False, True], ids=["lock_row", "lock_row_traced"])
class TestSharedWords:
    """One word object serves every fresh grant of one app in one mode
    from one block; a change to one row replaces that row's word only."""

    def manager(self, capacity=None):
        chain = (
            LockBlockChain(initial_blocks=2, capacity_per_block=capacity)
            if capacity
            else LockBlockChain(initial_blocks=2)
        )
        return LockManager(Environment(), chain)

    def test_fresh_rows_of_one_app_mode_and_block_share_one_word(self, traced):
        manager = self.manager()
        for row in (7, 8, 9):
            take(manager, 1, 0, row, LockMode.S, traced)
        word = row_entry(manager, 0, 7)
        assert row_entry(manager, 0, 8) is word and row_entry(manager, 0, 9) is word
        assert word[:3] == (1, LockMode.S._idx, 1)
        # The app keeps its last fresh word: table 1's IS grant comes
        # between, so that table's first row builds a new S word, which
        # its next row shares.
        take(manager, 1, 1, 7, LockMode.S, traced)
        take(manager, 1, 1, 8, LockMode.S, traced)
        assert row_entry(manager, 1, 7) == word and row_entry(manager, 1, 7) is not word
        assert row_entry(manager, 1, 8) is row_entry(manager, 1, 7)
        manager.check_invariants()
        assert manager.release_all(1) == 7
        assert manager.chain.used_slots == 0

    def test_words_differ_across_apps_modes_and_blocks(self, traced):
        manager = self.manager(capacity=8)
        take(manager, 1, 0, 0, LockMode.S, traced)  # slots 1-2: T0 IS, row 0
        word = row_entry(manager, 0, 0)
        block_a = word[3]
        take(manager, 2, 0, 1, LockMode.S, traced)  # slots 3-4: app 2's
        assert row_entry(manager, 0, 1) == (2, LockMode.S._idx, 1, block_a)
        take(manager, 1, 1, 0, LockMode.X, traced)  # slots 5-6: T1 IX, row X
        assert row_entry(manager, 1, 0) == (1, LockMode.X._idx, 1, block_a)
        take(manager, 1, 0, 2, LockMode.S, traced)  # slot 7
        take(manager, 1, 0, 3, LockMode.S, traced)  # slot 8: block A is full
        assert manager.chain.block(block_a).used == 8
        take(manager, 1, 0, 4, LockMode.S, traced)  # block B's first slot
        take(manager, 1, 0, 5, LockMode.S, traced)
        other_block = row_entry(manager, 0, 4)
        assert other_block[:3] == word[:3] and other_block[3] != block_a
        assert row_entry(manager, 0, 5) is other_block
        # The X grant came between: rows 2-3 share a word equal to row 0's.
        assert row_entry(manager, 0, 2) == word
        assert row_entry(manager, 0, 3) is row_entry(manager, 0, 2)
        manager.check_invariants()

    @pytest.mark.parametrize(
        "change", ["re-grant", "conversion", "cs-decrement", "inflation"]
    )
    def test_changing_one_shared_row_leaves_its_neighbours(self, traced, change):
        manager = self.manager()
        for row in range(4):
            take(manager, 1, 0, row, LockMode.S, traced)
        word = row_entry(manager, 0, 0)
        before = tuple(word)
        if change == "re-grant":
            take(manager, 1, 0, 1, LockMode.S, traced)
            assert row_entry(manager, 0, 1) == before[:2] + (2, before[3])
        elif change == "conversion":
            take(manager, 1, 0, 1, LockMode.X, traced)
            assert row_entry(manager, 0, 1) == (1, LockMode.X._idx, 2, before[3])
        elif change == "cs-decrement":
            take(manager, 1, 0, 1, LockMode.S, traced)
            assert manager.release_read_lock(1, 0, 1)
            assert row_entry(manager, 0, 1) == before
            assert row_entry(manager, 0, 1) is not word
        else:
            take(manager, 2, 0, 1, LockMode.S, traced)
            assert type(row_entry(manager, 0, 1)) is LockObject
        assert word == before
        for row in (0, 2, 3):
            assert row_entry(manager, 0, row) is word
        manager.check_invariants()
        # A fresh grant after the change still shares the word.
        take(manager, 1, 0, 4, LockMode.S, traced)
        assert row_entry(manager, 0, 4) is word
        manager.release_all(2)
        assert manager.release_all(1) == 6
        assert manager.chain.used_slots == 0
        manager.check_invariants()

    def test_a_cs_release_off_the_tail_keeps_the_order(self, traced):
        manager = self.manager()
        for row in (7, 3, 9):
            take(manager, 1, 0, row, LockMode.S, traced)
        rec = manager._apps[1]
        assert manager.release_read_lock(1, 0, 3)
        assert rec.rows[0] == [7, 9] and rec.row_count == 2
        manager.check_invariants()
        take(manager, 1, 0, 3, LockMode.S, traced)  # re-locked: appended once
        assert rec.rows[0] == [7, 9, 3] and rec.row_count == 3
        manager.check_invariants()
        assert manager.release_read_lock(1, 0, 9)
        assert manager.release_read_lock(1, 0, 7)
        assert rec.rows[0] == [3]
        manager.check_invariants()
        assert manager.release_all(1) == 2
        assert manager.chain.used_slots == 0
