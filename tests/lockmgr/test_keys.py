"""The lock table's keys against the public resource ids.

A row's entry is filed under its table id and row id, and its lock
object (if contention made one) carries the plain tuple ``row_key``
returns; everything a caller sees -- ``holder_mode`` lookups,
``LockObject.resource``, status lines, trace events, errors -- still
speaks ``ResourceId``.
"""

import gc

import pytest

from repro.engine.des import Environment
from repro.errors import LockManagerError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import (
    ResourceId,
    page_resource,
    row_key,
    row_resource,
    table_resource,
)
from repro.lockmgr.tracing import LockTrace
from tests.conftest import lock_table_entry, run_process


def take(manager, app_id, table_id, row_id, mode, traced):
    """A lock_row request that does not wait, with a tracer attached to
    ``manager`` when ``traced`` (a tracer takes no path of its own)."""
    if traced and manager.tracer is None:
        manager.tracer = LockTrace(None)
    for _ in manager.lock_row(app_id, table_id, row_id, mode):
        raise AssertionError("the request waited")


class TestRowKey:
    @pytest.mark.parametrize("table_id, row_id", [(0, 0), (0, 7), (3, 50_000), (12, 1)])
    def test_equals_the_row_resource_and_hashes_the_same(self, table_id, row_id):
        key = row_key(table_id, row_id)
        resource = row_resource(table_id, row_id)
        assert type(key) is tuple
        assert key == resource and resource == key
        assert hash(key) == hash(resource)
        assert {resource: 1}[key] == 1 and {key: 1}[resource] == 1

    @pytest.mark.parametrize("table_id, row_id", [(-1, 0), (0, -1), (-2, -3)])
    def test_refuses_negative_ids_as_row_resource_does(self, table_id, row_id):
        with pytest.raises(ValueError) as key_error:
            row_key(table_id, row_id)
        with pytest.raises(ValueError) as resource_error:
            row_resource(table_id, row_id)
        assert str(key_error.value) == str(resource_error.value)


@pytest.mark.parametrize("traced", [False, True], ids=["lock_row", "lock_row_traced"])
class TestTheLockTableSpeaksResourceIds:
    def manager(self):
        return LockManager(Environment(), LockBlockChain(initial_blocks=2))

    def test_holder_mode_finds_the_row_by_resource_id(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        assert manager.holder_mode(1, row_resource(0, 7)) is LockMode.S
        assert manager.holder_mode(2, row_resource(0, 7)) is None
        assert manager.holder_mode(1, row_resource(0, 8)) is None
        manager.check_invariants()

    def test_a_row_is_keyed_by_a_plain_tuple_the_collector_forgets(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 2, 0, 7, LockMode.S, traced)  # a second holder: an object
        obj = lock_table_entry(manager, row_resource(0, 7))
        assert type(obj.key) is tuple and obj.key == row_key(0, 7)
        gc.collect()
        assert not gc.is_tracked(obj.key)

    def test_lock_object_resource_is_a_resource_id(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 2, 0, 7, LockMode.S, traced)  # a second holder: an object
        obj = lock_table_entry(manager, row_key(0, 7))
        assert type(obj.resource) is ResourceId
        assert obj.resource == row_resource(0, 7)
        assert repr(obj.resource) == str(obj.resource) == "T0.R7"
        assert repr(obj) == "LockObject(T0.R7, granted=[1:S, 2:S], queue=[])"
        with pytest.raises(LockManagerError, match=r"app 1 already holds T0\.R7$"):
            obj.add_grant(1, LockMode.S)

    def test_lock_status_is_unchanged(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 2, 0, 7, LockMode.S, traced)
        assert manager.lock_status(row_resource(0, 7)) == "T0.R7: granted[1:S, 2:S] queue[]"
        manager.release_all(1)
        manager.release_all(2)
        assert manager.lock_status(row_resource(0, 7)) == "T0.R7: unlocked"
        manager.check_invariants()

    def test_each_held_row_is_indexed_once(self, traced):
        manager = self.manager()
        for row in (7, 3, 9):
            take(manager, 1, 0, row, LockMode.S, traced)
        rec = manager._apps[1]
        assert rec.held == {row_resource(0, 0).table()}
        assert list(rec.rows[0]) == [7, 3, 9]
        assert rec.row_count == 3
        assert manager.release_all(1) == 4
        assert not manager._objects and not manager._rows
        manager.check_invariants()


@pytest.mark.parametrize("traced", [False, True], ids=["lock_row", "lock_row_traced"])
class TestRowMaps:
    """A table's rows are filed in one row map, which goes when it
    empties -- whichever path empties it."""

    def manager(self, **kwargs):
        chain = kwargs.pop("chain", None) or LockBlockChain(initial_blocks=2)
        return LockManager(Environment(), chain, **kwargs)

    def escalating_manager(self):
        # 16 structures, MAXLOCKS 50 %: app 1's ninth structure escalates.
        return self.manager(
            chain=LockBlockChain(initial_blocks=1, capacity_per_block=16),
            maxlocks_fraction=0.5,
        )

    def test_release_all_drops_the_maps_it_empties(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 1, 1, 7, LockMode.S, traced)
        take(manager, 2, 1, 8, LockMode.S, traced)
        assert sorted(manager._rows) == [0, 1]
        manager.release_all(1)
        assert list(manager._rows) == [1] and list(manager._rows[1]) == [8]
        manager.check_invariants()
        manager.release_all(2)
        assert not manager._rows and not manager._objects
        manager.check_invariants()

    def test_an_escalation_drops_the_map_it_empties(self, traced):
        manager = self.escalating_manager()
        take(manager, 2, 1, 0, LockMode.S, traced)
        for row in range(7):
            take(manager, 1, 0, row, LockMode.S, traced)
        run_process(manager.env, manager.lock_row(1, 0, 7, LockMode.S))
        assert manager.stats.escalations.count == 1
        assert list(manager._rows) == [1]
        manager.check_invariants()

    def test_an_escalation_keeps_a_shared_row_a_cs_release_drops_it(self, traced):
        manager = self.escalating_manager()
        for row in range(7):
            take(manager, 1, 0, row, LockMode.S, traced)
        take(manager, 2, 0, 3, LockMode.S, traced)  # a second holder: an object
        run_process(manager.env, manager.lock_row(1, 0, 7, LockMode.S))
        assert manager.stats.escalations.count == 1
        assert list(manager._rows[0]) == [3]
        assert manager.holder_mode(2, row_resource(0, 3)) is LockMode.S
        manager.check_invariants()
        assert manager.release_read_lock(2, 0, 3)
        assert not manager._rows
        manager.check_invariants()

    def test_a_cs_early_release_drops_the_map_it_empties(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        assert manager.release_read_lock(1, 0, 7)
        assert not manager._rows and list(manager._objects) == [table_resource(0)]
        manager.check_invariants()

    def test_a_page_reads_unlocked_while_its_table_and_a_row_are_held(self, traced):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.S, traced)
        take(manager, 2, 0, 7, LockMode.S, traced)  # objects, not words, too
        for page in (page_resource(0, 7), page_resource(0, 0)):
            assert manager.holder_mode(1, page) is None
            assert manager.lock_status(page) == f"{page}: unlocked"
        assert manager.holder_mode(1, table_resource(0)) is LockMode.IS
        assert manager.holder_mode(1, row_resource(0, 7)) is LockMode.S

    @pytest.mark.parametrize("table_id, row_id", [(-1, 0), (0, -1), (-1, -1)])
    def test_a_negative_id_raises_before_anything_changes(self, traced, table_id, row_id):
        manager = self.manager()
        take(manager, 1, 0, 7, LockMode.X, traced)  # the table's IX covers no row
        used, requests = manager.chain.used_slots, manager.stats.requests
        with pytest.raises(ValueError, match="must be non-negative"):
            take(manager, 1, table_id, row_id, LockMode.S, traced)
        assert manager.chain.used_slots == used
        assert manager.stats.requests == requests
        manager.check_invariants()


class TestTraceText:
    def test_trace_events_and_the_contended_view_print_resource_ids(self, env):
        manager = LockManager(env, LockBlockChain(initial_blocks=2))
        manager.tracer = LockTrace()
        contended = []

        def holder():
            yield from manager.lock_row(1, 0, 7, LockMode.S)
            yield env.timeout(5)
            manager.release_read_lock(1, 0, 7)

        def waiter():
            yield env.timeout(1)
            yield from manager.lock_row(2, 0, 7, LockMode.X)

        def probe():
            yield env.timeout(2)
            contended.extend(manager.contended_objects().items())

        for process in (holder(), waiter(), probe()):
            env.process(process)
        env.run()
        assert [(e.time, e.kind, e.app_id, e.detail, e.resource) for e in manager.tracer] == [
            (0.0, "grant", 1, "IS T0", "T0"),
            (0.0, "grant", 1, "S T0.R7", "T0.R7"),
            (1.0, "grant", 2, "IX T0", "T0"),
            (1.0, "wait-begin", 2, "X T0.R7", "T0.R7"),
            (5.0, "release", 1, "CS early release T0.R7", "T0.R7"),
            (5.0, "wait-end", 2, "X T0.R7 after 4.000s", "T0.R7"),
        ]
        [(key, obj)] = contended
        assert key == row_resource(0, 7) and str(obj.resource) == "T0.R7"
        assert not manager.contended_objects()
        manager.check_invariants()
