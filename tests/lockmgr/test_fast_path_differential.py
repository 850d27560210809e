"""Differential test of ``LockManager.lock_row_fast``'s contract.

``lock_row_fast`` promises accounting *byte-identical* to driving the
``lock_row`` generator, or -- when it returns False -- to have mutated
nothing.  Two managers receive the same hypothesis-generated operation
sequence: manager A tries the fast path first and falls back to the
generator, manager B only ever drives the generator.  After every step
their observable state must be equal, so a counter bump, refresh tick
or structure charge dropped from either path fails the test.

The chains are tiny (8-slot blocks, a growth provider that runs dry,
MAXLOCKS at 50 %) so synchronous growth, both kinds of escalation and
the lock-list-full error all occur; blocked requests stay parked and
are resumed when a later release pumps them, so the waited-grant path
runs too.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.des import Environment
from repro.errors import DeadlockError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockListFullError, LockManager
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource, table_resource
from tests.conftest import lock_table_entry

APPS = (1, 2, 3)
TABLES = (0, 1)
ROWS = (0, 1, 2, 3, 4, 5)
#: Blocks the growth provider grants before it runs dry.
GROWTH_BLOCKS = 1
RESOURCES = [table_resource(t) for t in TABLES] + [
    row_resource(t, r) for t in TABLES for r in ROWS
]

_apps = st.sampled_from(APPS)
_tables = st.sampled_from(TABLES)
_rows = st.sampled_from(ROWS)
_modes = st.sampled_from(list(LockMode))
OPS = st.one_of(
    st.tuples(st.just("row"), _apps, _tables, _rows, _modes),
    st.tuples(st.just("row"), _apps, _tables, _rows, _modes),  # weight rows up
    st.tuples(st.just("table"), _apps, _tables, _modes),
    st.tuples(st.just("unlock"), _apps, _tables, _rows),
    st.tuples(st.just("release"), _apps),
)


def snapshot(manager: LockManager):
    chain = manager.chain
    blocks = sorted(chain._blocks.values(), key=lambda block: block.block_id)
    return (
        dataclasses.asdict(manager.stats),
        chain.used_slots,
        chain.capacity_slots,
        [block.used for block in blocks],
        [blocks.index(block) for block in chain.iter_list()],
        {
            app: (manager.app_slots(app), manager.app_row_lock_count(app))
            for app in APPS
        },
        {
            (app, res): manager.holder_mode(app, res)
            for app in APPS
            for res in RESOURCES
        },
        manager._requests_since_refresh,
        sorted(manager.waiting_apps()),
        # Each entry's representation, a grant word or a lock object
        # (every resource these operations can lock), and how many
        # entries each map files: nothing filed elsewhere, no row map
        # kept once empty.
        {res: type(lock_table_entry(manager, res)).__name__ for res in RESOURCES},
        len(manager._objects),
        {table: len(rows) for table, rows in manager._rows.items()},
    )


class Driver:
    """One manager plus the parked (blocked) requests of its apps."""

    def __init__(self, use_fast: bool) -> None:
        self.use_fast = use_fast
        budget = [GROWTH_BLOCKS]  # blocks the growth provider still has to give

        def grow(wanted: int) -> int:
            granted = min(wanted, budget[0])
            budget[0] -= granted
            return granted

        self.manager = LockManager(
            Environment(),
            LockBlockChain(initial_blocks=1, capacity_per_block=8),
            growth_provider=grow,
            maxlocks_fraction=0.5,
            refresh_period=5,
        )
        self.parked = {}  # app -> (generator, the event it waits on)
        self.fast_grants = 0

    def step(self, op) -> None:
        manager = self.manager
        kind, app = op[0], op[1]
        if app in self.parked or kind == "release":
            # An app with a request in flight can only roll back.
            parked = self.parked.pop(app, None)
            if parked is not None:
                parked[0].close()
            manager.release_all(app)
        elif kind == "unlock":
            manager.release_read_lock(app, op[2], op[3])
        elif kind == "table":
            self._drive(app, manager.lock_table(app, op[2], op[3]))
        else:
            _kind, _app, table, row, mode = op
            if self.use_fast:
                before = snapshot(manager)
                if manager.lock_row_fast(app, table, row, mode):
                    self.fast_grants += 1
                    self._resume_granted()
                    return
                # False must mean: nothing happened.
                manager.check_invariants()
                assert snapshot(manager) == before
            self._drive(app, manager.lock_row(app, table, row, mode))
        self._resume_granted()

    def _drive(self, app, gen, value=None) -> None:
        try:
            event = gen.send(value)
        except StopIteration:
            return
        except (DeadlockError, LockListFullError):
            self.manager.release_all(app)
            return
        self.parked[app] = (gen, event)

    def _resume_granted(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for app in sorted(self.parked):
                gen, event = self.parked[app]
                if event.triggered:
                    assert event.ok
                    del self.parked[app]
                    self._drive(app, gen, event.value)
                    progressed = True


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=80))
def test_fast_path_matches_generator_path_step_by_step(ops):
    fast, slow = Driver(use_fast=True), Driver(use_fast=False)
    for op in ops:
        fast.step(op)
        slow.step(op)
        assert snapshot(fast.manager) == snapshot(slow.manager), op
        assert sorted(fast.parked) == sorted(slow.parked)
    for driver in (fast, slow):
        driver.manager.check_invariants()  # every object's and word's own too


def test_the_sequences_reach_the_fallbacks():
    """The generated regime is not vacuous: a long fixed walk through
    the same driver grows, escalates both ways and takes the fast path."""
    rng = random.Random(7)
    driver = Driver(use_fast=True)
    for _ in range(3000):
        app, table = rng.choice(APPS), rng.choice(TABLES)
        if rng.random() < 0.07:
            op = ("release", app)
        else:
            op = ("row", app, table, rng.choice(ROWS), rng.choice(list(LockMode)))
        driver.step(op)
    stats = driver.manager.stats
    assert driver.fast_grants > 100
    assert stats.sync_growth_blocks == GROWTH_BLOCKS
    assert stats.waits > 0
    assert stats.escalations.by_reason("maxlocks") > 0
    assert stats.escalations.by_reason("memory") > 0
