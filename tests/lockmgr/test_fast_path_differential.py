"""Differential test of the one grant path, with and without a tracer.

Every request takes one path: ``begin_lock_row`` / ``begin_lock_table``
do what needs no wait and hand back a generator only for the rest (a
slot shortage or a queue).  A tracer used to send requests down a
path of their own; now it only records.  Two managers receive the same
hypothesis-generated operation sequence, one with a ``LockTrace``
attached, and after every step their observable state must be equal,
so a counter bump, refresh tick or structure charge that tracing moved
fails the test.  A third run checks that every request ticks the
MAXLOCKS refresh exactly once, whichever way it is granted.

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
from repro.lockmgr.tracing import LockTrace
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

    def __init__(
        self, traced: bool, growth_blocks: int = GROWTH_BLOCKS, refresh_period: int = 5
    ) -> None:
        budget = [growth_blocks]  # blocks the growth provider still has to give

        def grow(wanted: int) -> int:
            granted = min(wanted, budget[0])
            budget[0] -= granted
            return granted

        self.manager = LockManager(
            Environment(),
            LockBlockChain(initial_blocks=1, capacity_per_block=8),
            growth_provider=grow if growth_blocks else None,
            maxlocks_fraction=0.5,
            refresh_period=refresh_period,
        )
        if traced:
            self.manager.tracer = LockTrace(None)
        self.parked = {}  # app -> (generator, the event it waits on)
        #: Requests ``begin_*`` granted, and those it handed a generator.
        self.immediate = self.continued = 0

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
        else:
            if kind == "table":
                rest = manager.begin_lock_table(app, op[2], op[3])
            else:
                rest = manager.begin_lock_row(app, *op[2:])
            if rest is None:
                self.immediate += 1
            else:
                self.continued += 1
                self._drive(app, rest)
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
def test_a_tracer_changes_no_step(ops):
    traced, untraced = Driver(traced=True), Driver(traced=False)
    for op in ops:
        traced.step(op)
        untraced.step(op)
        assert snapshot(traced.manager) == snapshot(untraced.manager), op
        assert sorted(traced.parked) == sorted(untraced.parked)
        assert (traced.immediate, traced.continued) == (
            untraced.immediate, untraced.continued
        )
        # Every continuation ran to its first wait: a waiter is in the
        # wait map iff it is queued.
        untraced.manager.check_invariants()
    traced.manager.check_invariants()  # every object's and word's own too


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=80))
def test_every_request_ticks_the_refresh_once(ops):
    # No growth and no refresh come due, so nothing resets the count.
    driver = Driver(traced=False, growth_blocks=0, refresh_period=1 << 30)
    manager = driver.manager
    for op in ops:
        driver.step(op)
        assert manager._requests_since_refresh == manager.stats.requests, op
    manager.check_invariants()


def test_the_sequences_reach_the_fallbacks():
    """The generated regime is not vacuous: a long fixed walk through
    the same driver grows, escalates both ways, grants at once and
    hands back continuations."""
    rng = random.Random(7)
    driver = Driver(traced=False)
    for _ in range(3000):
        app, table = rng.choice(APPS), rng.choice(TABLES)
        if rng.random() < 0.07:
            op = ("release", app)
        else:
            op = ("row", app, table, rng.choice(ROWS), rng.choice(list(LockMode)))
        driver.step(op)
    stats = driver.manager.stats
    assert driver.immediate > 100 and driver.continued > 100
    assert stats.sync_growth_blocks == GROWTH_BLOCKS
    assert stats.waits > 0
    assert stats.escalations.by_reason("maxlocks") > 0
    assert stats.escalations.by_reason("memory") > 0
