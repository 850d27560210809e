"""``release_all`` returns a commit's structures one block run at a time.

``LockManager._release_grants`` counts consecutive frees from one block
and hands each run back with one ``LockBlockChain.free_slots_id`` call.
The chain must still read as if every structure had gone back on its
own (paper section 2.2: a block that was full returns to the head of
the list, and the order in which blocks return decides where the next
requests are served from).  The reference is the same manager releasing
each key in a call of its own, so no run ever holds more than one
structure.  Both are compared after every operation and whenever a
queue is pumped mid-release -- each block's ``used``, ``used_slots``
and the availability list from head to tail.

Blocks hold 3 structures, so an application's rows span several blocks
and runs cross block boundaries and full blocks come back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.engine.des import Environment
from repro.errors import DeadlockError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockListFullError, LockManager, LockManagerError
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource

APPS = (1, 2, 3)
TABLES = (0, 1)
ROWS = tuple(range(8))


def chain_state(chain: LockBlockChain):
    """The chain with block ids replaced by allocation order."""
    blocks = list(chain._blocks.values())
    return (
        chain.used_slots,
        [block.used for block in blocks],
        [blocks.index(block) for block in chain.iter_list()],
    )


class Recording(LockManager):
    """Notes the chain's state each time a queue is pumped."""

    def __init__(self) -> None:
        super().__init__(
            Environment(),
            LockBlockChain(initial_blocks=6, capacity_per_block=3),
            growth_provider=lambda wanted: wanted,
            maxlocks_fraction=1.0,
        )
        self.pumped = []

    def _pump(self, obj) -> None:
        self.pumped.append(chain_state(self.chain))
        super()._pump(obj)


class OneAtATime(Recording):
    """The reference: every key released in a call of its own."""

    def _release_grants(self, app_id, groups) -> int:
        return sum(
            LockManager._release_grants(self, app_id, ((table_id, (key,)),))
            for table_id, keys in groups
            for key in list(keys)
        )


class Harness:
    """One manager and its parked (blocked) requests."""

    def __init__(self, manager: LockManager) -> None:
        self.manager = manager
        self.parked = {}  # app -> (generator, the event it waits on)

    def step(self, op):
        kind, app = op[0], op[1]
        if app in self.parked or kind == "release":
            parked = self.parked.pop(app, None)
            if parked is not None:
                parked[0].close()
            result = self.manager.release_all(app)
        elif kind == "unlock":
            result = self.manager.release_read_lock(app, op[2], op[3])
        else:
            _kind, _app, table, row, mode = op
            result = self._drive(app, self.manager.lock_row(app, table, row, mode))
        self._resume_granted()
        return result

    def _drive(self, app, gen, value=None):
        try:
            event = gen.send(value)
        except StopIteration:
            return "granted"
        except (DeadlockError, LockListFullError) as exc:
            self.manager.release_all(app)
            return type(exc).__name__
        self.parked[app] = (gen, event)
        return "parked"

    def _resume_granted(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for app in sorted(self.parked):
                gen, event = self.parked[app]
                if event.triggered:
                    del self.parked[app]
                    self._drive(app, gen, event.value)
                    progressed = True


_apps = st.sampled_from(APPS)
_rows = st.tuples(
    st.just("row"),
    _apps,
    st.sampled_from(TABLES),
    st.sampled_from(ROWS),
    st.sampled_from([LockMode.S, LockMode.X]),
)
OPS = st.one_of(
    _rows,
    _rows,  # weight rows up: commits then free long runs
    _rows,
    st.tuples(st.just("release"), _apps),
    st.tuples(st.just("unlock"), _apps, st.sampled_from(TABLES), st.sampled_from(ROWS)),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=80))
def test_runs_leave_the_chain_as_single_frees_do(ops):
    runs, single = Harness(Recording()), Harness(OneAtATime())
    for op in ops:
        assert runs.step(op) == single.step(op), op
        assert chain_state(runs.manager.chain) == chain_state(single.manager.chain), op
        assert runs.manager.pumped == single.manager.pumped, op
        assert sorted(runs.parked) == sorted(single.parked)
    for harness in (runs, single):
        harness.manager.check_invariants()


def hold_rows(harness: Harness, app: int, rows, mode=LockMode.X) -> None:
    for row in rows:
        assert harness.step(("row", app, 0, row, mode)) == "granted"


def test_a_waiter_pumped_mid_release_sees_the_frees_before_it():
    """App 1 holds nine rows over four blocks; app 2 queues on row 4.
    Releasing app 1 pumps row 4's queue halfway: by then the rows
    before it are back in their blocks, exactly as one by one."""
    harnesses = [Harness(Recording()), Harness(OneAtATime())]
    for harness in harnesses:
        hold_rows(harness, 1, range(9))
        assert harness.step(("row", 2, 0, 4, LockMode.X)) == "parked"
        used = harness.manager.chain.used_slots
        assert harness.step(("release", 1)) == 10  # nine rows and the table's IX
        assert 2 not in harness.parked  # granted by the pump
        assert harness.manager.holder_mode(2, row_resource(0, 4)) is LockMode.X
        assert len(harness.manager.pumped) == 1
        # Rows 0-4 went back before the pump, the rest after it.
        assert harness.manager.pumped[0][0] == used - 5
    runs, single = harnesses
    assert runs.manager.pumped == single.manager.pumped
    assert chain_state(runs.manager.chain) == chain_state(single.manager.chain)


def test_does_not_hold_returns_the_run_before_raising():
    """A key the app does not hold raises only after the structures of
    the keys before it are back in the chain."""
    states = []
    for harness in (Harness(Recording()), Harness(OneAtATime())):
        hold_rows(harness, 1, range(5))
        hold_rows(harness, 2, range(5, 7))
        used = harness.manager.chain.used_slots
        with pytest.raises(LockManagerError, match="does not hold"):
            harness.manager._release_grants(1, ((0, (0, 1, 2, 5, 3)),))
        assert harness.manager.chain.used_slots == used - 3
        states.append(chain_state(harness.manager.chain))
    assert states[0] == states[1]
