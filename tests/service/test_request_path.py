"""The uncontended request's written-out path, held to its references.

``LockService.lock_row`` is the one request body, and the usual
granted request runs helpers written out in it and in the manager's
``begin_lock_row`` / ``_begin``: the latency histogram's append, the
MAXLOCKS refresh tick and the chain's head-block take.  Each check
here compares what those copies leave behind with what the helper they
copy would: the histogram's counts against the service's own, the
provider's calls against the refresh period, the chain's blocks
against single ``LockBlockChain.allocate_slot`` calls.
"""

import pytest

from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource, table_resource
from repro.obs.registry import PENDING_LIMIT, MetricRegistry
from repro.service.service import LockService
from tests.conftest import lock_table_entry


def test_every_request_lands_in_the_latency_histogram_once():
    metrics = MetricRegistry()
    service = LockService(LockBlockChain(initial_blocks=3), metrics=metrics)
    holder = service.open_session()
    granted = PENDING_LIMIT + 100  # at least one fold on the way
    for row in range(granted):
        service.lock_row(holder, 0, row, LockMode.S)
    service.lock_table(holder, 1, LockMode.IS)
    # A request that fails: X on a row the holder reads, with no time
    # to wait for it.
    other = service.open_session()
    with pytest.raises(LockTimeoutError):
        service.lock_row(other, 0, 0, LockMode.X, timeout_s=0.0)
    service.close_session(other)
    service.close_session(holder)
    stats = service.stats
    assert (stats.granted, stats.timeouts) == (granted + 1, 1)
    snapshot = metrics.get("service.request_latency_s").snapshot()
    assert snapshot["count"] == stats.requests == sum(snapshot["counts"])
    assert stats.requests == granted + 2


@pytest.mark.parametrize("period", [1, 3, 4])
def test_lock_row_refreshes_once_per_refresh_period(period):
    service = LockService(LockBlockChain(initial_blocks=1))
    manager = service.manager
    calls = []

    def provider():
        calls.append(manager.stats.requests)
        return 0.5

    manager.maxlocks_provider = provider
    manager.refresh_period = period
    app = service.open_session()
    for row in range(12):
        # A fresh row, then its re-grant: the table step is a re-grant
        # from the second request on.
        service.lock_row(app, 0, row, LockMode.X)
        service.lock_row(app, 0, row, LockMode.S)
        assert len(calls) == manager.stats.requests // period
    service.lock_table(app, 1, LockMode.S)
    assert len(calls) == manager.stats.requests // period
    # Each refresh came due on the request that completed a period.
    assert calls == [period * (i + 1) for i in range(len(calls))]
    assert manager.maxlocks_fraction == 0.5
    service.close_session(app)


def chain_shape(chain):
    """Per block in allocation order, its used structures; then the
    availability list as allocation-order indices, head first."""
    blocks = list(chain._blocks.values())
    return [block.used for block in blocks], [
        blocks.index(block) for block in chain.iter_list()
    ]


def test_grants_take_the_blocks_single_allocate_slot_calls_take():
    chain = LockBlockChain(initial_blocks=1, capacity_per_block=4)
    ref = LockBlockChain(initial_blocks=1, capacity_per_block=4)
    # MAXLOCKS at 100 %: no escalation takes the rows back.
    service = LockService(chain, maxlocks_fraction=1.0)
    manager = service.manager
    taken = {}  # app -> the reference's blocks, in grant order

    def fill(app, table, rows):
        """Lock ``rows`` of ``table`` (its intent lock first) and take
        as many slots from the reference."""
        for row in rows:
            service.lock_row(app, table, row, LockMode.X)
        blocks = [ref.allocate_slot() for _ in range(len(rows) + 1)]
        taken[app] = blocks
        # Each grant names the block the reference's take returned.
        order = list(chain._blocks)
        refs = list(ref._blocks.values())
        keys = [table_resource(table)] + [row_resource(table, r) for r in rows]
        for key, block in zip(keys, blocks):
            word = lock_table_entry(manager, key)
            assert order.index(word[3]) == refs.index(block)
        assert chain_shape(chain) == chain_shape(ref)

    def commit(app):
        """Close the session; free the reference's slots one at a
        time, rows in grant order, then the intent lock."""
        service.close_session(app)
        blocks = taken.pop(app)
        for block in blocks[1:] + blocks[:1]:
            ref.free_slot(block)
        assert chain_shape(chain) == chain_shape(ref)

    a, b = service.open_session(), service.open_session()
    fill(a, 0, range(3))  # fills the one block: it leaves the list
    chain.add_blocks(2)
    ref.add_blocks(2)
    fill(b, 1, range(6))  # across both new blocks
    commit(a)  # the full first block goes back to the head
    c = service.open_session()
    fill(c, 2, range(4))  # every slot in use
    chain.add_blocks(1)
    ref.add_blocks(1)
    d = service.open_session()
    fill(d, 3, range(2))
    commit(b)
    commit(d)
    commit(c)
    assert chain.used_slots == 0
    chain.check_invariants()
    manager.check_invariants()
