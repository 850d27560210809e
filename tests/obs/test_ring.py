"""BoundedRing: the newest ``capacity`` items and the exact count of all."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.ring import BoundedRing


@given(
    capacity=st.integers(min_value=1, max_value=20),
    items=st.lists(st.integers(), max_size=60),
    limit=st.none() | st.integers(min_value=-2, max_value=25),
)
def test_holds_the_newest_capacity_items(capacity, items, limit):
    ring = BoundedRing(capacity)
    for item in items:
        ring.append(item)
    newest = items[-capacity:] if items else []
    assert ring.snapshot() == newest
    assert len(ring) == len(newest)
    assert ring.total == len(items)
    expected = newest if limit is None else newest[-limit:] if limit > 0 else []
    assert ring.snapshot(limit) == expected


def test_unbounded_ring_keeps_everything():
    ring = BoundedRing(None)
    for item in range(1000):
        ring.append(item)
    assert ring.snapshot() == list(range(1000))
    assert ring.total == 1000


@pytest.mark.parametrize("capacity", [0, -1])
def test_capacity_must_be_positive(capacity):
    with pytest.raises(ValueError, match="capacity"):
        BoundedRing(capacity)


def test_total_is_exact_under_concurrent_appends():
    ring = BoundedRing(16)
    threads, per_thread = 8, 5000
    start = threading.Barrier(threads)

    def writer(tag):
        start.wait()
        for i in range(per_thread):
            ring.append((tag, i))

    workers = [threading.Thread(target=writer, args=(t,)) for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert ring.total == threads * per_thread
    held = ring.snapshot()
    assert len(held) == 16
    # Each writer's items stay in its own append order.
    for tag in range(threads):
        mine = [i for t, i in held if t == tag]
        assert mine == sorted(mine)
