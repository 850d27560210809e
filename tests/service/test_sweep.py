"""The cross-partition deadlock sweep over scripted fake partitions.

The live suites (``test_sharded_deadlock``, ``test_workers``) drive the
sweep through real lock tables; here every partition is a script, so
the decision rules are pinned without a thread in sight: atomic
snapshots victimise a cycle on first sight, non-atomic ones only on the
second consecutive sighting, a victim that resumed in between is a
phantom, and the victim is the smallest *global* footprint with ties to
the lowest application id.
"""

import time
from types import SimpleNamespace

import pytest

from repro.errors import LockManagerError
from repro.service.partition import WorkerDiedError
from repro.service.sweep import DeadlockSweep


class ScriptedPartition:
    """A partition whose wait-for edges and slot counts are data.

    ``edges`` maps a waiting app to the apps gating it *in this
    partition*; ``slots`` is what each app holds here.  ``victimize``
    cancels a wait the way a lock table would: the waiter's edges go.
    """

    def __init__(self, idx, edges=None, slots=None, *, atomic=True):
        self.idx = idx
        self.atomic = atomic
        self.dead = self.closed = False
        self.edges = dict(edges or {})
        self.slots = dict(slots or {})
        self.victimized = []
        self.holds = 0

    def waiting(self):
        return sorted(self.edges)

    def graph(self, waiting):
        assert self.held(), "graph read outside the snapshot hold"
        graph = {
            app: [b for b in blockers if b in waiting]
            for app, blockers in self.edges.items()
        }
        return graph, {app: self.slots.get(app, 0) for app in waiting}

    def victimize(self, victim, message):
        if victim not in self.edges:
            return False, ""  # resumed since the graph was read
        del self.edges[victim]
        self.victimized.append((victim, message))
        return True, f"T{self.idx}"

    def held(self):
        return self.holds > 0 or not self.atomic


class AllPartitionsHeld:
    """Stands in for the plane's condition: marks every partition held."""

    def __init__(self, parts):
        self.parts = parts

    def __enter__(self):
        for part in self.parts:
            part.holds += 1

    def __exit__(self, *exc_info):
        for part in self.parts:
            part.holds -= 1


def make_sweep(parts):
    """A sweep over ``parts`` with a recording stand-in for the plane."""
    recorded = []
    plane = SimpleNamespace(
        ledger=SimpleNamespace(
            live=lambda: [p for p in parts if not (p.dead or p.closed)]
        ),
        _cond=AllPartitionsHeld(parts),
        record_sweep_victim=lambda owner, victim, resource, cycle: (
            recorded.append((owner.idx, victim, resource, sorted(cycle)))
        ),
    )
    return DeadlockSweep(plane, interval_s=1.0), recorded


def two_partition_cycle(*, atomic):
    """App 1 waits in partition 0 on app 2, which waits in partition 1
    on app 1: invisible to either partition alone."""
    return [
        ScriptedPartition(0, {1: [2]}, {1: 1, 2: 1}, atomic=atomic),
        ScriptedPartition(1, {2: [1]}, {1: 1, 2: 1}, atomic=atomic),
    ]


class TestAtomicSnapshots:
    def test_cycle_is_victimised_on_first_sight(self):
        parts = two_partition_cycle(atomic=True)
        sweep, recorded = make_sweep(parts)
        assert sweep.check() == 1
        assert sweep.stats.checks == 1
        assert sweep.stats.cycles_found == 1
        # equal footprints: the lowest app id loses, on its own partition
        assert sweep.stats.victims == [1]
        assert [v for v, _msg in parts[0].victimized] == [1]
        assert parts[1].victimized == []
        assert recorded == [(0, 1, "T0", [1, 2])]
        # the cycle is broken: the next sweep finds app 2 waiting on a
        # runner, no cycle
        assert sweep.check() == 0
        assert sweep.stats.cycles_found == 1

    def test_idle_partitions_are_not_held(self):
        parts = [ScriptedPartition(0), ScriptedPartition(1)]
        sweep, _ = make_sweep(parts)
        assert sweep.check() == 0  # graph() would assert if it were read
        assert sweep.stats.checks == 1

    def test_victim_is_smallest_global_footprint(self):
        # App 1 has the lower id but holds 5 more structures in the
        # *other* partition than where it waits: app 2 is the victim.
        parts = [
            ScriptedPartition(0, {1: [2]}, {1: 1, 2: 1}),
            ScriptedPartition(1, {2: [1]}, {1: 6, 2: 1}),
        ]
        sweep, recorded = make_sweep(parts)
        assert sweep.check() == 1
        assert sweep.stats.victims == [2]
        assert recorded[0][:2] == (1, 2)

    def test_disjoint_cycles_fall_in_one_sweep(self):
        parts = [
            ScriptedPartition(0, {1: [2], 3: [4]}),
            ScriptedPartition(1, {2: [1], 4: [5]}),
            ScriptedPartition(2, {5: [3]}),
        ]
        sweep, _ = make_sweep(parts)
        assert sweep.check() == 2
        assert sorted(sweep.stats.victims) == [1, 3]

    def test_a_session_waiting_in_two_partitions_is_rejected(self):
        parts = [
            ScriptedPartition(0, {7: [1]}),
            ScriptedPartition(1, {7: [2]}),
        ]
        sweep, _ = make_sweep(parts)
        with pytest.raises(LockManagerError, match="two shards"):
            sweep.check()


class TestNonAtomicSnapshots:
    def test_cycle_needs_a_second_consecutive_sighting(self):
        parts = two_partition_cycle(atomic=False)
        sweep, recorded = make_sweep(parts)
        assert sweep.check() == 0  # first sighting: remembered only
        assert sweep.stats.cycles_found == 0
        assert all(p.victimized == [] for p in parts)
        assert sweep.check() == 1  # still there: real
        assert sweep.stats.cycles_found == 1
        assert sweep.stats.victims == [1]
        assert recorded == [(0, 1, "T0", [1, 2])]

    def test_a_cycle_that_dissolves_was_a_phantom(self):
        parts = two_partition_cycle(atomic=False)
        sweep, _ = make_sweep(parts)
        assert sweep.check() == 0
        parts[1].edges.clear()  # skewed snapshots: app 2 never waited
        assert sweep.check() == 0
        # the same cycle reappearing later starts from scratch
        parts[1].edges = {2: [1]}
        assert sweep.check() == 0
        assert sweep.check() == 1

    def test_a_victim_that_resumed_between_sweeps_is_a_phantom(self):
        parts = two_partition_cycle(atomic=False)
        sweep, recorded = make_sweep(parts)
        assert sweep.check() == 0
        # Seen twice -- but by the time the cancel arrives the victim
        # has been granted: the partition refuses, nothing is recorded.
        real_graph = parts[0].graph

        def graph_then_resume(waiting):
            result = real_graph(waiting)
            parts[0].edges.pop(1, None)
            return result

        parts[0].graph = graph_then_resume
        assert sweep.check() == 0
        assert sweep.stats.cycles_found == 1
        assert sweep.stats.victims == []
        assert recorded == []

    def test_idle_sweep_forgets_pending_cycles(self):
        parts = two_partition_cycle(atomic=False)
        sweep, _ = make_sweep(parts)
        assert sweep.check() == 0
        saved = [dict(p.edges) for p in parts]
        for part in parts:
            part.edges.clear()
        assert sweep.check() == 0  # nobody waits: pending cleared
        for part, edges in zip(parts, saved):
            part.edges = edges
        assert sweep.check() == 0  # a *first* sighting again
        assert sweep.check() == 1


class TestSweepThread:
    def test_a_dying_partition_does_not_kill_the_sweep(self):
        parts = two_partition_cycle(atomic=False)

        def dies():
            raise WorkerDiedError("worker 0 died during 'waiting'")

        parts[0].waiting = dies
        sweep, _ = make_sweep(parts)
        sweep.interval_s = 0.001
        sweep.start()
        try:
            deadline = time.monotonic() + 5.0
            while sweep.stats.checks < 3:
                assert time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            sweep.stop()
        assert sweep.crash is None
        assert not sweep.alive

    def test_any_other_failure_is_recorded_and_ends_the_sweep(self):
        parts = two_partition_cycle(atomic=True)

        def broken():
            raise RuntimeError("sweep bug")

        parts[0].waiting = broken
        sweep, _ = make_sweep(parts)
        sweep.interval_s = 0.001
        sweep.start()
        sweep._thread.join(5.0)
        assert isinstance(sweep.crash, RuntimeError)
        assert not sweep.alive
        sweep.stop()
