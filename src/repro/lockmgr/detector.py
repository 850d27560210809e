"""Periodic deadlock detection (DB2's DLCHKTIME model).

The lock manager's default is *immediate* detection: a request that
would close a wait-for cycle fails on the spot.  Real DB2 instead runs
a deadlock detector every DLCHKTIME milliseconds (default 10 s): cycles
exist until the next check, at which point a victim is chosen and
rolled back.  This module provides that mode:

* :class:`DeadlockDetector` scans the manager's wait-for graph on a
  fixed interval,
* each cycle's victim is the participant holding the fewest lock
  structures (a proxy for DB2's least-log-space victim rule),
* the victim's pending request fails with
  :class:`~repro.errors.DeadlockError`, delivered asynchronously
  through its wait event.

Attach with::

    detector = DeadlockDetector(manager, interval_s=10.0)
    env.process(detector.run(env))

which switches the manager to periodic mode (immediate checks off).

The graph construction and cycle search are also exposed as the
module-level functions :func:`build_wait_for_graph`,
:func:`find_cycles_in_graph` and :func:`merge_wait_graphs`, so a
sharded deployment (:mod:`repro.service.sharded`) can merge the
per-shard graphs and run the identical cycle search across shards
without switching the shard managers out of immediate mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import DeadlockError, LockManagerError
from repro.lockmgr.manager import LockManager


@dataclass
class DetectorStats:
    """Counters for one detector instance."""

    checks: int = 0
    cycles_found: int = 0
    victims: List[int] = field(default_factory=list)


def build_wait_for_graph(
    manager: LockManager, waiting: Optional[Container[int]] = None
) -> Dict[int, List[int]]:
    """Cycle-relevant edges: waiting app -> *waiting* apps gating it.

    Built from the manager's incrementally-maintained contended-object
    set, visiting each contended queue once: incompatible holders are
    computed per distinct waiter *mode* (bitmask test, cached within
    the object) and the queued-ahead prefix is accumulated while
    walking the queue, so the build is O(contended waiters + holders)
    rather than a per-waiter rescan of each queue.

    Blockers not in ``waiting`` are pruned during the build: they have
    no outgoing edges, so they cannot lie on a cycle, and dropping
    them up front (a popular share-locked resource can have dozens of
    non-waiting holders) shrinks both the graph and the DFS that
    follows.  ``waiting`` defaults to this manager's own wait set --
    correct for a single manager.  A sharded sweep MUST instead pass
    the union of every shard's wait set: a blocker idle in this shard
    may be waiting in another, and pruning it here would sever the
    cross-shard edge the cycle runs through.

    Edge lists may contain a duplicate when a blocker both holds the
    resource and waits ahead (a queued conversion); the DFS is
    insensitive to duplicates.  Edge lists may also be shared between
    entries -- treat them as read-only.
    """
    graph: Dict[int, List[int]] = {}
    if waiting is None:
        waiting = manager._waiting_on
    for obj in manager.contended_objects().values():
        incompatible_cache: Dict[int, List[int]] = {}
        ahead: List[int] = []
        for waiter in obj.waiters:
            mode_idx = waiter.mode._idx  # type: ignore[attr-defined]
            holders = incompatible_cache.get(mode_idx)
            if holders is None:
                mask = waiter.mode._compat_mask  # type: ignore[attr-defined]
                holders = incompatible_cache[mode_idx] = [
                    held.app_id
                    for held in obj.holders()
                    if not (mask & held.mode._bit)  # type: ignore[attr-defined]
                    and held.app_id in waiting
                ]
            app_id = waiter.app_id
            if waiter.converting:
                # A converting waiter also holds the resource; keep
                # it out of its own edge list.
                blockers = [app for app in holders if app != app_id]
                blockers.extend(app for app in ahead if app != app_id)
            elif ahead:
                blockers = holders + ahead
            else:
                blockers = holders
            graph[app_id] = blockers
            ahead.append(app_id)
    return graph


def merge_wait_graphs(
    graphs: Iterable[Dict[int, List[int]]]
) -> Dict[int, List[int]]:
    """Union of per-shard wait-for graphs into one cross-shard graph.

    Application ids are global, so edges from different shards refer
    to the same nodes -- but a session may have at most one request in
    flight, hence at most one *outgoing* edge set, in exactly one
    shard.  A duplicate node across shards means that invariant broke
    somewhere upstream; merging would silently drop edges, so it is
    rejected loudly instead.

    The per-shard graphs must have been built with the *global*
    waiting set (see :func:`build_wait_for_graph`): with each shard's
    local set, a blocker waiting in a different shard would be pruned
    and the cross-shard edge severed.  With the global set, every
    waiter appears as a node in exactly one shard's graph and every
    cross-shard edge survives, so the merged graph contains every
    cross-shard cycle.
    """
    merged: Dict[int, List[int]] = {}
    for graph in graphs:
        for app_id, blockers in graph.items():
            if app_id in merged:
                raise LockManagerError(
                    f"app {app_id} is waiting in two shards at once; "
                    "wait-for graphs cannot be merged"
                )
            merged[app_id] = blockers
    return merged


def find_cycles_in_graph(graph: Dict[int, List[int]]) -> List[List[int]]:
    """Disjoint wait-for cycles in ``graph``, each as a list of app ids.

    Only waiting applications can appear in a cycle (non-waiting
    blockers have no outgoing edges).  Uses iterative DFS with an
    on-stack marker; each detected cycle's nodes are removed from
    further consideration so the returned cycles are disjoint.
    Fully-explored nodes are remembered across roots (``finished``),
    making a pass O(nodes + edges); removing nodes cannot create
    cycles, so a node proven cycle-free stays cycle-free after a
    cycle elsewhere is consumed.  Traversal order follows dict
    insertion order, which is deterministic for a deterministic
    simulation -- no sorting needed.
    """
    cycles: List[List[int]] = []
    consumed: Set[int] = set()
    finished: Set[int] = set()

    for root in graph:
        if root in consumed or root in finished:
            continue
        # iterative DFS tracking the current path
        path: List[int] = [root]
        on_path: Set[int] = {root}
        stack: List[Tuple[int, Iterator[int]]] = [(root, iter(graph[root]))]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if (
                    child in consumed
                    or child in finished
                    or child not in graph  # not waiting: not on a cycle
                ):
                    continue
                if child in on_path:
                    # found a cycle: the path suffix from child
                    start = path.index(child)
                    cycle = path[start:]
                    cycles.append(cycle)
                    consumed.update(cycle)
                    stack.clear()
                    advanced = True
                    break
                path.append(child)
                on_path.add(child)
                stack.append((child, iter(graph[child])))
                advanced = True
                break
            if not stack:
                break
            if not advanced:
                stack.pop()
                path.pop()
                on_path.discard(node)
                finished.add(node)
    return cycles


class DeadlockDetector:
    """Scans the wait-for graph every ``interval_s`` simulated seconds."""

    def __init__(self, manager: LockManager, interval_s: float = 10.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.manager = manager
        self.interval_s = interval_s
        self.stats = DetectorStats()
        manager.deadlock_detection = "periodic"

    # -- graph construction --------------------------------------------------

    def wait_for_graph(self) -> Dict[int, List[int]]:
        """This manager's cycle-relevant wait-for edges.

        See :func:`build_wait_for_graph` for the construction and its
        complexity guarantees.
        """
        return build_wait_for_graph(self.manager)

    def find_cycles(self) -> List[List[int]]:
        """Disjoint wait-for cycles, each as a list of app ids.

        See :func:`find_cycles_in_graph` for the DFS and its
        determinism guarantees.
        """
        return find_cycles_in_graph(self.wait_for_graph())

    # -- victim selection and resolution ------------------------------------

    def choose_victim(self, cycle: List[int]) -> int:
        """The cycle participant holding the fewest lock structures.

        Ties are broken by lowest application id.  The tie-break is part
        of the contract: it makes the choice a pure function of the
        cycle's *membership*, so the victim can never depend on the
        order in which the graph walk happened to enumerate the cycle
        (which optimization work is free to change).
        """
        return min(cycle, key=lambda app: (self.manager.app_slots(app), app))

    def check(self) -> int:
        """One detection pass; returns the number of victims rolled back."""
        self.stats.checks += 1
        victims = 0
        for cycle in self.find_cycles():
            self.stats.cycles_found += 1
            victim = self.choose_victim(cycle)
            cancelled = self.manager.cancel_wait(
                victim,
                DeadlockError(
                    f"deadlock detector: app {victim} chosen as victim of "
                    f"cycle {cycle}"
                ),
            )
            if cancelled:
                self.stats.victims.append(victim)
                self.manager.stats.deadlocks += 1
                victims += 1
        return victims

    def run(self, env):
        """DES process: check every ``interval_s`` forever."""
        while True:
            yield env.timeout(self.interval_s)
            self.check()
