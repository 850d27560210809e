"""The ``Partition`` surface: what the control plane asks of a lock table.

The paper arbitrates exactly one LOCKLIST with one controller.  The
live stacks split the lock *table* -- over shards in one process
(:mod:`repro.service.sharded`) or over forked workers
(:mod:`repro.service.workers`) -- but keep that single arbiter
(:mod:`repro.service.control`).  Everything the arbiter may ask of one
lock table is the ten ops of :data:`PARTITION_OPS`: sample its posture,
grant or reclaim whole 128 KB blocks, push MAXLOCKS, freeze it, read its
wait-for graph and cancel a deadlock victim, check it, close it.

:class:`LocalPartition` implements the ops once, over a
:class:`~repro.service.service.LockService` in this process.  The
in-process stacks hand it to the control plane directly; a worker
process dispatches the parent's control-pipe messages onto its own
instance, and the parent talks to it through
:class:`repro.service.workers.PipePartition` -- same ops, one pipe
round trip each.

Besides the ops, the control plane reads three things off a partition
handle: ``chain`` (block and slot counts: the physical chain here, the
parent's mirror for a forked partition), ``posture()`` (the latest
:meth:`occupancy` -- computed live here, as last sampled across a
pipe) and ``atomic`` (whether reads taken while holding the control
plane's condition form one consistent snapshot).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import DeadlockError, ServiceError
from repro.lockmgr.detector import build_wait_for_graph
from repro.service.service import LockService

#: The control ops a partition serves -- the allow-list a worker's
#: control loop dispatches on.
PARTITION_OPS = (
    "occupancy",
    "add_blocks",
    "release_blocks",
    "set_maxlocks",
    "freeze",
    "waiting",
    "graph",
    "victimize",
    "check",
    "close",
)


class WorkerDiedError(ServiceError):
    """A control-plane round trip hit a dead partition process."""


class LocalPartition:
    """:data:`PARTITION_OPS` over a :class:`LockService` in this process."""

    #: Ops are direct reads of live state: a caller holding the service
    #: condition sees one consistent snapshot across calls.
    atomic = True
    #: An in-process partition lives and dies with the stack.
    dead = False
    closed = False

    def __init__(self, idx: int, service: LockService) -> None:
        self.idx = idx
        self.service = service
        #: The MAXLOCKS fraction last pushed by :meth:`set_maxlocks`.  A
        #: worker's manager reads it (its arbiter is a pipe away); an
        #: in-process manager reads the live curve and ignores it.
        self.maxlocks_fraction = service.manager.maxlocks_fraction

    @property
    def chain(self):
        return self.service.chain

    def posture(self) -> Dict[str, Any]:
        return self.occupancy()

    # -- the ops -----------------------------------------------------------

    def occupancy(self) -> Dict[str, Any]:
        """Dirty-read posture snapshot (no locks: sampled, not exact)."""
        service = self.service
        chain = service.chain
        manager = service.manager
        stats = manager.stats
        return {
            "block_count": chain.block_count,
            "used_slots": chain.used_slots,
            "capacity_slots": chain.capacity_slots,
            "free_fraction": chain.free_fraction(),
            "entirely_free_blocks": chain.entirely_free_blocks(),
            "sessions": service.session_count(),
            "waiters": len(manager.waiting_apps()),
            "maxlocks_fraction": manager.maxlocks_fraction,
            "requests": stats.requests,
            "escalations": stats.escalations.count,
            "deadlocks": stats.deadlocks,
            "sync_growth_blocks": stats.sync_growth_blocks,
            "peak_used_slots": stats.peak_used_slots,
            "frozen": service.frozen_reason,
        }

    def add_blocks(self, count: int) -> int:
        with self.service._cond:  # noqa: SLF001 - the partition is its service
            self.chain.add_blocks(count)
            return self.chain.block_count

    def release_blocks(self, count: int) -> int:
        """Free up to ``count`` entirely-empty blocks; returns how many."""
        with self.service._cond:  # noqa: SLF001
            return self.chain.release_blocks(count, partial=True)

    def set_maxlocks(self, fraction: float) -> bool:
        # Checked before it is stored: a worker's manager re-reads the
        # stored fraction at every refresh, so one bad push would fail
        # every later lock request there.
        if not 0.0 < fraction <= 1.0:
            raise ServiceError(f"MAXLOCKS fraction {fraction!r} not in (0, 1]")
        self.maxlocks_fraction = fraction
        with self.service._cond:  # noqa: SLF001
            self.service.manager.refresh_maxlocks()
        return True

    def freeze(self, reason: str) -> bool:
        self.service.freeze_tuning(reason)
        return True

    def waiting(self) -> List[int]:
        manager = self.service.manager
        # Read WITHOUT the mutex when nobody waits: sweeps run at
        # sub-second intervals and almost all of them find an idle
        # table.  The dirty read can only delay detection -- a cycle's
        # waiters stay in the wait map until a victim is rolled back,
        # so the next sweep sees them.
        if not manager.has_waiters():
            return []
        with self.service._mutex:  # noqa: SLF001
            return sorted(manager.waiting_apps())

    def graph(
        self, waiting: Iterable[int]
    ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
        """This table's wait-for edges against the *global* waiting set,
        plus the slots each waiting application holds here."""
        waiting = set(waiting)
        manager = self.service.manager
        with self.service._mutex:  # noqa: SLF001
            graph = build_wait_for_graph(manager, waiting)
            slots = {app: manager.app_slots(app) for app in waiting}
        return graph, slots

    def victimize(self, victim: int, message: str) -> Tuple[bool, str]:
        """Cancel ``victim``'s wait with a :class:`DeadlockError`.

        Returns (cancelled, contended resource); False when the victim
        resumed since the sweep saw it waiting.
        """
        manager = self.service.manager
        with self.service._mutex:  # noqa: SLF001
            entry = manager._waiting_on.get(victim)  # noqa: SLF001
            resource = str(entry[0].resource) if entry is not None else ""
            cancelled = manager.cancel_wait(victim, DeadlockError(message))
            if cancelled:
                manager.stats.deadlocks += 1
        return cancelled, resource

    def check(self) -> int:
        """Verify the table's accounting; returns its block count."""
        self.service.check_invariants()
        return self.chain.block_count

    def close(self) -> Dict[str, Any]:
        """Close the service; returns the final posture."""
        self.service.close()
        return self.occupancy()


__all__ = ["PARTITION_OPS", "LocalPartition", "WorkerDiedError"]
