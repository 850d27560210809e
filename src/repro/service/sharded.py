"""Sharded lock service: per-shard lock tables, one global tuning loop.

The unsharded :class:`~repro.service.service.LockService` serializes
every request on a single mutex, so its throughput *fell* as threads
were added (the hot latch: 47.8 k -> 25.2 k req/s from 1 to 8 threads,
measured at f4fdd33).  This module partitions the resource space
across N independent lock managers:

* **Routing**: a request for table ``t`` (or any row of ``t``) goes to
  shard ``t % N``.  Row locks take their covering intent lock on the
  same table, so a single request never spans shards; uncontended
  requests on different shards never touch the same mutex.
* **Sessions** are global: :class:`ShardedLockService` owns the
  application-id space and lazily registers a session with a shard the
  first time a request routes there
  (:meth:`LockService.adopt_session`).  A per-session lock enforces the
  one-request-in-flight contract *globally* -- the cross-shard deadlock
  sweep's merged wait-for graph is only sound if a session waits in
  at most one shard.

Everything above the lock tables is the shared control plane
(:mod:`repro.service.control`): **memory** stays a single LOCKLIST the
paper's controller tunes through the ledger's aggregate chain
(:mod:`repro.service.ledger`), and **deadlocks** that span shards --
each shard keeps immediate detection for its own cycles, so any cycle
in the merged graph necessarily does -- are found by the
:class:`~repro.service.sweep.DeadlockSweep`, which holds every shard
condition (:class:`_AllShardConds`) while it reads.  The stack over this
facade is :class:`~repro.service.stack.ServiceStack` given a
:class:`ShardedServiceConfig`; its docstring has the lock ordering
protocol.

With ``shards=1`` the routing, the ledger split and the aggregate
chain all degenerate to pass-throughs and the stack reproduces the
unsharded stack's accounting exactly (asserted by the property tests).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ServiceClosedError, ServiceError
from repro.lockmgr.manager import LockManagerStats
from repro.lockmgr.modes import LockMode
from repro.service.clock import Clock, MonotonicClock
from repro.service.service import (
    LockService,
    ServiceStats,
    _USE_DEFAULT,
    take_id_block,
)
from repro.service.control import check_partitioned
from repro.service.stack import ServiceConfig, ServiceStack


def shard_of(table_id: int, shards: int) -> int:
    """The shard owning ``table_id`` and every row in it.

    Plain modulo over the integer table id: deterministic across
    processes (no reliance on ``hash()``, so PYTHONHASHSEED cannot
    change placement) and trivially computable by operators reading a
    trace.
    """
    return table_id % shards


@dataclass
class ShardedServiceConfig(ServiceConfig):
    """A :class:`ServiceConfig` plus the shard-layer knobs."""

    #: Number of lock-manager shards (1 = byte-equivalent to unsharded).
    shards: int = 4
    #: Wall-clock seconds between cross-shard deadlock sweeps.
    deadlock_interval_s: float = 0.25

    def __post_init__(self) -> None:
        check_partitioned(self, self.shards, "shards")
        super().__post_init__()


class _Session:
    """Global session registry entry.

    ``lock`` is acquired non-blocking around each request, enforcing
    one-in-flight per session across shards.  ``shard_ids`` is an
    immutable tuple replaced wholesale on adoption so concurrent
    readers (cancel from another thread) never see a mutating
    collection.
    """

    __slots__ = ("lock", "shard_ids")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.shard_ids: Tuple[int, ...] = ()


class _AllShardConds:
    """Acquire every shard condition, ascending by shard index.

    Duck-types the ``with service._cond:`` surface the
    :class:`TunerDaemon` uses, extended over N shards.  The underlying
    locks are RLocks, so a holder may re-enter any single shard's
    public API (freeze, close) without deadlocking itself.
    """

    def __init__(self, conds: Sequence[threading.Condition]) -> None:
        self._conds = list(conds)

    def __enter__(self) -> "_AllShardConds":
        for cond in self._conds:
            cond.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cond in reversed(self._conds):
            cond.release()


class ShardedLockService:
    """N :class:`LockService` shards behind one service facade.

    Exposes the same client surface as the unsharded service (session
    lifecycle, ``lock_row`` / ``lock_table`` / ``rollback`` / ``cancel``
    / ``release_read_lock``), so :class:`~repro.service.driver.LoadDriver`
    runs unchanged against it, plus what the stack needs of its service:
    ``_cond`` (every shard condition, ascending), ``session_count``,
    ``freeze_tuning`` and ``close``.
    """

    def __init__(
        self,
        shards: Sequence[LockService],
        *,
        clock: Optional[Clock] = None,
    ) -> None:
        if not shards:
            raise ServiceError("sharded service needs at least one shard")
        self.clock = clock or MonotonicClock()
        self.shards: List[LockService] = list(shards)
        self.num_shards = len(self.shards)
        self._cond = _AllShardConds([shard._cond for shard in self.shards])
        #: Session-lifecycle counters; request counters live in the
        #: shards (see :meth:`aggregate_stats`).
        self.stats = ServiceStats()
        self._slock = threading.Lock()
        self._sessions: Dict[int, _Session] = {}
        self._app_ids = itertools.count(1)
        self._closed = False
        #: Same contract as :attr:`LockService.borrow_return`: invoked
        #: once at :meth:`close` to return in-flight borrows to overflow.
        self.borrow_return = None

    # -- introspection -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def frozen_reason(self) -> Optional[str]:
        """Why tuning was frozen (shards freeze together), or None."""
        return self.shards[0].frozen_reason

    def session_count(self) -> int:
        """Open sessions across the whole service (feeds minLockMemory)."""
        return len(self._sessions)

    def waiting_sessions(self) -> Set[int]:
        waiting: Set[int] = set()
        for shard in self.shards:
            waiting |= shard.waiting_sessions()
        return waiting

    def check_invariants(self) -> None:
        """Every shard's accounting, plus the adoption index."""
        with self._cond:
            for shard in self.shards:
                shard.check_invariants()
            for app_id, entry in list(self._sessions.items()):
                for idx in entry.shard_ids:
                    if app_id not in self.shards[idx]._sessions:
                        raise ServiceError(
                            f"session {app_id} routed to shard {idx} "
                            "but the shard never adopted it"
                        )

    def snapshot_report(self, max_resources: int = 20) -> str:
        sections = []
        for idx, shard in enumerate(self.shards):
            sections.append(f"-- shard {idx} --")
            sections.append(shard.snapshot_report(max_resources))
        return "\n".join(sections)

    def aggregate_stats(self) -> ServiceStats:
        """Point-in-time service counters summed over the shards.

        Session counters come from this facade (sessions are global and
        never counted by the shards -- adoption is deliberately
        invisible to shard stats); request counters sum.
        """
        total = ServiceStats(
            sessions_opened=self.stats.sessions_opened,
            sessions_closed=self.stats.sessions_closed,
            peak_sessions=self.stats.peak_sessions,
        )
        for shard in self.shards:
            total.requests += shard.stats.requests
            total.granted += shard.stats.granted
            total.timeouts += shard.stats.timeouts
            total.cancellations += shard.stats.cancellations
            total.failures += shard.stats.failures
        return total

    def manager_stats(self) -> LockManagerStats:
        """Merged lock-manager counters (snapshot, not a live view)."""
        return LockManagerStats.merged(
            [shard.manager.stats for shard in self.shards]
        )

    # -- session lifecycle -------------------------------------------------

    def open_session(self) -> int:
        return self._open()

    def reserve_app_ids(self, count: int) -> range:
        """See :meth:`LockService.reserve_app_ids`."""
        with self._slock:
            if self._closed:
                raise ServiceClosedError("lock service is closed")
            return take_id_block(self._app_ids, count)

    def open_reserved(self, app_id: int) -> None:
        """See :meth:`LockService.open_reserved`."""
        self._open(app_id)

    def _open(self, app_id: Optional[int] = None) -> int:
        """Register ``app_id`` (default: the next id) as an open session."""
        with self._slock:
            if self._closed:
                raise ServiceClosedError("lock service is closed")
            if app_id is None:
                app_id = next(self._app_ids)
            elif app_id in self._sessions:
                raise ServiceError(f"session {app_id} is already registered")
            self._sessions[app_id] = _Session()
            self.stats.sessions_opened += 1
            if len(self._sessions) > self.stats.peak_sessions:
                self.stats.peak_sessions = len(self._sessions)
            return app_id

    def close_session(self, app_id: int) -> int:
        """Release the session's locks in every adopted shard."""
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        if not entry.lock.acquire(blocking=False):
            raise ServiceError(
                f"session {app_id} still has a request in flight"
            )
        # The lock is never released: the session is retiring, and
        # holding it fails any late request racing the close.
        freed = 0
        for idx in sorted(entry.shard_ids):
            freed += self.shards[idx].close_session(app_id)
        with self._slock:
            del self._sessions[app_id]
            self.stats.sessions_closed += 1
        return freed

    @contextmanager
    def session(self) -> Iterator[int]:
        app_id = self.open_session()
        try:
            yield app_id
        finally:
            self.close_session(app_id)

    # -- routing -----------------------------------------------------------

    def _route(self, app_id: int, table_id: int) -> Tuple[_Session, LockService]:
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        if not entry.lock.acquire(blocking=False):
            raise ServiceError(
                f"session {app_id} already has a request in flight"
            )
        try:
            idx = table_id % self.num_shards
            shard = self.shards[idx]
            if idx not in entry.shard_ids:
                shard.adopt_session(app_id)
                entry.shard_ids = entry.shard_ids + (idx,)
        except BaseException:
            entry.lock.release()
            raise
        return entry, shard

    # -- locking API -------------------------------------------------------

    def lock_row(
        self,
        app_id: int,
        table_id: int,
        row_id: int,
        mode: LockMode,
        timeout_s: object = _USE_DEFAULT,
    ) -> None:
        """Route to the owning shard; semantics of
        :meth:`LockService.lock_row`."""
        entry, shard = self._route(app_id, table_id)
        try:
            shard.lock_row(app_id, table_id, row_id, mode, timeout_s)
        finally:
            entry.lock.release()

    def lock_table(
        self,
        app_id: int,
        table_id: int,
        mode: LockMode,
        timeout_s: object = _USE_DEFAULT,
    ) -> None:
        entry, shard = self._route(app_id, table_id)
        try:
            shard.lock_table(app_id, table_id, mode, timeout_s)
        finally:
            entry.lock.release()

    def rollback(self, app_id: int) -> int:
        """Release the session's locks everywhere, keeping the session."""
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        freed = 0
        for idx in sorted(entry.shard_ids):
            freed += self.shards[idx].rollback(app_id)
        return freed

    def release_read_lock(self, app_id: int, table_id: int, row_id: int) -> bool:
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        idx = table_id % self.num_shards
        if idx not in entry.shard_ids:
            return False  # never locked anything there
        return self.shards[idx].release_read_lock(app_id, table_id, row_id)

    def cancel(self, app_id: int, message: str = "cancelled") -> bool:
        """Withdraw a pending wait, wherever it is parked.

        A session waits in at most one shard (one-in-flight is global),
        so the first shard that confirms the cancel is the only one
        that ever will.
        """
        entry = self._sessions.get(app_id)
        if entry is None:
            return False
        for idx in sorted(entry.shard_ids):
            if self.shards[idx].cancel(app_id, message):
                return True
        return False

    # -- tuning hooks ------------------------------------------------------

    def freeze_tuning(self, reason: str) -> None:
        """Degrade every shard to the static-LOCKLIST configuration."""
        with self._cond:
            for shard in self.shards:
                shard.freeze_tuning(reason)

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Close every shard, then return in-flight borrows to overflow.

        Ordering matters exactly as in the unsharded close: cancelling
        the shards' pending waits first frees their structures, so the
        borrow-return hook sees every reclaimable block.
        """
        with self._slock:
            if self._closed:
                return
            self._closed = True
        with self._cond:
            for shard in self.shards:
                shard.close()
            if self.borrow_return is not None:
                self.borrow_return()

    def __repr__(self) -> str:
        return (
            f"ShardedLockService(shards={self.num_shards}, "
            f"sessions={len(self._sessions)})"
        )


class ShardedServiceStack(ServiceStack):
    """:class:`ServiceStack` whose default config is the sharded one."""

    def __init__(
        self,
        config: Optional[ShardedServiceConfig] = None,
        *,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(config or ShardedServiceConfig(), clock=clock)
