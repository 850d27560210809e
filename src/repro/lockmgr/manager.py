"""The lock manager: acquisition, convoys, escalation, adaptive MAXLOCKS.

This is the substrate the self-tuning controller acts on.  It combines:

* the 128 KB block chain for lock-structure storage (section 2.2),
* multi-granularity row/table locking with FIFO convoys (Figure 3),
* **synchronous growth**: when the chain has no free structure the
  manager asks its ``growth_provider`` (the tuning policy) for more
  blocks, allocated on demand from database overflow memory
  (section 3.3),
* **lock escalation**: triggered either when an application exceeds
  ``lockPercentPerApplication`` of total lock memory (MAXLOCKS) or when
  lock memory is full and cannot grow (section 2.2 / 3.5),
* the ``refreshPeriodForAppPercent`` discipline: the MAXLOCKS fraction
  is re-computed every 0x80 lock requests and on every resize
  (section 3.5).

Locking entry points are *generators*: client processes drive them with
``yield from`` so multi-step waits (intent lock, then row lock, possibly
an escalation wait in between) compose naturally in the DES.

Deadlocks are detected at wait time via a wait-for graph; the requester
is chosen as victim and sees :class:`repro.errors.DeadlockError`, which
client code answers with a rollback -- mirroring DB2's deadlock
detector.

Threading contract
------------------

The manager itself is *not* thread-safe; it assumes exactly one flow of
control mutates it at a time.  Two harnesses satisfy that contract:

* the DES, where processes interleave only at ``yield`` points on a
  single thread, and
* :class:`repro.service.LockService`, which runs every entry point --
  and every generator resumption -- under one mutex, parking request
  threads on a condition variable while their wait events are pending.

For that second harness the manager's blocking surface is deliberately
narrow: the only suspension points are ``yield``s of events created via
``self.env`` inside :meth:`_wait`, and the only cross-cutting callbacks
are ``growth_provider`` / ``maxlocks_provider`` / ``tracer`` / ``obs``,
all invoked synchronously under the caller's control.  Code added here
must preserve both properties (no hidden blocking, no re-entrant
callbacks that acquire locks).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.engine.des import Environment
from repro.errors import DeadlockError, LockManagerError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.escalation import EscalationOutcome, EscalationStats
from repro.lockmgr.locks import AppLocks, HeldLock, LockObject, Waiter
from repro.lockmgr.modes import LockMode, covers, intent_mode_for_row, supremum
from repro.lockmgr.resources import (
    ROW_CODE,
    ResourceId,
    row_resource,
    table_resource,
)
from repro.units import LOCK_SIZE_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instruments import LockManagerInstruments

#: Paper Table 1: lockPercentPerApplication refresh period, 0x80 requests.
REFRESH_PERIOD_FOR_APP_PERCENT = 0x80


class LockListFullError(LockManagerError):
    """Lock memory is exhausted and escalation could not free any.

    The analogue of DB2's SQL0912N; transactions receiving it roll back.
    """


class LockTimeoutError(LockManagerError):
    """A lock wait exceeded the configured LOCKTIMEOUT.

    The analogue of DB2's SQL0911N reason code 68; transactions
    receiving it roll back.
    """


@dataclass
class LockManagerStats:
    """Aggregate counters exposed to metrics and tests."""

    requests: int = 0
    immediate_grants: int = 0
    waits: int = 0
    wait_time_total: float = 0.0
    deadlocks: int = 0
    lock_timeouts: int = 0
    #: Waits withdrawn via :meth:`LockManager.cancel_wait` with a
    #: non-deadlock, non-timeout reason (live-service cancellation).
    cancelled_waits: int = 0
    lock_list_full_errors: int = 0
    sync_growth_blocks: int = 0
    peak_used_slots: int = 0
    escalations: EscalationStats = field(default_factory=EscalationStats)

    @classmethod
    def merged(cls, parts: "list[LockManagerStats]") -> "LockManagerStats":
        """Point-in-time aggregate over several managers (sharding).

        Every counter sums; ``peak_used_slots`` sums too, because each
        shard's chain is disjoint memory -- the shards' simultaneous
        peaks bound the aggregate peak from above, which is the
        conservative reading for capacity planning.  The result is a
        snapshot, not a live view.
        """
        merged = cls()
        for stats in parts:
            merged.requests += stats.requests
            merged.immediate_grants += stats.immediate_grants
            merged.waits += stats.waits
            merged.wait_time_total += stats.wait_time_total
            merged.deadlocks += stats.deadlocks
            merged.lock_timeouts += stats.lock_timeouts
            merged.cancelled_waits += stats.cancelled_waits
            merged.lock_list_full_errors += stats.lock_list_full_errors
            merged.sync_growth_blocks += stats.sync_growth_blocks
            merged.peak_used_slots += stats.peak_used_slots
        merged.escalations = EscalationStats.merged(
            [stats.escalations for stats in parts]
        )
        return merged


class LockManager:
    """Multi-granularity lock manager over a :class:`LockBlockChain`.

    Parameters
    ----------
    env:
        The DES environment (supplies the clock and wait events).
    chain:
        Block chain providing lock-structure storage.
    growth_provider:
        Optional callback ``(blocks_wanted) -> blocks_granted`` invoked
        when a request finds no free structure; the tuning policy uses
        it to grow lock memory synchronously from overflow.
    maxlocks_provider:
        Optional callback ``() -> fraction`` returning the current
        lockPercentPerApplication as a fraction in (0, 1]; consulted on
        every resize and every ``refresh_period`` requests.
    maxlocks_fraction:
        Static fraction used when no provider is given (DB2's historic
        default MAXLOCKS was 10 %, i.e. 0.10).
    """

    def __init__(
        self,
        env: Environment,
        chain: LockBlockChain,
        growth_provider: Optional[Callable[[int], int]] = None,
        maxlocks_provider: Optional[Callable[[], float]] = None,
        maxlocks_fraction: float = 0.98,
        refresh_period: int = REFRESH_PERIOD_FOR_APP_PERCENT,
        lock_timeout_s: Optional[float] = None,
    ) -> None:
        if not 0.0 < maxlocks_fraction <= 1.0:
            raise ValueError(
                f"maxlocks_fraction must be in (0, 1], got {maxlocks_fraction}"
            )
        if refresh_period <= 0:
            raise ValueError(f"refresh_period must be positive, got {refresh_period}")
        if lock_timeout_s is not None and lock_timeout_s <= 0:
            raise ValueError(
                f"lock_timeout_s must be positive or None, got {lock_timeout_s}"
            )
        self.env = env
        self.chain = chain
        self.growth_provider = growth_provider
        self.maxlocks_provider = maxlocks_provider
        #: ``maxlocks_limit_slots()`` memo; it is a function of the
        #: fraction and the chain's capacity only, so it is recomputed
        #: when either changes instead of on every request.
        self._limit_slots = 0
        self._limit_capacity = -1
        self.maxlocks_fraction = maxlocks_fraction
        self.refresh_period = refresh_period
        #: LOCKTIMEOUT: maximum lock-wait time before the request fails
        #: with :class:`LockTimeoutError` (None = wait forever, DB2's
        #: default of -1).
        self.lock_timeout_s = lock_timeout_s
        #: Applications that prefer escalation over lock-memory growth
        #: (the paper's section 6.1 future-work extension; see
        #: :meth:`set_escalation_preference`).
        self._escalation_preferred: set = set()
        #: Optional structured tracing (repro.lockmgr.tracing.LockTrace).
        self.tracer = None
        #: Optional hot-path metrics
        #: (repro.obs.instruments.LockManagerInstruments).  Like the
        #: tracer, disabled costs one ``is None`` check per probe site.
        self.obs: Optional["LockManagerInstruments"] = None
        #: Optional wait-event profiler (repro.obs.waits); records every
        #: lock wait with blocker attribution plus sync-growth stalls.
        #: Same contract: disabled costs one ``is None`` check per site.
        self.wait_profiler = None
        #: Optional incident recorder (repro.obs.incidents); captures
        #: deadlock victims and escalations with forensic context.
        self.incidents = None
        #: "immediate" (default): a cycle-closing request fails on the
        #: spot.  "periodic": cycles persist until a
        #: :class:`repro.lockmgr.detector.DeadlockDetector` pass picks a
        #: victim (DB2's DLCHKTIME model).
        self.deadlock_detection = "immediate"
        self.stats = LockManagerStats()
        self._objects: Dict[ResourceId, LockObject] = {}
        #: app -> its one record: held set, rows by table, row count,
        #: first-row stamp and slot charge (see :class:`AppLocks`).
        self._apps: Dict[int, AppLocks] = {}
        #: Source of ``AppLocks.row_seq`` stamps.
        self._row_seq_counter = 0
        #: app -> the request it is parked on.  Kept apart from the
        #: per-app record because its *key set* is what readers want:
        #: the deadlock detector prunes its graph by membership and the
        #: service polls ``has_waiters`` as a dirty ``len``.
        self._waiting_on: Dict[int, Tuple[LockObject, Waiter]] = {}
        #: Objects with a non-empty waiter queue, maintained on enqueue
        #: (here) and dequeue (in ``_pump``): the deadlock detector and
        #: snapshot reports read it instead of scanning every object.
        self._contended: Dict[ResourceId, LockObject] = {}
        self._requests_since_refresh = 0

    # -- introspection -----------------------------------------------------

    @property
    def used_slots(self) -> int:
        return self.chain.used_slots

    @property
    def used_bytes(self) -> int:
        return self.chain.used_slots * LOCK_SIZE_BYTES

    @property
    def allocated_pages(self) -> int:
        return self.chain.allocated_pages

    def app_slots(self, app_id: int) -> int:
        """Lock structures currently charged to ``app_id``."""
        rec = self._apps.get(app_id)
        return rec.slots if rec is not None else 0

    def app_row_lock_count(self, app_id: int) -> int:
        """Row locks currently held by ``app_id`` (across all tables)."""
        rec = self._apps.get(app_id)
        return rec.row_count if rec is not None else 0

    def holder_mode(self, app_id: int, resource: ResourceId) -> Optional[LockMode]:
        obj = self._objects.get(resource)
        return obj.holder_mode(app_id) if obj else None

    def waiting_apps(self) -> Set[int]:
        return set(self._waiting_on)

    def has_waiters(self) -> bool:
        """True when any application is enqueued (safe as a dirty read:
        a ``len`` of the wait map, no iteration)."""
        return len(self._waiting_on) > 0

    def contended_objects(self) -> Dict[ResourceId, LockObject]:
        """Live view of the objects with queued waiters (do not mutate)."""
        return self._contended

    @property
    def maxlocks_fraction(self) -> float:
        """lockPercentPerApplication as a fraction in (0, 1]."""
        return self._maxlocks_fraction

    @maxlocks_fraction.setter
    def maxlocks_fraction(self, fraction: float) -> None:
        self._maxlocks_fraction = fraction
        self._limit_capacity = -1  # forces the limit to be recomputed

    def maxlocks_limit_slots(self) -> int:
        """Structures one application may hold before escalation triggers."""
        capacity = self.chain.capacity_slots
        if capacity != self._limit_capacity:
            self._limit_capacity = capacity
            self._limit_slots = max(1, int(self._maxlocks_fraction * capacity))
        return self._limit_slots

    # -- MAXLOCKS refresh discipline (section 3.5) ---------------------------

    def refresh_maxlocks(self) -> None:
        """Re-read lockPercentPerApplication from the provider."""
        if self.maxlocks_provider is not None:
            fraction = float(self.maxlocks_provider())
            if not 0.0 < fraction <= 1.0:
                raise LockManagerError(
                    f"maxlocks provider returned invalid fraction {fraction}"
                )
            self.maxlocks_fraction = fraction
        self._requests_since_refresh = 0

    def _tick_refresh(self) -> None:
        self._requests_since_refresh += 1
        if self._requests_since_refresh >= self.refresh_period:
            self.refresh_maxlocks()

    def _trace(
        self,
        kind: str,
        app_id: int,
        detail: str = "",
        resource: str = "",
        value: float = 0.0,
    ) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.env.now, kind, app_id, detail, resource, value)

    def _record_wait(self, duration: float) -> None:
        """Account one finished lock wait (any exit: grant, deadlock,
        timeout)."""
        self.stats.wait_time_total += duration
        if self.obs is not None:
            self.obs.wait_latency.observe(duration)

    # -- public locking API ---------------------------------------------------

    def lock_table(self, app_id: int, table_id: int, mode: LockMode):
        """Generator: acquire a table lock (drive with ``yield from``)."""
        yield from self._acquire(app_id, table_resource(table_id), mode)

    def lock_row(self, app_id: int, table_id: int, row_id: int, mode: LockMode):
        """Generator: acquire a row lock plus the covering intent lock.

        If the application's table lock already covers the requested row
        mode (e.g. after an escalation) no row structure is allocated.
        """
        table_res = table_resource(table_id)
        intent = intent_mode_for_row(mode)
        # Fast path: the covering intent lock is usually already held.
        tobj = self._objects.get(table_res)
        theld = tobj.held_by(app_id) if tobj is not None else None
        if theld is not None and covers(theld.mode, intent):
            theld.count += 1
            self.stats.requests += 1
            self.stats.immediate_grants += 1
            self._tick_refresh()
            table_mode = theld.mode
        else:
            yield from self._acquire(app_id, table_res, intent)
            table_mode = self.holder_mode(app_id, table_res)
        if table_mode is not None and covers(table_mode, mode):
            return
        yield from self._acquire(app_id, row_resource(table_id, row_id), mode)

    def lock_row_fast(self, app_id: int, table_id: int, row_id: int, mode: LockMode) -> bool:
        """Non-blocking attempt at :meth:`lock_row`'s immediate-grant path.

        Returns True when the row lock (and covering intent lock) was
        granted with accounting **byte-identical** to driving the
        :meth:`lock_row` generator to completion: same counter bumps,
        same refresh ticks, same structures charged.  This covers fresh
        grants, re-grants of covered locks, and immediate *conversions*
        (e.g. S->X on a held row with no incompatible co-holders --
        conversions jump the waiter queue exactly as :meth:`_convert`
        does).  Returns False -- having mutated *nothing* -- whenever
        the request could wait, escalate, grow or trace, so the caller
        falls back to the generator.  The two-phase shape (plan both
        the table and row steps, then commit) is what keeps the
        mutate-nothing contract: no step is applied until both are
        known to complete immediately.  The live service calls this
        under its mutex to skip generator construction on the
        (dominant) immediate path; the DES always drives the generator.
        """
        if self.tracer is not None:
            return False  # slow path keeps the trace stream canonical
        objects = self._objects
        table_res = table_resource(table_id)
        tobj = objects.get(table_res)
        theld = tobj.held_by(app_id) if tobj is not None else None
        intent = mode._intent  # type: ignore[attr-defined]
        # -- plan the table step --
        t_convert = False
        if theld is not None:
            table_mode = theld.mode
            if not table_mode._covers_mask & intent._bit:  # type: ignore[attr-defined]
                if not tobj.others_compatible(app_id, intent):
                    return False  # the conversion would wait
                # conversion: queue-jumps like _convert, needs no slot
                t_convert = True
                table_mode = supremum(table_mode, intent)
            if table_mode._covers_mask & mode._bit:  # type: ignore[attr-defined]
                # The table lock (already or once strengthened) covers
                # the row access: the generator stops after the table step.
                self.stats.requests += 1
                self.stats.immediate_grants += 1
                self._tick_refresh()
                if t_convert:
                    tobj.upgrade_grant(app_id, intent)  # bumps theld.count
                else:
                    theld.count += 1
                return True
            need = 0
        else:
            if tobj is not None and (
                tobj.waiters or not tobj.others_compatible(app_id, intent)
            ):
                return False  # the intent grant itself would wait
            if intent._covers_mask & mode._bit:  # type: ignore[attr-defined]
                return False  # an IS/IX "row" request ends at the intent
            need = 1
        # -- plan the row step --
        res = row_resource(table_id, row_id)
        obj = objects.get(res)
        held = obj.held_by(app_id) if obj is not None else None
        r_convert = False
        if held is not None:
            if theld is None:
                return False  # row held without intent: slow path
            if not held.mode._covers_mask & mode._bit:  # type: ignore[attr-defined]
                if not obj.others_compatible(app_id, mode):
                    return False  # the conversion would wait
                r_convert = True
        else:
            if obj is not None and (
                obj.waiters or not obj.others_compatible(app_id, mode)
            ):
                return False  # the row grant would wait
            need += 1
        chain = self.chain
        rec = self._apps.get(app_id)
        if need:
            if chain.capacity_slots - chain.used_slots < need:
                return False  # sync growth / escalation: slow path
            limit = (
                self._limit_slots
                if chain.capacity_slots == self._limit_capacity
                else self.maxlocks_limit_slots()
            )
            if rec is None:
                if need > limit:
                    return False  # would escalate: slow path
                # The last planning step: nothing below can refuse.
                rec = self._apps[app_id] = AppLocks()
            elif rec.slots + need > limit:
                return False  # would escalate: slow path
        # Commit: from here the outcome is the generator's, verbatim --
        # _acquire's ticks, _charge_slot and the table's _note_held (one
        # set add), written out; the row goes through _note_held.
        stats = self.stats
        stats.requests += 2
        stats.immediate_grants += 2
        ticks = self._requests_since_refresh + 2
        if ticks < self.refresh_period:
            self._requests_since_refresh = ticks
        else:
            self._tick_refresh()
            self._tick_refresh()
        # A fresh object is created around its grant: add_grant's
        # duplicate check and holder-shape dispatch have nothing to decide.
        if theld is None:
            if tobj is None:
                objects[table_res] = LockObject(
                    table_res, HeldLock(app_id, intent, 1, chain.allocate_slot())
                )
            else:
                tobj.add_grant(app_id, intent, chain.allocate_slot())
            rec.slots += 1
            rec.held.add(table_res)
        elif t_convert:
            tobj.upgrade_grant(app_id, intent)  # bumps theld.count
        else:
            theld.count += 1
        if held is not None:
            if r_convert:
                obj.upgrade_grant(app_id, mode)  # bumps held.count
            else:
                held.count += 1
            return True
        if obj is None:
            held = HeldLock(app_id, mode, 1, chain.allocate_slot())
            objects[res] = LockObject(res, held)
        else:
            held = obj.add_grant(app_id, mode, chain.allocate_slot())
        rec.slots += 1
        if chain.used_slots > stats.peak_used_slots:
            stats.peak_used_slots = chain.used_slots
        self._note_held(rec, res, held)
        return True

    def release_all(self, app_id: int) -> int:
        """Release every lock held or awaited by ``app_id`` (strict 2PL).

        Returns the number of lock structures freed.  Called at commit
        and at rollback; also cleans up queued waiters, so it is safe to
        call after a :class:`DeadlockError`.
        """
        freed = 0
        # Cancel queued waits first (rollback while enqueued elsewhere).
        entry = self._waiting_on.pop(app_id, None)
        if entry is not None:
            obj, _waiter = entry
            for waiter in obj.remove_waiter(app_id):
                if waiter.block is not None:
                    self.chain.free_slot(waiter.block)
                    self._uncharge_slot(app_id)
                    freed += 1
            if self.wait_profiler is not None:
                # The app was parked when its session unwound; close the
                # open wait so quiesce leaves no dangling lock wait.
                self.wait_profiler.end_lock_wait(app_id, "cancelled")
            self._pump(obj)
            self._gc_object(obj)
        # Bulk path: the application's record is discarded wholesale,
        # so the per-resource surgery of _release_one/_forget_held
        # (held-set discard, row-table pruning, per-slot uncharge) would
        # be pure churn.  The same invariants are checked against the
        # same end state.
        rec = self._apps.pop(app_id, None)
        if rec is None:
            return freed  # nothing charged: nothing held
        rows_released = 0
        held_frees = 0
        objects = self._objects
        free_slot = self.chain.free_slot
        for resource in rec.held:
            obj = objects.get(resource)
            if obj is None:
                raise LockManagerError(f"app {app_id} does not hold {resource}")
            held = obj.sole
            if held is not None and held.app_id == app_id and not obj.waiters:
                # The usual case: the object dies with its only grant, so
                # it is dropped as it is instead of being emptied first.
                del objects[resource]
                obj = None
            else:
                held = obj.remove_grant(app_id)
            if held.block is not None:
                free_slot(held.block)
                held_frees += 1
            if resource[0] == ROW_CODE:
                rows_released += 1
            if obj is not None:
                if obj.waiters:
                    self._pump(obj)
                if obj.sole is None and not obj.shared and not obj.waiters:
                    del objects[resource]
        freed += held_frees
        if rec.row_count != rows_released:
            raise LockManagerError(
                f"app {app_id} row-lock accounting nonzero after release_all"
            )
        # The waiter section above already uncharged its frees, so the
        # remaining per-app slot charge must equal the held-block frees.
        if rec.slots != held_frees:
            raise LockManagerError(
                f"app {app_id} slot accounting nonzero after release_all: "
                f"{rec.slots - held_frees}"
            )
        if self.tracer is not None and freed:
            self._trace("release", app_id, f"{freed} structures", value=float(freed))
        return freed

    # -- core acquisition ---------------------------------------------------------

    def _acquire(self, app_id: int, resource: ResourceId, mode: LockMode):
        self.stats.requests += 1
        self._tick_refresh()
        obj = self._objects.get(resource)
        held = obj.held_by(app_id) if obj is not None else None
        if held is not None:
            if covers(held.mode, mode):
                held.count += 1
                self.stats.immediate_grants += 1
                return
            yield from self._convert(app_id, obj, mode)
            return
        if (
            self.chain.free_slots == 0
            or self.app_slots(app_id) + 1 > self.maxlocks_limit_slots()
        ):
            yield from self._ensure_slot_available(app_id, resource)
            # Escalation inside _ensure_slot_available may have granted
            # this application a covering table lock; re-check before
            # allocating a structure.
            if resource[0] == ROW_CODE:
                table_mode = self.holder_mode(app_id, resource.table())
                if table_mode is not None and covers(table_mode, mode):
                    self.stats.immediate_grants += 1
                    return
            obj = self._objects.get(resource)  # may have come or gone meanwhile
            held = obj.held_by(app_id) if obj is not None else None
            if held is not None:  # appeared while we escalated or waited
                if covers(held.mode, mode):
                    held.count += 1
                    self.stats.immediate_grants += 1
                    return
                yield from self._convert(app_id, obj, mode)
                return
        block = self.chain.allocate_slot()
        rec = self._charge_slot(app_id)
        if self.chain.used_slots > self.stats.peak_used_slots:
            self.stats.peak_used_slots = self.chain.used_slots
        if obj is None:
            # Only now that a structure is secured: a refused request
            # must not leave an idle object behind.
            obj = self._objects[resource] = LockObject(resource)
        if not obj.waiters and obj.others_compatible(app_id, mode):
            held = obj.add_grant(app_id, mode, block)
            self._note_held(rec, resource, held)
            self.stats.immediate_grants += 1
            if self.tracer is not None:
                self._trace("grant", app_id, f"{mode.name} {resource}", str(resource))
            return
        waiter = Waiter(
            app_id, mode, self.env.event(), block=block,
            converting=False, enqueued_at=self.env.now,
        )
        obj.enqueue(waiter)
        self._contended[resource] = obj
        # No _note_held here: a waited grant is recorded by _pump, the
        # only place the wait event can succeed.
        yield from self._wait(app_id, obj, waiter)

    def _convert(self, app_id: int, obj: LockObject, mode: LockMode):
        """Strengthen an already-held lock (no new structure needed)."""
        if obj.others_compatible(app_id, mode):
            obj.upgrade_grant(app_id, mode)
            self.stats.immediate_grants += 1
            if self.tracer is not None:
                self._trace("convert", app_id, f"-> {mode.name} {obj.resource}", str(obj.resource))
            return
        waiter = Waiter(
            app_id, mode, self.env.event(), block=None,
            converting=True, enqueued_at=self.env.now,
        )
        obj.enqueue(waiter)
        self._contended[obj.resource] = obj
        yield from self._wait(app_id, obj, waiter)

    def cancel_wait(
        self, app_id: int, exc: BaseException, reason: str = "deadlock"
    ) -> bool:
        """Withdraw ``app_id``'s pending request and fail it with ``exc``.

        Used by the periodic deadlock detector to roll back a victim and
        by the live service layer for per-request deadlines and client
        cancellation (``reason`` of ``"timeout"`` or ``"cancel"``, which
        is also the trace-event kind and selects the stats counter).
        Returns False when the application is not currently waiting --
        including when its request was *granted but not yet resumed*
        (the grant event already fired but the waiting process/thread
        has not run): the wait ended when :meth:`_pump` granted it, and
        cancelling then would double-free the structure the grant now
        owns, so the grant wins and the cancel is a no-op.
        """
        entry = self._waiting_on.pop(app_id, None)
        if entry is None:
            return False
        obj, waiter = entry
        obj.remove_waiter(app_id)
        if waiter.block is not None:
            self.chain.free_slot(waiter.block)
            self._uncharge_slot(app_id)
        self._pump(obj)
        self._gc_object(obj)
        if reason == "timeout":
            self.stats.lock_timeouts += 1
            self._record_wait(self.env.now - waiter.enqueued_at)
        elif reason != "deadlock":
            self.stats.cancelled_waits += 1
            self._record_wait(self.env.now - waiter.enqueued_at)
        if self.wait_profiler is not None:
            self.wait_profiler.end_lock_wait(
                app_id,
                "timeout" if reason == "timeout"
                else "deadlock" if reason == "deadlock"
                else "cancelled",
            )
        if self.tracer is not None:
            self._trace(
                reason, app_id,
                f"victim on {obj.resource}" if reason == "deadlock"
                else f"{waiter.mode.name} {obj.resource} withdrawn",
                str(obj.resource), self.env.now - waiter.enqueued_at,
            )
        waiter.event.fail(exc)
        return True

    def _wait(self, app_id: int, obj: LockObject, waiter: Waiter):
        """Suspend until ``waiter`` is granted; detects deadlock first
        (in immediate mode)."""
        self._waiting_on[app_id] = (obj, waiter)
        if self.deadlock_detection == "immediate" and self._creates_deadlock(
            app_id, obj, waiter
        ):
            # Walk the cycle while the waiter is still enqueued (the
            # wait-for edge disappears with the cleanup below).
            cycle = (
                self._find_cycle(app_id, obj, waiter)
                if self.incidents is not None
                else []
            )
            del self._waiting_on[app_id]
            obj.remove_waiter(app_id)
            if waiter.block is not None:
                self.chain.free_slot(waiter.block)
                self._uncharge_slot(app_id)
            self._pump(obj)
            self._gc_object(obj)
            self.stats.deadlocks += 1
            if self.incidents is not None:
                self.incidents.record_deadlock(
                    self, app_id, obj.resource, cycle,
                    f"immediate check: {waiter.mode.name} request on "
                    f"{obj.resource} closes a wait-for cycle",
                )
            if self.tracer is not None:
                self._trace("deadlock", app_id, f"{waiter.mode.name} {obj.resource}", str(obj.resource))
            raise DeadlockError(
                f"app {app_id} requesting {waiter.mode.name} on {obj.resource} "
                "would close a wait-for cycle"
            )
        self.stats.waits += 1
        if self.wait_profiler is not None:
            blockers = obj.blockers_of(waiter)
            blocker = blockers[0] if blockers else None
            held = obj.held_by(blocker) if blocker is not None else None
            self.wait_profiler.begin_lock_wait(
                app_id,
                str(obj.resource),
                waiter.mode.name,
                blocker=blocker,
                blocker_mode=held.mode.name if held is not None else "queued",
                depth=self._wait_depth(blocker) if blocker is not None else 0,
            )
        if self.tracer is not None:
            self._trace("wait-begin", app_id, f"{waiter.mode.name} {obj.resource}", str(obj.resource))
        started = self.env.now
        if self.lock_timeout_s is None:
            try:
                yield waiter.event
            except DeadlockError:
                # asynchronous victimization by the periodic detector;
                # cancel_wait already cleaned up the queue state (and
                # closed the wait event; this end is its no-op backstop)
                self._record_wait(self.env.now - started)
                if self.wait_profiler is not None:
                    self.wait_profiler.end_lock_wait(app_id, "deadlock")
                raise
        else:
            timeout = self.env.timeout(self.lock_timeout_s)
            try:
                yield self.env.any_of([waiter.event, timeout])
            except DeadlockError:
                self._record_wait(self.env.now - started)
                if self.wait_profiler is not None:
                    self.wait_profiler.end_lock_wait(app_id, "deadlock")
                raise
            if not waiter.event.triggered:
                # LOCKTIMEOUT expired first: withdraw the request.
                self._waiting_on.pop(app_id, None)
                obj.remove_waiter(app_id)
                if waiter.block is not None:
                    self.chain.free_slot(waiter.block)
                    self._uncharge_slot(app_id)
                self._pump(obj)
                self._gc_object(obj)
                self.stats.lock_timeouts += 1
                self._record_wait(self.env.now - started)
                if self.wait_profiler is not None:
                    self.wait_profiler.end_lock_wait(app_id, "timeout")
                if self.tracer is not None:
                    self._trace(
                        "timeout", app_id,
                        f"{waiter.mode.name} {obj.resource}",
                        str(obj.resource), self.env.now - started,
                    )
                raise LockTimeoutError(
                    f"app {app_id} waited {self.lock_timeout_s}s for "
                    f"{waiter.mode.name} on {obj.resource}"
                )
        self._record_wait(self.env.now - started)
        if self.wait_profiler is not None:
            self.wait_profiler.end_lock_wait(app_id, "granted")
        if self.tracer is not None:
            self._trace(
                "wait-end", app_id,
                f"{waiter.mode.name} {obj.resource} after "
                f"{self.env.now - started:.3f}s",
                str(obj.resource),
                self.env.now - started,
            )

    # -- grant pumping and release ----------------------------------------------

    def _pump(self, obj: LockObject) -> None:
        if not obj.waiters:
            self._contended.pop(obj.resource, None)
            return
        for waiter in obj.pump():
            # The wait ends here, not when the granted thread resumes:
            # until then it is off the queue, and a stale wait entry
            # would make every later request look queued *ahead* of it
            # (false wait-for edges, phantom deadlocks).
            self._waiting_on.pop(waiter.app_id, None)
            if not waiter.converting:
                # The queued request's structure was charged on
                # enqueue, so the application's record exists.
                app_id = waiter.app_id
                self._note_held(
                    self._apps[app_id], obj.resource, obj.held_by(app_id)
                )
            waiter.event.succeed()
        if not obj.waiters:
            self._contended.pop(obj.resource, None)

    def _release_one(self, app_id: int, resource: ResourceId) -> int:
        obj = self._objects.get(resource)
        if obj is None:
            raise LockManagerError(f"app {app_id} does not hold {resource}")
        held = obj.remove_grant(app_id)
        freed = 0
        if held.block is not None:
            self.chain.free_slot(held.block)
            self._uncharge_slot(app_id)
            freed = 1
        self._forget_held(app_id, resource)
        self._pump(obj)
        self._gc_object(obj)
        return freed

    def _gc_object(self, obj: LockObject) -> None:
        if obj.is_idle:
            self._objects.pop(obj.resource, None)

    # -- accounting helpers ---------------------------------------------------------

    def _charge_slot(self, app_id: int) -> AppLocks:
        """Charge one structure to ``app_id``; returns its record."""
        rec = self._apps.get(app_id)
        if rec is None:
            rec = self._apps[app_id] = AppLocks()
        rec.slots += 1
        return rec

    def _uncharge_slot(self, app_id: int) -> None:
        rec = self._apps.get(app_id)
        if rec is None or rec.slots <= 0:
            raise LockManagerError(f"slot accounting underflow for app {app_id}")
        rec.slots -= 1

    def _note_held(self, rec: AppLocks, resource: ResourceId, held: HeldLock) -> None:
        """Index a fresh grant: the held set and, for a row, its table's
        row map, the row count and the first-row stamp."""
        rec.held.add(resource)
        if resource[0] == ROW_CODE:
            if not rec.row_seq:
                self._row_seq_counter += 1
                rec.row_seq = self._row_seq_counter
            rows = rec.rows.get(resource[1])
            if rows is None:
                rows = rec.rows[resource[1]] = {}
            rows[resource] = held
            rec.row_count += 1

    def _forget_held(self, app_id: int, resource: ResourceId) -> None:
        rec = self._apps.get(app_id)
        if rec is None:
            return
        rec.held.discard(resource)
        if resource[0] == ROW_CODE:
            rows = rec.rows.get(resource[1])
            if rows is not None and rows.pop(resource, None) is not None:
                if not rows:
                    del rec.rows[resource[1]]
                rec.row_count -= 1

    # -- deadlock detection ------------------------------------------------------------

    def _creates_deadlock(self, app_id: int, obj: LockObject, waiter: Waiter) -> bool:
        stack = list(obj.blockers_of(waiter))
        seen: Set[int] = set()
        while stack:
            blocker = stack.pop()
            if blocker == app_id:
                return True
            if blocker in seen:
                continue
            seen.add(blocker)
            entry = self._waiting_on.get(blocker)
            if entry is not None:
                blocked_obj, blocked_waiter = entry
                stack.extend(blocked_obj.blockers_of(blocked_waiter))
        return False

    def _wait_depth(self, app_id: Optional[int], cap: int = 16) -> int:
        """Length of the wait-for chain starting at ``app_id``.

        Thomasian-style wait-depth: 1 means the blocker itself is
        running, 2 means it is waiting on a running app, and so on.
        Bounded by ``cap`` (a cycle or a pathological chain must not
        turn the probe into a scan).  Only called while the profiler is
        enabled.
        """
        depth = 1
        seen: Set[int] = set()
        while app_id is not None and app_id not in seen and depth < cap:
            seen.add(app_id)
            entry = self._waiting_on.get(app_id)
            if entry is None:
                break
            blocked_obj, blocked_waiter = entry
            blockers = blocked_obj.blockers_of(blocked_waiter)
            app_id = blockers[0] if blockers else None
            depth += 1
        return depth

    def _find_cycle(
        self, app_id: int, obj: LockObject, waiter: Waiter
    ) -> List[int]:
        """Reconstruct the wait-for cycle ``_creates_deadlock`` found.

        BFS over the same edges, keeping parent pointers; returns the
        cycle as app ids starting from the requester.  Only called on
        the (rare) deadlock path when incident capture is enabled.
        """
        parents: Dict[int, int] = {}
        queue: Deque[int] = deque()
        for blocker in obj.blockers_of(waiter):
            if blocker == app_id:
                return [app_id]
            if blocker not in parents:
                parents[blocker] = app_id
                queue.append(blocker)
        while queue:
            node = queue.popleft()
            entry = self._waiting_on.get(node)
            if entry is None:
                continue
            blocked_obj, blocked_waiter = entry
            for blocker in blocked_obj.blockers_of(blocked_waiter):
                if blocker == app_id:
                    cycle = [node]
                    while cycle[-1] != app_id:
                        cycle.append(parents[cycle[-1]])
                    cycle.reverse()
                    return cycle
                if blocker not in parents:
                    parents[blocker] = node
                    queue.append(blocker)
        return [app_id]

    # -- memory pressure: growth then escalation ------------------------------------------

    def _ensure_slot_available(self, app_id: int, resource: ResourceId):
        """Make room for one new lock structure for ``app_id``.

        Order of remedies follows the paper: the adaptive MAXLOCKS limit
        escalates the requesting application first (section 3.5); a full
        chain then tries synchronous growth from overflow and finally a
        memory-pressure escalation (section 3.3).
        """
        guard = 0
        while self.app_slots(app_id) + 1 > self.maxlocks_limit_slots():
            guard += 1
            if guard > 1 << 20:
                raise LockManagerError("maxlocks escalation loop did not converge")
            # Growing lock memory raises the per-application allowance
            # (lockPercentPerApplication is recomputed on every resize,
            # section 3.5), so growth is tried before escalating -- the
            # algorithm's goal "is to avoid lock escalation at all times
            # by adjusting the lock memory".
            if self._try_sync_growth(for_app=app_id):
                continue
            freed = yield from self._escalate(app_id, "maxlocks", blocking=True)
            if freed == 0:
                self.stats.lock_list_full_errors += 1
                if self.tracer is not None:
                    self._trace("lock-list-full", app_id, "maxlocks path")
                raise LockListFullError(
                    f"app {app_id} exceeds lockPercentPerApplication "
                    f"({self.maxlocks_fraction:.3f}) and escalation freed nothing"
                )
        guard = 0
        while self.chain.free_slots == 0:
            guard += 1
            if guard > 1024:
                raise LockManagerError("memory escalation loop did not converge")
            if self._try_sync_growth(for_app=app_id):
                break
            victim = self._memory_escalation_victim(app_id)
            if victim is None:
                self.stats.lock_list_full_errors += 1
                raise LockListFullError(
                    "lock list full, growth denied and no escalatable application"
                )
            blocking = victim == app_id
            freed = yield from self._escalate(victim, "memory", blocking=blocking)
            if freed == 0:
                self.stats.lock_list_full_errors += 1
                raise LockListFullError(
                    "lock list full and escalation freed nothing"
                )

    # -- section 6.1 extension: selective escalation ------------------------

    def set_escalation_preference(self, app_id: int, preferred: bool) -> None:
        """Mark an application as preferring escalation over growth.

        Implements the paper's future-work idea of "application policies
        to bias when lock escalations are a preferred strategy over lock
        memory growth.  Selective lock escalation would reduce memory
        requirements for locking providing more memory for caching and
        sorting" (section 6.1).  A preferring application's memory
        pressure is answered by escalating its own locks instead of
        growing the shared lock memory.
        """
        if preferred:
            self._escalation_preferred.add(app_id)
        else:
            self._escalation_preferred.discard(app_id)

    def prefers_escalation(self, app_id: int) -> bool:
        return app_id in self._escalation_preferred

    def _try_sync_growth(self, for_app: Optional[int] = None) -> int:
        if for_app is not None and for_app in self._escalation_preferred:
            return 0  # this application asked to escalate instead
        if self.growth_provider is None:
            return 0
        if self.obs is not None or self.wait_profiler is not None:
            # Wall-clock cost of the provider call: the synchronous
            # growth path stalls the requesting transaction in a real
            # system, so its latency is a first-class observable.
            wall_started = perf_counter()
            granted = int(self.growth_provider(1))
            elapsed = perf_counter() - wall_started
            if self.obs is not None:
                self.obs.sync_growth_latency.observe(elapsed)
                self.obs.sync_growth_requests.inc()
                if granted > 0:
                    self.obs.sync_growth_blocks.inc(granted)
            if self.wait_profiler is not None:
                self.wait_profiler.observe(
                    "sync-growth",
                    elapsed,
                    app_id=-1 if for_app is None else for_app,
                    note=f"+{granted} blocks",
                )
        else:
            granted = int(self.growth_provider(1))
        if granted < 0:
            raise LockManagerError(f"growth provider returned {granted}")
        if granted:
            self.chain.add_blocks(granted)
            self.stats.sync_growth_blocks += granted
            self.refresh_maxlocks()  # resize => recompute (section 3.5)
            if self.tracer is not None:
                self._trace(
                    "sync-growth", -1,
                    f"+{granted} blocks -> {self.chain.block_count}",
                    value=float(granted),
                )
        return granted

    def _memory_escalation_victim(self, requester: int) -> Optional[int]:
        """Pick the application whose escalation frees the most memory.

        Prefers the requester (DB2 escalates on behalf of the requesting
        application); if the requester has no row locks, falls back to
        the application holding the most row locks, ties broken by which
        application first acquired a row lock (its ``row_seq`` stamp,
        unique per application).  One scan of the per-app records: it
        runs once per memory escalation, so it costs O(applications)
        there instead of index upkeep on every row grant and release.
        """
        if self.app_row_lock_count(requester) > 0:
            return requester
        victim, most, first = None, 0, 0
        for app_id, rec in self._apps.items():
            count = rec.row_count
            if count > most or (count == most and count and rec.row_seq < first):
                victim, most, first = app_id, count, rec.row_seq
        return victim

    def _escalate(self, app_id: int, reason: str, blocking: bool):
        """Generator: escalate ``app_id``'s biggest row-locked table.

        Returns the number of lock structures freed (0 when no table
        could be escalated).  With ``blocking`` the escalating
        application may wait for the table lock; non-blocking escalation
        (used for memory pressure on behalf of another application) only
        succeeds when the table lock is grantable immediately.
        """
        rec = self._apps.get(app_id)
        tables = rec.rows if rec is not None else {}
        # Biggest table first; the position component reproduces the
        # insertion-order tie-break of the stable sort this replaces.
        # Lazy heap: the first candidate usually wins, so a full sort
        # is wasted work.
        candidates = [
            (-len(rows), position, table_id)
            for position, (table_id, rows) in enumerate(tables.items())
            if rows
        ]
        heapq.heapify(candidates)
        scanned = 0  # row-lock structures examined across candidate tables
        while candidates:
            _neg_rows, _position, table_id = heapq.heappop(candidates)
            rows = tables.get(table_id)
            if not rows:
                continue
            scanned += len(rows)
            # Inline escalation_target_mode with an early break: the row
            # grants are at hand, so the first write mode settles it.
            target = LockMode.S
            for held_row in rows.values():
                if held_row.mode.is_write:
                    target = LockMode.X
                    break
            table_res = table_resource(table_id)
            obj = self._objects.get(table_res)
            held = obj.held_by(app_id) if obj is not None else None
            if held is None:
                raise LockManagerError(
                    f"app {app_id} holds rows of table {table_id} without intent lock"
                )
            waited = False
            if covers(held.mode, target):
                pass  # already covered (e.g. SIX -> S)
            elif obj.others_compatible(app_id, target):
                obj.upgrade_grant(app_id, target)
            elif blocking:
                waiter = Waiter(
                    app_id, target, self.env.event(), block=None,
                    converting=True, enqueued_at=self.env.now,
                )
                obj.enqueue(waiter)
                self._contended[table_res] = obj
                yield from self._wait(app_id, obj, waiter)
                waited = True
            else:
                continue  # table lock not grantable; try the next table
            freed = self._release_table_rows(app_id, table_id)
            if self.obs is not None:
                self.obs.escalation_scan.observe(scanned)
                self.obs.escalation_attempts.inc()
            if self.tracer is not None:
                self._trace(
                    "escalation", app_id,
                    f"table {table_id} -> {target.name} ({reason}), freed {freed}",
                    f"T{table_id}", float(freed),
                )
            self.stats.escalations.record(
                EscalationOutcome(
                    time=self.env.now,
                    app_id=app_id,
                    table_id=table_id,
                    reason=reason,
                    target_mode=target,
                    freed_slots=freed,
                    waited=waited,
                )
            )
            if self.incidents is not None:
                self.incidents.record_escalation(
                    self, app_id, table_id, reason, freed, waited
                )
            return freed
        self.stats.escalations.failures += 1
        if self.obs is not None:
            self.obs.escalation_scan.observe(scanned)
            self.obs.escalation_attempts.inc()
        return 0

    def _release_table_rows(self, app_id: int, table_id: int) -> int:
        rec = self._apps.get(app_id)
        rows = rec.rows.get(table_id) if rec is not None else None
        if not rows:
            return 0
        freed = 0
        for row in list(rows):
            freed += self._release_one(app_id, row)
        return freed

    def release_read_lock(self, app_id: int, table_id: int, row_id: int) -> bool:
        """Release one S row lock before commit (cursor stability).

        Under DB2's CS isolation a share lock is released as soon as the
        cursor moves off the row.  Only plain S row locks are eligible:
        write locks (and S locks later upgraded for an update) are held
        to commit, and a row covered by an escalated table lock has no
        structure of its own to release.  Returns True when a lock was
        released (or its re-entrancy count decremented).
        """
        resource = row_resource(table_id, row_id)
        obj = self._objects.get(resource)
        held = obj.held_by(app_id) if obj is not None else None
        if held is None:
            return False
        if held.mode is not LockMode.S:
            return False  # upgraded to U/X: held to commit
        if held.count > 1:
            held.count -= 1
            return True
        self._release_one(app_id, resource)
        if self.tracer is not None:
            self._trace("release", app_id, f"CS early release {resource}",
                        str(resource), 1.0)
        return True

    def lock_status(self, resource: ResourceId) -> str:
        """One-line status of a resource: holders and queue, in order.

        The Figure 3 situation renders as
        ``T0.R7: granted[1:S, 2:S] queue[3:X, 4:S]``.
        """
        obj = self._objects.get(resource)
        if obj is None or obj.is_idle:
            return f"{resource}: unlocked"
        holders = ", ".join(
            f"{held.app_id}:{held.mode.name}"
            for held in sorted(obj.holders(), key=lambda held: held.app_id)
        )
        queue = ", ".join(f"{w.app_id}:{w.mode.name}" for w in obj.waiters)
        return f"{resource}: granted[{holders}] queue[{queue}]"

    def snapshot_report(self, max_resources: int = 20) -> str:
        """A DBA-style point-in-time report of lock manager state."""
        stats = self.stats
        lines = [
            f"lock memory: {self.chain.block_count} blocks, "
            f"{self.chain.used_slots}/{self.chain.capacity_slots} structures "
            f"({self.chain.free_fraction():.0%} free)",
            f"maxlocks: {self.maxlocks_fraction:.1%} "
            f"({self.maxlocks_limit_slots()} structures/application)",
            f"requests={stats.requests} waits={stats.waits} "
            f"deadlocks={stats.deadlocks} timeouts={stats.lock_timeouts} "
            f"escalations={stats.escalations.count} "
            f"(exclusive {stats.escalations.exclusive_count})",
        ]
        contended = sorted(self._contended.values(), key=lambda o: -len(o.waiters))
        for obj in contended[:max_resources]:
            lines.append("  " + self.lock_status(obj.resource))
        if len(contended) > max_resources:
            lines.append(f"  ... and {len(contended) - max_resources} more")
        return "\n".join(lines)

    def check_invariants(self) -> None:
        """Cross-check manager accounting against the block chain."""
        self.chain.check_invariants()
        slot_total = sum(rec.slots for rec in self._apps.values())
        if slot_total != self.chain.used_slots:
            raise LockManagerError(
                f"app slot total {slot_total} != chain used {self.chain.used_slots}"
            )
        for app_id, rec in self._apps.items():
            for resource in rec.held:
                obj = self._objects.get(resource)
                if obj is None or obj.held_by(app_id) is None:
                    raise LockManagerError(
                        f"app {app_id} claims {resource} but grant is missing"
                    )
            total = 0
            for table_id, rows in rec.rows.items():
                total += len(rows)
                for resource, held in rows.items():
                    obj = self._objects.get(resource)
                    if obj is None or obj.held_by(app_id) is not held:
                        raise LockManagerError(
                            f"row index stale: app {app_id} {resource}"
                        )
            if total != rec.row_count:
                raise LockManagerError(
                    f"row count {rec.row_count} != indexed rows {total} "
                    f"for app {app_id}"
                )
        expected_contended = set()
        for res, obj in self._objects.items():
            if obj.is_idle:
                raise LockManagerError(f"idle lock object kept for {res}")
            if obj.waiters:
                expected_contended.add(res)
        if expected_contended != set(self._contended):
            raise LockManagerError(
                f"contended set {sorted(map(str, self._contended))} != "
                f"objects with waiters {sorted(map(str, expected_contended))}"
            )
