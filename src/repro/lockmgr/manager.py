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
an escalation wait in between) compose naturally in the DES.  Each is
``begin_lock_row`` / ``begin_lock_table``, which never yields, and then
the generator it returns, if any, which goes on from where it stopped;
the live service calls the ``begin_*`` methods too, so there is one
grant path.

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
import itertools
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union,
)

from repro.engine.des import Environment
from repro.errors import DeadlockError, LockManagerError, MemoryAccountingError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.escalation import EscalationOutcome, EscalationStats
from repro.lockmgr.locks import AppLocks, LockObject, Waiter
from repro.lockmgr.modes import (
    MODE_BY_CODE,
    LockMode,
    covers,
    supremum,
)
from repro.lockmgr.resources import (
    ROW_CODE,
    LockKey,
    ResourceId,
    resource_of,
    row_key,
    row_resource,
    table_resource,
)
from repro.units import LOCK_SIZE_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instruments import LockManagerInstruments

#: Paper Table 1: lockPercentPerApplication refresh period, 0x80 requests.
REFRESH_PERIOD_FOR_APP_PERCENT = 0x80

#: A lock with one holder and no queue, as the lock table files it:
#: ``(app_id, mode code, count, block id)`` -- the holder, its mode's
#: code (``MODE_BY_CODE``), its re-entrant count and the id of the
#: block its structure came from.  An exact tuple of ints, which the
#: cyclic collector untracks at its first pass; the first request that
#: would add a second holder or a waiter inflates it into a
#: :class:`LockObject` (see ``LockManager._inflate``).  Fresh grants
#: share words (``AppLocks.word``): read one by value, not by id.
GrantWord = Tuple[int, int, int, int]
Entry = Union[GrantWord, LockObject]
_S_CODE = LockMode.S._idx  # type: ignore[attr-defined]


def _key_at(key: LockKey, row_id: int) -> LockKey:
    """The lock-table key of the entry at ``(key, row_id)`` (see
    ``LockManager._entry``), built only for a new lock object or a
    printed resource."""
    return key if row_id < 0 else row_key(key[1], row_id)


class LockListFullError(LockManagerError):
    """Lock memory is exhausted and escalation could not free any.

    The analogue of DB2's SQL0912N; transactions receiving it roll back.
    """


class LockTimeoutError(LockManagerError):
    """A lock wait outlived its request's deadline (``timeout_s``).

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
    ) -> None:
        if not 0.0 < maxlocks_fraction <= 1.0:
            raise ValueError(
                f"maxlocks_fraction must be in (0, 1], got {maxlocks_fraction}"
            )
        if refresh_period <= 0:
            raise ValueError(f"refresh_period must be positive, got {refresh_period}")
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
        #: table key -> its grant word, or its lock object while the
        #: table has (or has had, since it was last idle) a second holder
        #: or a waiter.  One rule for every entry, rows included: the
        #: representation follows contention, not the kind.  Only the
        #: grant and release paths read words; everything that queues
        #: sees lock objects.
        self._objects: Dict[ResourceId, Entry] = {}
        #: table id -> {row id: entry}: the rows' entries, keyed by the
        #: caller's ints, so a row grant builds no key object and hashes
        #: one int per probe.  A map goes when it empties.  A row's lock
        #: object still carries its ``row_key`` tuple (``_contended``,
        #: the detector, printing).  ``_entry`` reads both maps.
        self._rows: Dict[int, Dict[int, Entry]] = {}
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
        #: Keyed like ``_objects``.
        self._contended: Dict[LockKey, LockObject] = {}
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
        return self._held_mode(self._entry(resource, resource[3]), app_id)

    def _entry(self, key: LockKey, row_id: int = -1) -> Optional[Entry]:
        """The lock-table entry at ``(key, row_id)``: with a negative
        ``row_id`` the one filed under ``key`` (a table's; a page has
        none), else row ``row_id``'s of the table ``key`` names.  Any
        key's own entry is at ``(key, key[3])``."""
        if row_id < 0:
            return self._objects.get(key)
        rows = self._rows.get(key[1])
        return rows.get(row_id) if rows is not None else None

    def _file(self, key: LockKey, row_id: int, entry: Entry) -> None:
        """Store ``entry`` at ``(key, row_id)`` (see ``_entry``)."""
        if row_id < 0:
            self._objects[key] = entry
            return
        rows = self._rows.get(key[1])
        if rows is None:
            rows = self._rows[key[1]] = {}
        rows[row_id] = entry

    @staticmethod
    def _held_mode(entry: Optional[Entry], app_id: int) -> Optional[LockMode]:
        """The mode ``app_id`` holds in a lock-table entry, or None."""
        if entry.__class__ is tuple:
            return MODE_BY_CODE[entry[1]] if entry[0] == app_id else None
        return entry.holder_mode(app_id) if entry is not None else None

    def waiting_apps(self) -> Set[int]:
        return set(self._waiting_on)

    def has_waiters(self) -> bool:
        """True when any application is enqueued (safe as a dirty read:
        a ``len`` of the wait map, no iteration)."""
        return len(self._waiting_on) > 0

    def contended_objects(self) -> Dict[LockKey, LockObject]:
        """Live view of the objects with queued waiters (do not mutate),
        keyed by each object's key: a table's ``ResourceId``, a row's
        plain tuple equal to one (read ``obj.resource`` for the printable
        id)."""
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
        rest = self.begin_lock_table(app_id, table_id, mode)
        if rest is not None:
            yield from rest

    def lock_row(self, app_id: int, table_id: int, row_id: int, mode: LockMode):
        """Generator: acquire a row lock plus the covering intent lock
        (see :meth:`begin_lock_row`)."""
        rest = self.begin_lock_row(app_id, table_id, row_id, mode)
        if rest is not None:
            yield from rest

    def begin_lock_table(self, app_id: int, table_id: int, mode: LockMode):
        """A table lock's part that never waits (see :meth:`begin_lock_row`)."""
        return self._begin(app_id, table_resource(table_id), mode)

    def begin_lock_row(self, app_id: int, table_id: int, row_id: int, mode: LockMode):
        """A row lock, plus the covering intent lock, as far as it goes
        without waiting: None once both are granted (a re-grant, a fresh
        or compatible added grant, a conversion that jumps the queue),
        else the generator that goes on into a slot shortage (growth,
        then escalation) or a queue.  Drive that generator at once: until
        its first ``yield`` a queued request is not in the wait map.  A
        table lock that already covers the row mode (e.g. after an
        escalation) takes no row structure.
        """
        table_res = table_resource(table_id)
        if row_id < 0:
            raise ValueError(f"row_id must be non-negative, got {row_id}")
        intent = mode._intent  # type: ignore[attr-defined]
        # The covering intent lock is usually already held.
        objects = self._objects
        tent = objects.get(table_res)
        if tent.__class__ is tuple:
            theld = None
            table_mode = MODE_BY_CODE[tent[1]] if tent[0] == app_id else None
        else:
            theld = tent.held_by(app_id) if tent is not None else None
            table_mode = theld.mode if theld is not None else None
        if table_mode is not None and table_mode._covers_mask & intent._bit:  # type: ignore[attr-defined]
            # _begin's re-grant, written out: the usual row request's table step.
            if theld is None:
                objects[table_res] = (app_id, tent[1], tent[2] + 1, tent[3])
            else:
                theld.count += 1
            stats = self.stats
            stats.requests += 1
            stats.immediate_grants += 1
            ticks = self._requests_since_refresh = self._requests_since_refresh + 1
            if ticks >= self.refresh_period:
                self.refresh_maxlocks()
        else:
            rest = self._begin(app_id, table_res, intent)
            if rest is not None:
                return self._lock_row_after(rest, app_id, table_res, row_id, mode)
            # Granted: fresh, or converted from the mode it held.
            table_mode = intent if table_mode is None else supremum(table_mode, intent)
        if table_mode is not None and table_mode._covers_mask & mode._bit:  # type: ignore[attr-defined]
            return None
        return self._begin(app_id, table_res, mode, row_id)

    def lock_row_fast(self, app_id: int, table_id: int, row_id: int, mode: LockMode) -> bool:
        """Always False.  Kept only for the bare-manager rung of the
        benchmark ladder (``benchmarks/ladder/workloads.py``,
        ``BareManager``), which calls it before ``lock_row``: False is
        its old contract, "nothing mutated, use :meth:`lock_row`".
        ROADMAP item 1(a) removes that call, and this method with it."""
        return False

    def _lock_row_after(self, rest, app_id: int, table_res: ResourceId, row_id: int, mode: LockMode):
        """Generator: the intent lock's continuation ``rest``, then the
        row step."""
        yield from rest
        table_mode = self.holder_mode(app_id, table_res)
        if table_mode is not None and covers(table_mode, mode):
            return
        rest = self._begin(app_id, table_res, mode, row_id)
        if rest is not None:
            yield from rest

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
            if self.wait_profiler is not None:
                # The app was parked when its session unwound; close the
                # open wait so quiesce leaves no dangling lock wait.
                self.wait_profiler.end_lock_wait(app_id, "cancelled")
            freed = self._withdraw(app_id, entry[0])
        # Bulk path: the application's record is discarded wholesale,
        # so per-resource unindexing (held-set discard, row-index
        # pruning, per-slot uncharge) would be pure churn.  The same
        # invariants are checked against the same end state.
        rec = self._apps.pop(app_id, None)
        if rec is None:
            return freed  # nothing charged: nothing held
        # Every row (grant order per table), then the table locks.
        held_frees = self._release_grants(
            app_id, itertools.chain(rec.rows.items(), ((None, rec.held),))
        )
        freed += held_frees
        if rec.row_count != sum(map(len, rec.rows.values())):
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

    def _release_grants(self, app_id: int, groups: Iterable) -> int:
        """Drop ``app_id``'s grant on every key of ``groups``, pairs
        ``(table_id, keys)``: row ids of that table, or table keys when
        the table id is None.  A grant word goes with its grant; a lock
        object loses it, pumps its queue and goes once idle; a row map
        goes once empty.  Returns the structures freed: the caller
        uncharges them and unindexes the keys (``release_all`` drops the
        app's whole record).

        Consecutive grant words from one block go back to the chain in
        one counted call.  The pending run is returned before anything
        else touches the chain or could read it -- a lock object's free,
        a pump, the "does not hold" error -- so the chain reads at each
        of those points, and at the end, as if every structure had gone
        back on its own.
        """
        freed = 0
        objects, row_maps = self._objects, self._rows
        free_slots_id = self.chain.free_slots_id
        run_block, run = 0, 0  # the pending run: block id, structures
        for table_id, keys in groups:
            entries = objects if table_id is None else row_maps.get(table_id) or {}
            for key in keys:
                obj = entries.get(key)
                if obj.__class__ is tuple and obj[0] == app_id:
                    # The usual case: the app's grant word, dropped with it.
                    del entries[key]
                    if obj[3] == run_block:
                        run += 1
                    else:
                        if run:
                            free_slots_id(run_block, run)
                            freed += run
                        run_block, run = obj[3], 1
                    continue
                if run:
                    free_slots_id(run_block, run)
                    freed += run
                    run = 0
                if obj is None or obj.__class__ is tuple:
                    where = key if table_id is None else row_resource(table_id, key)
                    raise LockManagerError(f"app {app_id} does not hold {where}")
                held = obj.remove_grant(app_id)
                if held.block is not None:
                    free_slots_id(held.block.block_id, 1)
                    freed += 1
                if obj.waiters:
                    self._pump(obj)
                if obj.is_idle:
                    del entries[key]
            if not entries and table_id is not None:
                del row_maps[table_id]
        if run:
            free_slots_id(run_block, run)
            freed += run
        return freed

    # -- core acquisition ---------------------------------------------------------

    def _begin(
        self, app_id: int, key: LockKey, mode: LockMode, row_id: int = -1,
        room: bool = False,
    ):
        """``mode`` on table ``key`` or, with a ``row_id``, on that row
        of it (see ``_entry``), as far as it goes without waiting: None
        when granted, else the generator that finishes it.  With
        ``room``, ``_make_room`` goes on after freeing a slot: the
        request is counted already and its slot is there."""
        # The hot path: the refresh tick, _entry, maxlocks_limit_slots'
        # memo, chain.allocate_slot, _file and _note_held, written out;
        # the helpers stay the reference.
        chain, stats = self.chain, self.stats
        if not room:
            stats.requests += 1
            ticks = self._requests_since_refresh = self._requests_since_refresh + 1
            if ticks >= self.refresh_period:
                self.refresh_maxlocks()
        if row_id < 0:
            entry = self._objects.get(key)
        else:
            rows = self._rows.get(key[1])
            entry = rows.get(row_id) if rows is not None else None
        if entry is not None and self._held_mode(entry, app_id) is not None:
            return self._regrant(app_id, key, row_id, entry, mode)
        capacity = chain.capacity_slots
        rec = self._apps.get(app_id)
        if not room and (
            chain.used_slots == capacity or rec is not None and rec.slots >= (
                self._limit_slots if capacity == self._limit_capacity
                else self.maxlocks_limit_slots()
            )
        ):
            return self._make_room(app_id, key, mode, row_id)
        block = chain.head
        if block is None:
            raise MemoryAccountingError("lock memory exhausted: no block with free slots")
        used = block.used = block.used + 1
        chain.used_slots += 1
        if used == block.capacity:
            chain.unlink(block)
        if rec is None:
            rec = self._apps[app_id] = AppLocks()
        rec.slots += 1
        if chain.used_slots > stats.peak_used_slots:
            stats.peak_used_slots = chain.used_slots
        if entry is None:
            # Only now that a structure is secured: a refused request
            # must not leave a grant behind.
            word = rec.word
            if word[3] != block.block_id or word[1] != mode._idx:  # type: ignore[attr-defined]
                word = rec.word = (app_id, mode._idx, 1, block.block_id)  # type: ignore[attr-defined]
            if row_id < 0:
                self._objects[key] = word
            elif rows is not None:
                rows[row_id] = word
            else:
                self._rows[key[1]] = {row_id: word}
        else:
            # A second holder or a waiter: inflate a word first.
            obj = self._inflate(key, row_id, entry) if entry.__class__ is tuple else entry
            if obj.waiters or not obj.others_compatible(app_id, mode):
                # No _note_held here: a waited grant is recorded by _pump,
                # the only place the wait event can succeed.
                return self._queue(app_id, obj, mode, block)
            obj.add_grant(app_id, mode, block)
        if row_id < 0:
            rec.held.add(key)
        else:
            if not rec.row_seq:
                self._row_seq_counter += 1
                rec.row_seq = self._row_seq_counter
            held_rows = rec.rows.get(key[1])
            if held_rows is None:
                rec.rows[key[1]] = [row_id]
            else:
                held_rows.append(row_id)
            rec.row_count += 1
        stats.immediate_grants += 1
        if self.tracer is not None:
            resource = resource_of(_key_at(key, row_id))
            self._trace("grant", app_id, f"{mode.name} {resource}", str(resource))
        return None

    def _make_room(self, app_id: int, key: LockKey, mode: LockMode, row_id: int):
        """Generator: free a slot (growth, then escalation), then go on
        as ``_begin``."""
        yield from self._ensure_slot_available(app_id)
        # Escalation may have granted this application a covering table
        # lock; re-check before allocating a structure.
        if row_id >= 0:
            table_mode = self.holder_mode(app_id, key)
            if table_mode is not None and covers(table_mode, mode):
                self.stats.immediate_grants += 1
                return
        rest = self._begin(app_id, key, mode, row_id, room=True)
        if rest is not None:
            yield from rest

    def _regrant(self, app_id: int, key: LockKey, row_id: int, entry: Entry, mode: LockMode):
        """A holder's request: a re-grant of a covered mode, else a
        conversion, which needs no structure and jumps the queue -- None
        when granted, else the wait.  A word has no other holder, so its
        conversion is immediate and is the word rewritten."""
        if entry.__class__ is tuple:
            held_mode = MODE_BY_CODE[entry[1]]
            new_mode = supremum(held_mode, mode)
            self._file(key, row_id, (app_id, new_mode._idx, entry[2] + 1, entry[3]))  # type: ignore[attr-defined]
            self.stats.immediate_grants += 1
            if new_mode is not held_mode and self.tracer is not None:
                resource = resource_of(_key_at(key, row_id))
                self._trace("convert", app_id, f"-> {mode.name} {resource}", str(resource))
            return None
        held = entry.held_by(app_id)
        if covers(held.mode, mode):
            held.count += 1
        elif entry.others_compatible(app_id, mode):
            entry.upgrade_grant(app_id, mode)
            if self.tracer is not None:
                self._trace("convert", app_id, f"-> {mode.name} {entry.resource}", str(entry.resource))
        else:
            return self._queue(app_id, entry, mode)
        self.stats.immediate_grants += 1
        return None

    def _inflate(self, key: LockKey, row_id: int, word: GrantWord) -> LockObject:
        """Replace the grant word at ``(key, row_id)`` by the lock object
        a second holder or a waiter needs: the word's holder first, its
        count carried over.  The row index holds ids, not grants, so
        nothing else changes."""
        app_id, code, count, block_id = word
        obj = LockObject(
            _key_at(key, row_id), app_id, MODE_BY_CODE[code], self.chain.block(block_id)
        )
        obj.grants[app_id].count = count
        self._file(key, row_id, obj)
        return obj

    def _queue(self, app_id: int, obj: LockObject, mode: LockMode, block=None):
        """Queue ``app_id``'s request on ``obj`` -- a conversion when it
        brings no ``block`` -- and return its wait (a generator)."""
        waiter = Waiter(
            app_id, mode, self.env.event(), block=block,
            converting=block is None, enqueued_at=self.env.now,
        )
        obj.enqueue(waiter)
        self._contended[obj.key] = obj
        return self._wait(app_id, obj, waiter)

    def cancel_wait(
        self, app_id: int, exc: BaseException, reason: str = "deadlock"
    ) -> bool:
        """Withdraw ``app_id``'s pending request and fail it with ``exc``.

        Every early end of a wait comes through here: a deadlock victim
        of the periodic detector or the cross-partition sweep, and, from
        the live service, a per-request deadline or a cancellation
        (``reason`` of ``"timeout"`` or ``"cancel"``, which is also the
        trace-event kind and selects the stats counter).  The wait's
        time is recorded here, once, for every reason.
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
        self._withdraw(app_id, obj)
        waited = self.env.now - waiter.enqueued_at
        if reason == "timeout":
            self.stats.lock_timeouts += 1
        elif reason != "deadlock":
            self.stats.cancelled_waits += 1
        self._record_wait(waited)
        if self.wait_profiler is not None:
            self.wait_profiler.end_lock_wait(
                app_id, reason if reason in ("timeout", "deadlock") else "cancelled"
            )
        if self.tracer is not None:
            self._trace(
                reason, app_id,
                f"victim on {obj.resource}" if reason == "deadlock"
                else f"{waiter.mode.name} {obj.resource} withdrawn",
                str(obj.resource), waited,
            )
        waiter.event.fail(exc)
        return True

    def _wait(self, app_id: int, obj: LockObject, waiter: Waiter):
        """Suspend until ``waiter`` is granted; detects deadlock first
        (in immediate mode).  A wait that ends otherwise was withdrawn by
        :meth:`cancel_wait`, which did its accounting and fails the event
        this generator yields."""
        self._waiting_on[app_id] = (obj, waiter)
        if self.deadlock_detection == "immediate":
            # Walk the cycle while the waiter is still enqueued (the
            # wait-for edge disappears with the cleanup below).
            cycle = self._find_cycle(app_id, obj, waiter)
            if cycle is not None:
                del self._waiting_on[app_id]
                self._withdraw(app_id, obj)
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
        yield waiter.event
        waited = self.env.now - waiter.enqueued_at
        self._record_wait(waited)
        if self.wait_profiler is not None:
            self.wait_profiler.end_lock_wait(app_id, "granted")
        if self.tracer is not None:
            self._trace(
                "wait-end", app_id,
                f"{waiter.mode.name} {obj.resource} after {waited:.3f}s",
                str(obj.resource),
                waited,
            )

    # -- grant pumping and release ----------------------------------------------

    def _pump(self, obj: LockObject) -> None:
        if not obj.waiters:
            self._contended.pop(obj.key, None)
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
                self._note_held(self._apps[waiter.app_id], obj.key, obj.key[3])
            waiter.event.succeed()
        if not obj.waiters:
            self._contended.pop(obj.key, None)

    def _withdraw(self, app_id: int, obj: LockObject) -> int:
        """Take ``app_id``'s queued request off ``obj`` (its caller has
        dropped the ``_waiting_on`` entry): free the request's structure,
        pump the queue behind it, drop the object if that left it idle."""
        freed = 0
        for waiter in obj.remove_waiter(app_id):
            if waiter.block is not None:
                self.chain.free_slot(waiter.block)
                self._uncharge_slot(app_id)
                freed += 1
        self._pump(obj)
        self._gc_object(obj)
        return freed

    def _gc_object(self, obj: LockObject) -> None:
        """Drop an idle object, and the row map it leaves empty."""
        if not obj.is_idle:
            return
        key = obj.key
        if key[0] != ROW_CODE:
            self._objects.pop(key, None)
            return
        rows = self._rows.get(key[1])
        if rows is not None:
            rows.pop(key[3], None)
            if not rows:
                del self._rows[key[1]]

    # -- accounting helpers ---------------------------------------------------------

    def _uncharge_slot(self, app_id: int) -> None:
        rec = self._apps.get(app_id)
        if rec is None or rec.slots <= 0:
            raise LockManagerError(f"slot accounting underflow for app {app_id}")
        rec.slots -= 1

    def _note_held(self, rec: AppLocks, key: LockKey, row_id: int) -> None:
        """Index a fresh grant at ``(key, row_id)`` (see ``_entry``),
        once: a row's id in its table's row index (with the row count
        and the first-row stamp), a table's key in the held set."""
        if row_id < 0:
            rec.held.add(key)
            return
        if not rec.row_seq:
            self._row_seq_counter += 1
            rec.row_seq = self._row_seq_counter
        rows = rec.rows.get(key[1])
        if rows is None:
            rows = rec.rows[key[1]] = []
        rows.append(row_id)
        rec.row_count += 1

    # -- deadlock detection ------------------------------------------------------------

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
    ) -> Optional[List[int]]:
        """The wait-for cycle ``waiter`` would close, or None.

        BFS over the wait-for edges from ``waiter``'s blockers, keeping
        parent pointers; a cycle comes back as app ids starting from the
        requester (the shortest one through it).  Runs on every wait in
        immediate mode.
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
        return None

    # -- memory pressure: growth then escalation ------------------------------------------

    def _ensure_slot_available(self, app_id: int):
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
            # Inline escalation_target_mode with an early break: the
            # first write mode settles it.
            target = LockMode.S
            entries = self._rows[table_id]
            for row_id in rows:
                if self._held_mode(entries[row_id], app_id).is_write:
                    target = LockMode.X
                    break
            table_res = table_resource(table_id)
            obj = self._objects.get(table_res)
            held_mode = self.holder_mode(app_id, table_res)
            if held_mode is None:
                raise LockManagerError(
                    f"app {app_id} holds rows of table {table_id} without intent lock"
                )
            waited = False
            if covers(held_mode, target):
                pass  # already covered (e.g. SIX -> S)
            elif obj.__class__ is tuple:  # its own word: nobody to wait for
                self._objects[table_res] = (
                    app_id, supremum(held_mode, target)._idx, obj[2] + 1, obj[3]  # type: ignore[attr-defined]
                )
            elif obj.others_compatible(app_id, target):
                obj.upgrade_grant(app_id, target)
            elif blocking:
                yield from self._queue(app_id, obj, target)
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
        row_ids = rec.rows.pop(table_id, None) if rec is not None else None
        if not row_ids:
            return 0
        freed = self._release_grants(app_id, ((table_id, row_ids),))
        rec.row_count -= len(row_ids)
        rec.slots -= freed
        return freed

    def release_read_lock(self, app_id: int, table_id: int, row_id: int) -> bool:
        """Release one S row lock before commit (cursor stability).

        Under DB2's CS isolation a share lock is released as soon as the
        cursor moves off the row.  Only plain S row locks are eligible:
        write locks (and S locks upgraded for an update, or with the
        app's conversion queued on them) are held to commit, and a row
        covered by an escalated table lock has no structure of its own
        to release.  Returns True when a lock was released (or its
        re-entrancy count decremented).
        """
        rows = self._rows.get(table_id)
        entry = rows.get(row_id) if rows is not None else None
        if entry.__class__ is tuple:
            if entry[0] != app_id or entry[1] != _S_CODE:
                return False  # not held, or upgraded to U/X: held to commit
            if entry[2] > 1:
                rows[row_id] = (app_id, _S_CODE, entry[2] - 1, entry[3])
                return True
        else:
            held = entry.held_by(app_id) if entry is not None else None
            if held is None:
                return False
            if held.mode is not LockMode.S or self._waiting_on.get(app_id, (None,))[0] is entry:
                return False  # upgraded to U/X, or converting: held to commit
            if held.count > 1:
                held.count -= 1
                return True
        rec = self._apps[app_id]
        index = rec.rows[table_id]
        # The row a CS cursor just read is its table's last one.
        index.pop() if index[-1] == row_id else index.remove(row_id)
        if not index:
            del rec.rows[table_id]
        rec.row_count -= 1
        rec.slots -= self._release_grants(app_id, ((table_id, (row_id,)),))
        if self.tracer is not None:
            resource = row_resource(table_id, row_id)
            self._trace("release", app_id, f"CS early release {resource}",
                        str(resource), 1.0)
        return True

    def lock_status(self, resource: ResourceId) -> str:
        """One-line status of a resource: holders and queue, in order.

        The Figure 3 situation renders as
        ``T0.R7: granted[1:S, 2:S] queue[3:X, 4:S]``.
        """
        obj = self._entry(resource, resource[3])
        if obj.__class__ is tuple:
            return (
                f"{resource}: granted[{obj[0]}:{MODE_BY_CODE[obj[1]].name}] queue[]"
            )
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
        objects = self._objects
        indexed: Dict[Tuple[int, int], Set[int]] = {}  # (app, table) -> row ids
        for app_id, rec in self._apps.items():
            for key in rec.held:
                if key[0] == ROW_CODE or self._held_mode(objects.get(key), app_id) is None:
                    raise LockManagerError(
                        f"app {app_id} claims {resource_of(key)} but grant is "
                        "missing or is a row's (rows are indexed in rows only)"
                    )
            total = 0
            for table_id, row_ids in rec.rows.items():
                total += len(row_ids)
                indexed[app_id, table_id] = ids = set(row_ids)
                if len(ids) != len(row_ids):
                    raise LockManagerError(f"app {app_id} indexes a row of T{table_id} twice")
                entries = self._rows.get(table_id, {})
                for row_id in row_ids:
                    if self._held_mode(entries.get(row_id), app_id) is None:
                        raise LockManagerError(
                            f"row index stale: app {app_id} {row_resource(table_id, row_id)}"
                        )
            if total != rec.row_count:
                raise LockManagerError(
                    f"row count {rec.row_count} != indexed rows {total} "
                    f"for app {app_id}"
                )
        expected_contended = set()
        queued = 0
        if not all(self._rows.values()):
            raise LockManagerError("an emptied row map is kept")
        filed = itertools.chain(objects.items(), (
            (row_key(table_id, row_id), entry)
            for table_id, rows in self._rows.items() for row_id, entry in rows.items()
        ))
        for key, obj in filed:
            if obj.__class__ is tuple:
                self._check_word(key, obj, indexed)
                continue
            if obj.is_idle:
                raise LockManagerError(f"idle lock object kept for {obj.resource}")
            if obj.key != key:
                raise LockManagerError(f"{obj.resource} filed under {resource_of(key)}")
            obj.check_invariants()
            if obj.waiters:
                expected_contended.add(key)
            for waiter in obj.waiters:  # compared by identity
                if self._waiting_on.get(waiter.app_id) != (obj, waiter):
                    raise LockManagerError(f"app {waiter.app_id} queued on {obj.resource}, not waiting")
            queued += len(obj.waiters)
        if queued != len(self._waiting_on):
            raise LockManagerError(f"{len(self._waiting_on)} apps waiting, {queued} queued")
        if expected_contended != set(self._contended):
            filed = sorted(str(resource_of(k)) for k in self._contended)
            waited = sorted(str(resource_of(k)) for k in expected_contended)
            raise LockManagerError(
                f"contended set {filed} != objects with waiters {waited}"
            )

    def _check_word(self, key: LockKey, word: GrantWord, indexed: dict) -> None:
        """A grant word is four ints naming a mode, a count of at least
        one and a block of this chain, and its key is indexed for its
        holder (a row in its table's row index, here ``indexed``; a table
        in the held set)."""
        resource = resource_of(key)
        if len(word) != 4 or any(type(field) is not int for field in word):
            raise LockManagerError(f"malformed grant word {word!r} on {resource}")
        app_id, code, count, block_id = word
        if not 0 <= code < len(MODE_BY_CODE) or count < 1:
            raise LockManagerError(f"grant word {word} on {resource}: bad mode or count")
        try:
            self.chain.block(block_id)
        except MemoryAccountingError:
            raise LockManagerError(
                f"grant word on {resource} names block #{block_id}, not in the chain"
            ) from None
        if key[0] == ROW_CODE:
            found = key[3] in indexed.get((app_id, key[1]), ())
        else:
            found = app_id in self._apps and key in self._apps[app_id].held
        if not found:
            raise LockManagerError(
                f"grant word on {resource} is not indexed for app {app_id}"
            )
