"""Lock objects: granted holders plus a FIFO convoy of waiters.

One :class:`LockObject` exists per *contended* resource -- one that has
had a second holder or a waiter since it was last idle; the lock
manager files a lock with one holder and no queue as a grant word
instead (``repro.lockmgr.manager.GrantWord``).  Its state mirrors
Figure 3 of the paper: compatible applications share the grant
(e.g. two share-mode readers), while incompatible requests form a chain
serviced strictly in request order -- "the previously described memory
chaining method uses a post method so that requesters are serviced in
the order in which they request locks" (section 2.3, contrasting with
Oracle's sleep/wake/check polling).

Conversions (an application strengthening a mode it already holds) take
precedence over new requests: a conversion that cannot be granted
immediately is queued ahead of all non-converting waiters, which is the
standard treatment and prevents new arrivals from starving upgraders.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import LockManagerError
from repro.lockmgr.blocks import LockBlock
from repro.lockmgr.modes import COUNT_FIELD_MAX, LockMode, compatible, supremum
from repro.lockmgr.resources import LockKey, ResourceId, resource_of


class HeldLock:
    """One holder's grant on a contended resource (one lock structure).

    A lone holder's grant is the lock manager's grant word and has no
    object at all; a :class:`LockObject` keeps one of these per holder.
    Slotted, not a dataclass: no instance dict on the grant path.
    """

    __slots__ = ("app_id", "mode", "count", "block")

    def __init__(
        self, app_id: int, mode: LockMode, count: int, block: Optional[LockBlock]
    ) -> None:
        self.app_id = app_id
        self.mode = mode
        #: Re-entrant acquisition count; releases are all-at-once
        #: (strict two-phase locking) so this is informational.
        self.count = count
        #: The 128 KB block the structure was allocated from.
        self.block = block

    def __repr__(self) -> str:
        return (
            f"HeldLock(app={self.app_id}, mode={self.mode.name}, "
            f"count={self.count})"
        )


class AppLocks:
    """Everything the manager tracks about one application.

    One record per application with at least one structure charged,
    created by its first charge and dropped whole by ``release_all`` --
    so a grant costs one dictionary probe plus attribute updates, where
    a dictionary per field cost one probe each.
    """

    __slots__ = ("held", "rows", "row_count", "row_seq", "slots", "word")

    def __init__(self) -> None:
        #: Table keys with a grant; a row lock is indexed in ``rows``
        #: only, once.  A set, iterated in an order fixed by
        #: its keys' value-pure (all-int) hashes -- the same in every
        #: process.  ``release_all`` drains ``rows`` (grant order) and
        #: then this set; the DES output does not depend on that order
        #: (``make des-identical`` checks it byte for byte).
        self.held: Set[LockKey] = set()
        #: table id -> [row id, ...]: each held row once, in grant order.
        #: Ids, not grants: a grant word is replaced, not updated, on every
        #: re-grant, conversion or inflation.  Escalation reads row modes
        #: from the lock table.
        self.rows: Dict[int, List[int]] = {}
        #: Row locks held across all tables (the sum of ``rows`` sizes).
        self.row_count = 0
        #: Stamp of the first row lock (0 = none yet): the order in
        #: which applications began row locking, the tie-break among
        #: equal row counts when a memory escalation picks its victim.
        self.row_seq = 0
        #: Lock structures charged: grants plus a queued request's.
        self.slots = 0
        #: The last fresh grant word ``(app_id, code, 1, block_id)``, which
        #: the manager's next fresh grant reuses if its mode and block
        #: match (block ids are never reused); no mode code is -1.
        self.word = (0, -1, 0, 0)


class Waiter:
    """A queued lock request (slotted: see :class:`HeldLock`)."""

    __slots__ = ("app_id", "mode", "event", "block", "converting", "enqueued_at")

    def __init__(
        self,
        app_id: int,
        mode: LockMode,
        event: Any,
        block: Optional[LockBlock] = None,
        converting: bool = False,
        enqueued_at: float = 0.0,
    ) -> None:
        self.app_id = app_id
        self.mode = mode
        #: DES event the requester is suspended on; succeeds on grant.
        self.event = event
        #: Slot backing the request structure (None for conversions,
        #: which reuse the already-held structure).
        self.block = block
        self.converting = converting
        self.enqueued_at = enqueued_at

    def __repr__(self) -> str:
        kind = "convert" if self.converting else "request"
        return f"Waiter(app={self.app_id}, mode={self.mode.name}, {kind})"


class LockObject:
    """Lock state for one contended resource.

    An uncontended lock has no object: the lock manager files it as a
    grant word, and the first request that would add a second holder
    or a waiter inflates that word into an object, the word's holder
    first and its count carried over.  The object then lives until the
    resource is idle:

    * ``grants`` (app id -> :class:`HeldLock`) lists the holders in
      grant order;
    * ``counts`` packs one holder count per lock mode into a single int
      (``COUNT_FIELD_BITS`` each, see ``modes.py``), so compatibility
      checks cost one AND, not O(#holders) -- popular share-locked rows
      can have dozens of holders;
    * ``waiters`` is the shared empty tuple whenever nothing is queued.

    Read the holders through :meth:`held_by` / :meth:`holders` and the
    queue as ``waiters`` (truth, ``len``, iteration); all mutations must
    go through the methods here so the counts stay consistent.
    """

    __slots__ = ("key", "grants", "waiters", "counts")

    def __init__(
        self, key: LockKey, app_id: Optional[int] = None, mode=None, block=None
    ) -> None:
        """An object with no holder, or with ``app_id``'s fresh grant
        (nothing to check)."""
        #: Its key: a table's ``ResourceId`` or a row's plain tuple equal
        #: to one (``row_key``); ``resource`` is the printable id.
        self.key = key
        self.grants: Dict[int, HeldLock] = (
            {} if app_id is None else {app_id: HeldLock(app_id, mode, 1, block)}
        )
        self.waiters: Union[Deque[Waiter], Tuple[()]] = ()
        # A first holder shares the mode's baked unit: no int allocated.
        self.counts = 0 if app_id is None else mode._unit

    @property
    def resource(self) -> ResourceId:
        """The resource id this object locks, built on demand from
        ``key`` (only traces, reports and errors read it)."""
        return resource_of(self.key)

    @property
    def is_idle(self) -> bool:
        """True when nobody holds or waits for this resource."""
        return not self.grants and not self.waiters

    def held_by(self, app_id: int) -> Optional[HeldLock]:
        """``app_id``'s grant on this resource, or None."""
        return self.grants.get(app_id)

    def holders(self) -> Iterable[HeldLock]:
        """Every grant on this resource, in grant order."""
        return self.grants.values()

    def holder_mode(self, app_id: int) -> Optional[LockMode]:
        """Mode ``app_id`` currently holds, or None."""
        held = self.held_by(app_id)
        return held.mode if held else None

    def others_compatible(self, app_id: int, mode: LockMode) -> bool:
        """True when ``mode`` is compatible with every *other* holder."""
        conflicts = self.counts & mode._conflict_fields  # type: ignore[attr-defined]
        if not conflicts:
            return True
        # A conflicting mode is held; tolerable only when the requester
        # itself is its one holder.
        own = self.held_by(app_id)
        return own is not None and conflicts == own.mode._unit  # type: ignore[attr-defined]

    # -- counted mutations ------------------------------------------------

    def add_grant(self, app_id: int, mode: LockMode, block=None) -> HeldLock:
        """Record a fresh grant (caller verified compatibility)."""
        grants = self.grants
        if app_id in grants:
            raise LockManagerError(f"app {app_id} already holds {self.resource}")
        held = grants[app_id] = HeldLock(app_id, mode, 1, block)
        # A first holder shares the mode's baked unit: no int allocated.
        counts = self.counts
        unit = mode._unit  # type: ignore[attr-defined]
        self.counts = counts + unit if counts else unit
        return held

    def upgrade_grant(self, app_id: int, mode: LockMode) -> HeldLock:
        """Strengthen an existing grant to sup(held, requested)."""
        held = self.grants.get(app_id)
        if held is None:
            raise LockManagerError(
                f"app {app_id} holds nothing on {self.resource} to upgrade"
            )
        new_mode = supremum(held.mode, mode)
        if new_mode is not held.mode:
            self.counts += new_mode._unit - held.mode._unit  # type: ignore[attr-defined]
            held.mode = new_mode
        held.count += 1
        return held

    def remove_grant(self, app_id: int) -> HeldLock:
        """Drop a holder entirely (release path)."""
        held = self.grants.pop(app_id, None)
        if held is None:
            raise LockManagerError(f"app {app_id} does not hold {self.resource}")
        self.counts -= held.mode._unit  # type: ignore[attr-defined]
        return held

    def grant_now(self, waiter: Waiter) -> None:
        """Move ``waiter`` into the granted set (caller checked compat)."""
        if waiter.converting:
            self.upgrade_grant(waiter.app_id, waiter.mode)
        else:
            self.add_grant(waiter.app_id, waiter.mode, block=waiter.block)

    def enqueue(self, waiter: Waiter) -> None:
        """Queue a waiter; conversions go ahead of non-conversions."""
        if not self.waiters:
            self.waiters = deque()
        if waiter.converting:
            insert_at = 0
            for i, queued in enumerate(self.waiters):
                if queued.converting:
                    insert_at = i + 1
                else:
                    break
            self.waiters.insert(insert_at, waiter)
        else:
            self.waiters.append(waiter)

    def remove_waiter(self, app_id: int) -> List[Waiter]:
        """Remove (and return) every queued waiter of ``app_id``."""
        removed = [w for w in self.waiters if w.app_id == app_id]
        if removed:
            self.waiters = deque(w for w in self.waiters if w.app_id != app_id) or ()
        return removed

    def pump(self) -> List[Waiter]:
        """Grant queued waiters in FIFO order while compatible.

        Stops at the first waiter that cannot be granted (strict FIFO:
        later compatible waiters must not overtake it).  Returns the
        waiters granted; the manager fires their events and updates its
        accounting.
        """
        granted: List[Waiter] = []
        while self.waiters:
            waiter = self.waiters[0]
            if not self.others_compatible(waiter.app_id, waiter.mode):
                break
            self.waiters.popleft()
            self.grant_now(waiter)
            granted.append(waiter)
        if not self.waiters:
            self.waiters = ()
        return granted

    def blockers_of(self, waiter: Waiter) -> List[int]:
        """Applications that must act before ``waiter`` can be granted.

        Used for deadlock detection: incompatible holders plus every
        waiter queued ahead (strict FIFO means they gate the grant).
        """
        blockers = [
            held.app_id
            for held in self.holders()
            if held.app_id != waiter.app_id and not compatible(held.mode, waiter.mode)
        ]
        for queued in self.waiters:
            if queued is waiter:
                break
            if queued.app_id != waiter.app_id:
                blockers.append(queued.app_id)
        return blockers

    def check_invariants(self) -> None:
        """Verify the holder map, the packed counts and the queue
        representation (``LockManager.check_invariants`` runs it)."""
        if any(held.app_id != app_id for app_id, held in self.grants.items()):
            raise LockManagerError(f"grants misfile a holder on {self.resource}")
        expected = sum(held.mode._unit for held in self.holders())  # type: ignore[attr-defined]
        if expected != self.counts:
            raise LockManagerError(
                f"mode counts {self.counts:#x} != granted modes {expected:#x} "
                f"on {self.resource}"
            )
        for mode in LockMode:
            field = mode._unit * COUNT_FIELD_MAX  # type: ignore[attr-defined]
            if self.counts & field == field:
                raise LockManagerError(
                    f"{mode.name} holder count saturated on {self.resource}"
                )
        if not self.waiters and self.waiters != ():
            raise LockManagerError(f"drained queue kept on {self.resource}")

    def __repr__(self) -> str:
        holders = ", ".join(
            f"{held.app_id}:{held.mode.name}"
            for held in sorted(self.holders(), key=lambda held: held.app_id)
        )
        queue = ", ".join(f"{w.app_id}:{w.mode.name}" for w in self.waiters)
        return f"LockObject({self.resource}, granted=[{holders}], queue=[{queue}])"
