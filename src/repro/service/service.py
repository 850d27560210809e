"""`LockService`: the lock manager as a thread-safe, wall-clock service.

This is the bridge from simulation to a live server.  The *same*
:class:`~repro.lockmgr.manager.LockManager` that the DES drives is run
here under real thread concurrency, with no changes to its locking
logic:

* One **mutex** guards every manager mutation, so the manager keeps its
  single-flow-of-control invariant.  A request is the manager's
  ``begin_lock_row`` / ``begin_lock_table``, as in the DES; when that
  hands back a generator the service drives it itself, and when the
  generator yields a pending event the requesting thread parks on a
  **condition variable** derived from the same mutex.
* **Grant hand-off is decided by the lock manager, not by thread
  scheduling**: ``LockObject.pump`` grants in strict FIFO order under
  the mutex and fires each granted waiter's event; ``notify_all`` then
  wakes parked threads, each of which re-checks *its own* event.  A
  thread that was not granted goes straight back to waiting.  This is
  the classic monitor pattern: no lost wakeups (the triggered flag is
  only touched with the mutex held) and no double grants (an event can
  fire exactly once, and only ``pump`` fires grant events).
* **Per-request deadlines** bound each wait in wall time.  A deadline
  that expires withdraws the request via
  :meth:`LockManager.cancel_wait`, which frees the waiter's structure
  and fails its event; if the grant raced the deadline, the grant wins
  (``cancel_wait`` refuses to cancel a fired event) -- the request
  simply succeeds.
* **Cancellation** (:meth:`LockService.cancel`) is the same mechanism
  triggered from another thread, e.g. a client disconnect.  It is
  best-effort by design: an already-granted request completes and must
  be rolled back by its owner.

Sessions own application ids: :meth:`open_session` allocates one and
registers the application (feeding ``minLockMemory`` through the
controller's ``num_applications``); :meth:`close_session` releases every
lock -- strict two-phase locking, identical to the DES clients.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Set

from contextlib import contextmanager

from repro.errors import (
    LockManagerError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
)
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager, LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.service.clock import Clock, MonotonicClock
from repro.service.wallenv import WallClockEnvironment, WallEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import HistogramView, MetricRegistry
    from repro.obs.tracing import RequestTracer

#: Sentinel distinguishing "no timeout given" from "explicitly None".
_USE_DEFAULT = object()
_INF = math.inf


def _checked_timeout(timeout_s: object, name: str = "timeout_s") -> Optional[float]:
    """A timeout as the service keeps it: None (no deadline) for None or
    +inf, else the number of seconds; a negative or NaN one is refused."""
    if timeout_s is None or timeout_s == _INF:
        return None
    if not timeout_s >= 0:  # type: ignore[operator]
        raise ServiceError(f"{name} must be non-negative, got {timeout_s}")
    return timeout_s  # type: ignore[return-value]


def take_id_block(ids: Iterator[int], count: int) -> range:
    """The next ``count`` (at least two) ids of the arithmetic
    progression ``ids`` -- an ``itertools.count`` -- as a range."""
    block = list(itertools.islice(ids, count))
    return range(block[0], block[-1] + 1, block[1] - block[0])


@dataclass
class ServiceStats:
    """Service-level counters (the manager keeps the locking counters)."""

    requests: int = 0
    granted: int = 0
    timeouts: int = 0
    cancellations: int = 0
    failures: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    peak_sessions: int = 0


class LockService:
    """A thread-safe, wall-clock facade over one :class:`LockManager`.

    Parameters
    ----------
    chain:
        The block chain providing lock-structure storage.
    clock:
        Time source (default: a fresh :class:`MonotonicClock`).  Tests
        inject a :class:`~repro.service.clock.ManualClock`.
    default_timeout_s:
        Deadline applied to requests that do not pass their own
        ``timeout_s`` (None or +inf = wait forever; a negative or NaN
        timeout, here or per request, is refused with ServiceError).
    metrics:
        Optional :class:`~repro.obs.registry.MetricRegistry`; when given
        the service maintains ``service.*`` instruments (and callers may
        additionally install the manager's hot-path instruments).
    metric_labels:
        Optional label set attached to every ``service.*`` instrument
        (the sharded facade passes ``{"shard": str(i)}`` so each
        shard's counters are distinct series in the shared registry).
    maxlocks_fraction / lock_timeout_s:
        Forwarded to the :class:`LockManager`.
    """

    def __init__(
        self,
        chain: LockBlockChain,
        *,
        clock: Optional[Clock] = None,
        default_timeout_s: Optional[float] = None,
        metrics: Optional["MetricRegistry"] = None,
        metric_labels: Optional[Dict[str, str]] = None,
        maxlocks_fraction: float = 0.98,
        lock_timeout_s: Optional[float] = None,
    ) -> None:
        default_timeout_s = _checked_timeout(default_timeout_s, "default_timeout_s")
        self.clock = clock or MonotonicClock()
        # RLock: event firing re-enters via WallClockEnvironment.notify_all
        # while the manager code already holds the mutex.
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        self.env = WallClockEnvironment(self.clock, self._cond)
        self.manager = LockManager(
            self.env,
            chain,
            maxlocks_fraction=maxlocks_fraction,
            lock_timeout_s=lock_timeout_s,
        )
        self.default_timeout_s = default_timeout_s
        self.stats = ServiceStats()
        self._closed = False
        self._sessions: Set[int] = set()
        self._app_ids = itertools.count(1)
        #: Sessions with a request currently being driven (a session may
        #: have at most one in flight; two would corrupt ``_waiting_on``).
        self._active_requests: Set[int] = set()
        #: Why tuning was frozen, or None while tuning is live.
        self.frozen_reason: Optional[str] = None
        #: Optional hook invoked once during :meth:`close` (after all
        #: pending waits are cancelled) to return transiently borrowed
        #: lock memory to overflow; the stack wires this to
        #: :meth:`LockMemoryController.reclaim_transient_blocks`.
        self.borrow_return: Optional[Callable[[], int]] = None
        self.metric_labels = metric_labels
        #: ``service.request_latency_s``, written under ``_mutex`` (None
        #: without a registry).
        self._latency: Optional["HistogramView"] = None
        #: Optional 1-in-N request tracer (see repro.obs.tracing) and the
        #: ``worker`` its traces carry (this table's partition index).
        #: None keeps the request paths at one ``is None`` check; the
        #: stack installs one when ``trace_sample_every`` is set.
        self.tracer: Optional["RequestTracer"] = None
        self.trace_worker = 0
        if metrics is not None:
            from repro.obs.registry import WALL_CLOCK_BUCKETS_S

            # The service.* counters read the stats the request paths
            # keep anyway: no second, locked increment per request.
            stats = self.stats
            for name, read in (
                ("service.requests", lambda: stats.requests),
                ("service.timeouts", lambda: stats.timeouts),
                ("service.cancellations", lambda: stats.cancellations),
                (
                    "service.tuning_frozen",
                    lambda: int(self.frozen_reason is not None),
                ),
            ):
                metrics.counter_view(name, read, labels=metric_labels)
            # The latency buckets are this service's own, written under
            # the mutex every request already holds; scrapes take it too.
            self._latency = metrics.histogram_view(
                "service.request_latency_s",
                WALL_CLOCK_BUCKETS_S,
                self._mutex,
                labels=metric_labels,
            )

    # -- introspection -----------------------------------------------------

    @property
    def chain(self) -> LockBlockChain:
        return self.manager.chain

    @property
    def closed(self) -> bool:
        return self._closed

    def session_count(self) -> int:
        """Open sessions (the service analogue of connected applications)."""
        return len(self._sessions)

    def waiting_sessions(self) -> Set[int]:
        with self._mutex:
            return set(self.manager.waiting_apps())

    def check_invariants(self) -> None:
        with self._mutex:
            self.manager.check_invariants()

    def snapshot_report(self, max_resources: int = 20) -> str:
        with self._mutex:
            return self.manager.snapshot_report(max_resources)

    # -- session lifecycle -------------------------------------------------

    def open_session(self) -> int:
        """Allocate an application id and register the session."""
        return self._open()

    def reserve_app_ids(self, count: int) -> range:
        """Hand out the next ``count`` ids of :meth:`open_session`'s
        progression, none of them open yet: the wire server reserves
        them to one connection, whose first frame naming an id opens it
        (:meth:`open_reserved`)."""
        with self._mutex:
            self._ensure_open()
            return take_id_block(self._app_ids, count)

    def open_reserved(self, app_id: int) -> None:
        """Open a reserved id, counted exactly as :meth:`open_session`.

        The caller (the wire server) vouches that the id is one it
        reserved and has not opened before.
        """
        self._open(app_id)

    def _open(self, app_id: Optional[int] = None) -> int:
        """Register ``app_id`` (default: the next id) as an open session."""
        with self._mutex:
            self._ensure_open()
            if app_id is None:
                app_id = next(self._app_ids)
            elif app_id in self._sessions:
                raise ServiceError(f"session {app_id} is already registered")
            self._sessions.add(app_id)
            self.stats.sessions_opened += 1
            if len(self._sessions) > self.stats.peak_sessions:
                self.stats.peak_sessions = len(self._sessions)
            return app_id

    def adopt_session(self, app_id: int) -> None:
        """Register an externally allocated application id.

        The sharded service (:mod:`repro.service.sharded`) owns the
        global id space and registers a session with a shard the first
        time a request routes there.  Adoption does not touch the
        session counters: the session was opened elsewhere; this shard
        merely agrees to serve it.
        """
        with self._mutex:
            self._ensure_open()
            if app_id in self._sessions:
                raise ServiceError(f"session {app_id} is already registered")
            self._sessions.add(app_id)

    def close_session(self, app_id: int) -> int:
        """Release every lock of ``app_id`` and retire the session.

        Safe to call for a session whose request just failed (deadlock,
        timeout, cancellation): queued waits were already withdrawn, and
        ``release_all`` also handles the enqueued-elsewhere case.
        Returns the number of lock structures freed.
        """
        with self._mutex:
            if app_id not in self._sessions:
                raise ServiceError(f"session {app_id} is not open")
            if app_id in self._active_requests:
                raise ServiceError(
                    f"session {app_id} still has a request in flight"
                )
            freed = self.manager.release_all(app_id)
            self._sessions.discard(app_id)
            self.stats.sessions_closed += 1
            return freed

    @contextmanager
    def session(self) -> Iterator[int]:
        """``with service.session() as app_id:`` -- always releases."""
        app_id = self.open_session()
        try:
            yield app_id
        finally:
            self.close_session(app_id)

    # -- locking API -------------------------------------------------------

    def lock_row(
        self,
        app_id: int,
        table_id: int,
        row_id: int,
        mode: LockMode,
        timeout_s: object = _USE_DEFAULT,
    ) -> None:
        """Acquire a row lock (plus covering intent lock), blocking.

        Raises :class:`DeadlockError`, :class:`LockTimeoutError` (the
        per-request deadline or the manager's LOCKTIMEOUT),
        :class:`LockListFullError` or :class:`RequestCancelledError`;
        after any of these the session must roll back via
        :meth:`close_session` (strict 2PL, as in the DES).
        """
        self._request(perf_counter(), app_id, table_id, row_id, mode, timeout_s, True)

    def begin_lock_row(
        self,
        app_id: int,
        table_id: int,
        row_id: int,
        mode: LockMode,
        timeout_s: object = _USE_DEFAULT,
    ) -> Optional[tuple]:
        """:meth:`lock_row` up to where it could park, in one mutex hold.

        None means granted (and counted).  Otherwise the request is in
        flight for the session, parked at its first wait, and returned:
        hand it to :meth:`finish_request` on a thread that may park.
        The wire server calls this on a connection's reader with
        whatever a frame carried, so it makes every check
        :meth:`lock_row` makes and raises what that raises.
        """
        return self._request(
            perf_counter(), app_id, table_id, row_id, mode, timeout_s, False
        )

    def finish_request(self, request: tuple) -> None:
        """Drive a request :meth:`begin_lock_row` returned to its end,
        parking this thread while it waits; raises as :meth:`lock_row`."""
        started, app_id, table_id, row_id, mode, rest, target, deadline = request
        self.env.latch_acquire()
        try:
            try:
                if target is not None:  # None: it is done
                    self._drive(app_id, rest, target, deadline)
            except BaseException as exc:
                self._settle(started, app_id, table_id, row_id, mode, exc)
                raise
            self._settle(started, app_id, table_id, row_id, mode)
        finally:
            self.env.latch_release()

    def lock_table(
        self,
        app_id: int,
        table_id: int,
        mode: LockMode,
        timeout_s: object = _USE_DEFAULT,
    ) -> None:
        """Acquire a table lock, blocking (see :meth:`lock_row`)."""
        self._request(perf_counter(), app_id, table_id, None, mode, timeout_s, True)

    def rollback(self, app_id: int) -> int:
        """Release every lock of ``app_id`` without closing the session.

        The recovery step after :class:`DeadlockError`,
        :class:`LockTimeoutError` or :class:`RequestCancelledError`
        when the client wants to retry on the same session.  Returns the
        number of lock structures freed.

        A request still parked for the session (the wire runs a
        rollback inline while the same session's lock request waits on
        the executor) is withdrawn first, exactly as :meth:`cancel`
        does: its thread sees :class:`RequestCancelledError` instead of
        sleeping on a wait ``release_all`` would drop without waking.
        """
        with self._mutex:
            if app_id not in self._sessions:
                raise ServiceError(f"session {app_id} is not open")
            if self.manager.cancel_wait(
                app_id, RequestCancelledError("session rolled back"), reason="cancel"
            ):
                self.stats.cancellations += 1
            return self.manager.release_all(app_id)

    def release_read_lock(self, app_id: int, table_id: int, row_id: int) -> bool:
        """Cursor-stability early release (never blocks)."""
        with self._mutex:
            self._ensure_open()
            return self.manager.release_read_lock(app_id, table_id, row_id)

    def cancel(self, app_id: int, message: str = "cancelled") -> bool:
        """Withdraw ``app_id``'s pending wait from another thread.

        The waiting thread sees :class:`RequestCancelledError`.  Returns
        False when the session was not waiting (already granted, already
        failed, or idle) -- cancellation is best-effort by design.
        """
        with self._mutex:
            cancelled = self.manager.cancel_wait(
                app_id, RequestCancelledError(message), reason="cancel"
            )
            if cancelled:
                self.stats.cancellations += 1
            return cancelled

    # -- tuning degradation ------------------------------------------------

    def freeze_tuning(self, reason: str) -> None:
        """Degrade to a frozen, static-LOCKLIST configuration.

        Called by the tuner daemon when the tuning thread dies: the
        growth provider is detached (no more synchronous growth -- the
        static-LOCKLIST behaviour, where memory pressure is answered by
        escalation alone) and MAXLOCKS is pinned at its current value.
        The service keeps serving requests; only adaptivity is lost.
        """
        with self._mutex:
            if self.frozen_reason is not None:
                return
            self.frozen_reason = reason
            self.manager.growth_provider = None
            self.manager.maxlocks_provider = None

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting requests and cancel every pending wait.

        Waiting threads see :class:`ServiceClosedError` and are expected
        to roll back.  Sessions stay inspectable; ``close_session``
        continues to work so owners can release held locks.

        A synchronous-growth borrow still in flight at close (lock
        memory taken from overflow mid-interval that no tuning pass
        will reconcile any more) is returned through ``borrow_return``:
        cancelling the pending waits first frees their structures, so
        entirely-free borrowed blocks -- including a partially used
        grant whose requester was just cancelled -- go back to overflow
        instead of being stranded in the locklist heap forever.
        """
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            for app_id in list(self.manager.waiting_apps()):
                self.manager.cancel_wait(
                    app_id, ServiceClosedError("service closing"), reason="cancel"
                )
            if self.borrow_return is not None:
                self.borrow_return()

    # -- request driving (the heart of the service) ------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("lock service is closed")

    def _request(self, started, app_id, table_id, row_id, mode, timeout_s, finish):
        """The one request body: a row request, or with ``row_id`` None
        a table request.  In one mutex hold: the closed, session and
        in-flight checks, then the manager's part that never waits.
        Granted there, the request is counted and None returned.
        Otherwise the session is marked in flight and the continuation
        runs to its first wait; with ``finish`` it is then driven to the
        end under the same hold, else it is returned as it stands (see
        :meth:`begin_lock_row`)."""
        if timeout_s is _USE_DEFAULT:
            timeout_s = self.default_timeout_s
        elif timeout_s is not None and not 0.0 <= timeout_s < _INF:  # type: ignore[operator]
            timeout_s = _checked_timeout(timeout_s)  # the usual finite one skips the call
        env = self.env
        # env.latch_acquire, written out: this is the whole of an
        # uncontended request's service work.
        if env.latch_profiler is None:
            self._mutex.acquire()
        else:
            env.latch_acquire()
        try:
            if self._closed:
                raise ServiceClosedError("lock service is closed")
            if app_id not in self._sessions:
                raise ServiceError(f"session {app_id} is not open")
            if app_id in self._active_requests:
                raise ServiceError(
                    f"session {app_id} already has a request in flight"
                )
            stats = self.stats
            stats.requests += 1
            try:
                rest = (
                    self.manager.begin_lock_row(app_id, table_id, row_id, mode)
                    if row_id is not None
                    else self.manager.begin_lock_table(app_id, table_id, mode)
                )
                if rest is None:
                    # _settle, written out: the usual request ends here.
                    stats.granted += 1
                    if self._latency is not None:
                        self._latency.observe_held(perf_counter() - started)
                    if self.tracer is not None and row_id is not None:
                        self._trace(started, app_id, table_id, row_id, mode)
                    return None
                self._active_requests.add(app_id)
                target = next(rest, None)  # its first wait, or done
            except BaseException as exc:
                self._settle(started, app_id, table_id, row_id, mode, exc)
                raise
            request = (
                started, app_id, table_id, row_id, mode, rest, target,
                None if timeout_s is None else self.clock.now() + timeout_s,
            )
            if finish or target is None:
                self.finish_request(request)  # the mutex is re-entrant
                return None
            return request
        finally:
            self._mutex.release()

    def _settle(self, started, app_id, table_id, row_id, mode, exc=None) -> None:
        """Count a request that ended -- granted, or failed with ``exc``
        -- and take its session out of flight (under the mutex)."""
        self._active_requests.discard(app_id)
        stats = self.stats
        if exc is None:
            stats.granted += 1
        elif isinstance(exc, LockTimeoutError):
            stats.timeouts += 1
        elif not isinstance(exc, (RequestCancelledError, ServiceClosedError)):
            stats.failures += 1
        if self._latency is not None:
            self._latency.observe_held(perf_counter() - started)
        if self.tracer is not None and row_id is not None:
            self._trace(
                started, app_id, table_id, row_id, mode,
                "ok" if exc is None else type(exc).__name__,
            )

    def _trace(self, started, app_id, table_id, row_id, mode, outcome="ok") -> None:
        """Count one row request on the tracer; land the sampled 1/N.

        An in-process request crosses no wire: its one hop is
        ``server.lock_wait`` (= its service time), so the hops still
        sum to ``total_s`` and the trace's wire tax is 0.  ``outcome``
        is ``"ok"`` or the exception class name, as the routed client
        records it.
        """
        ctx = self.tracer.maybe_trace()
        if ctx is not None:
            total_s = perf_counter() - started
            self.tracer.finish(
                ctx,
                total_s,
                {"server.lock_wait": total_s},
                worker=self.trace_worker,
                app_id=app_id,
                table_id=table_id,
                row_id=row_id,
                mode=mode.name,
                outcome=outcome,
            )

    def _drive(
        self, app_id: int, gen, target: WallEvent, deadline: Optional[float]
    ) -> None:
        """Run a locking generator, parked at ``target``, to completion
        under the mutex.

        The generator's yields are :class:`WallEvent`s.  A triggered
        event resumes the generator immediately (send/throw mirrors the
        DES process loop); a pending one parks this thread on the
        condition variable until the event fires, an internal timeout
        comes due, or the request deadline expires.
        """
        cond = self._cond
        while True:
            while not target.triggered:
                now = self.clock.now()
                # Fire any due manager-level LOCKTIMEOUT (lazy timeouts).
                target.fire_due(now)
                if target.triggered:
                    break
                if deadline is not None and now >= deadline:
                    # Withdraw the wait; if the grant raced us and won,
                    # cancel_wait refuses and the loop sees the grant.
                    if not self.manager.cancel_wait(
                        app_id,
                        LockTimeoutError(
                            f"session {app_id} missed its request deadline "
                            f"after {now - (deadline or now):+.3f}s"
                        ),
                        reason="timeout",
                    ):
                        continue
                    break
                wake_at = target.next_deadline()
                if deadline is not None and (wake_at is None or deadline < wake_at):
                    wake_at = deadline
                cond.wait(None if wake_at is None else max(0.0, wake_at - now))
            try:
                if target.ok:
                    target = gen.send(target.value)
                else:
                    target = gen.throw(target.value)
            except StopIteration:
                return


# Re-exported for callers that catch manager errors through the service.
__all__ = [
    "LockService",
    "ServiceStats",
    "LockManagerError",
    "LockTimeoutError",
]
