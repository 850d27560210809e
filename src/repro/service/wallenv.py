"""A wall-clock stand-in for the DES :class:`Environment`.

The lock manager was written against the DES: its blocking entry points
are generators that ``yield`` events, and the only environment surface
they touch is ``env.now`` and ``env.event()``.
:class:`WallClockEnvironment` implements exactly that surface over a real
:class:`~repro.service.clock.Clock` plus a ``threading.Condition``, which
lets :class:`~repro.service.service.LockService` run the *unchanged*
lock-manager code under real thread concurrency:

* every piece of manager code runs under the service's one mutex, so the
  manager stays logically single-threaded (its own invariant);
* when a generator yields a pending event, the driving thread parks on
  the shared condition variable instead of returning to a scheduler;
* firing an event (``succeed``/``fail``) notifies the condition, and
  every parked thread re-checks *its own* target under the mutex -- the
  classic monitor pattern, immune to lost wakeups because the triggered
  flag is only ever read and written with the mutex held.

A wait's only bound is its request's deadline, which the waiting thread
keeps itself (:meth:`LockService._drive`): no timer thread exists, so a
service with no waiters costs no CPU.

:class:`WallEvent` mirrors the semantics of :mod:`repro.engine.des`
events (`succeed`/`fail` exactly once, `triggered`/`ok`/`value`) without
inheriting from them: DES events schedule themselves onto a simulation
queue, which has no meaning here.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import SimulationError
from repro.obs.waits import LATCH_SPINS
from repro.service.clock import Clock

_PENDING = object()


class WallEvent:
    """A one-shot occurrence threads can wait for under the service mutex.

    The triggering thread must hold the environment's mutex (all lock
    manager code does); ``succeed``/``fail`` notify the shared condition
    so parked threads re-check their targets.
    """

    __slots__ = ("env", "_value", "_ok")

    def __init__(self, env: "WallClockEnvironment") -> None:
        self.env = env
        self._value: Any = _PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "WallEvent":
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.notify_all()
        return self

    def fail(self, exception: BaseException) -> "WallEvent":
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.notify_all()
        return self

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class WallClockEnvironment:
    """The environment surface the lock manager needs, on wall time.

    Not a scheduler: there is no event queue and no ``run`` loop.  The
    service's request threads *are* the scheduler -- each drives its own
    lock-manager generator and parks on ``condition`` while its target
    event is pending.  Everything here must be called with the
    condition's underlying mutex held.
    """

    def __init__(self, clock: Clock, condition: threading.Condition) -> None:
        self.clock = clock
        self.condition = condition
        #: Optional :class:`repro.obs.waits.WaitEventProfiler`.  When
        #: set, :meth:`latch_acquire` keeps Oracle-style latch counters
        #: (gets / misses / spins / sleeps) for the service mutex;
        #: disabled costs one ``is None`` check per acquisition.
        self.latch_profiler = None

    @property
    def now(self) -> float:
        """Current wall-clock time (monotonic seconds since service start)."""
        return self.clock.now()

    def latch_acquire(self) -> None:
        """Acquire the service mutex, optionally profiling the latch get.

        Disabled: exactly one ``is None`` check ahead of a plain
        ``condition.acquire()`` (``Condition`` binds ``acquire`` to the
        underlying lock's method, so this is the same acquisition the
        ``with`` statement performs).  Enabled, the acquisition follows
        the classic latch protocol: an immediate try-acquire (fast get),
        then a bounded spin of try-acquires (miss + spins), then a
        blocking wait (sleep, timed).  Counter updates happen *after*
        the latch is held, so they are serialized by the latch itself.
        """
        prof = self.latch_profiler
        if prof is None:
            self.condition.acquire()
            return
        acquire = self.condition.acquire
        if acquire(blocking=False):
            prof.latch_fast_get()
            return
        spins = 0
        while spins < LATCH_SPINS:
            spins += 1
            if acquire(blocking=False):
                prof.latch_spin_get(spins)
                return
        slept_from = self.clock.now()
        acquire()
        prof.latch_sleep_get(spins, max(0.0, self.clock.now() - slept_from))

    def latch_release(self) -> None:
        """Release the service mutex (pairs with :meth:`latch_acquire`)."""
        self.condition.release()

    def event(self) -> WallEvent:
        return WallEvent(self)

    def notify_all(self) -> None:
        """Wake every parked request thread to re-check its target.

        The condition is built over an RLock, so this re-enters when the
        firing thread already holds the service mutex (the normal case:
        all manager code runs under it) and briefly acquires otherwise
        (standalone use of events in tests).
        """
        with self.condition:
            self.condition.notify_all()
