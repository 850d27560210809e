"""A small discrete-event simulation kernel.

This module provides the minimal process-based DES machinery the rest of
the library is built on.  It is deliberately modelled on the SimPy API
(``Environment``, ``Process``, ``Timeout``, ``Interrupt``) so the code
reads familiarly, but it is self-contained: the reproduction environment
has no network access, so we implement the kernel from scratch.

Concepts
--------

* An :class:`Environment` holds the simulation clock and the event queue.
* An :class:`Event` is a one-shot occurrence.  Processes *wait* on events
  by ``yield``-ing them.
* A :class:`Process` wraps a generator function.  Each time the generator
  yields an event, the process suspends until that event fires.  A process
  is itself an event that fires when the generator finishes, so processes
  can wait for each other.
* A :class:`Timeout` is an event that fires after a simulated delay.
* :class:`Interrupt` allows one process to asynchronously wake another;
  the victim sees the interrupt as an exception thrown into its generator.

Determinism
-----------

Events scheduled for the same simulation time fire in FIFO order of
scheduling (a monotonically increasing sequence number breaks ties), so a
simulation run is a pure function of its inputs and random seeds.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional

from repro.errors import SimulationError

#: Type of the generator driving a :class:`Process`.
ProcessGenerator = Generator["Event", Any, Any]

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` triggers it, schedules its callbacks, and freezes its
    value.  Triggering an event twice is an error.

    Events are the most-allocated objects in a simulation (every lock
    wait, timeout and process creates at least one), so the whole
    hierarchy is slotted; subclasses must declare ``__slots__`` too.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        #: Set when a failed event's exception was delivered to a waiter.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiter that yields on this event will see ``exception`` raised
        inside its generator.  If no process ever waits on a failed event
        the exception propagates out of :meth:`Environment.run` (it would
        otherwise be silently lost).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed the callback runs
        immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after ``delay`` simulated time units."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` is whatever object the interrupter supplied; it is
    available both positionally (``exc.args[0]``) and via the property.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class _InterruptDelivery(Event):
    """Internal event used to deliver an interrupt to a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any) -> None:
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(process._deliver_interrupt)
        # Interrupts jump the queue: schedule ahead of same-time events.
        env._schedule(self, urgent=True)


class Process(Event):
    """A running process; also an event that fires when it terminates."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        Interrupting a dead process is an error; interrupting a process
        that is interrupting itself is not supported (as in SimPy).
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptDelivery(self.env, self, cause)

    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # terminated before the interrupt fired
            return
        # Detach from whatever we were waiting on so that its eventual
        # firing does not resume us a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_target = self._generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                env._active_process = None
                self._target = None
                self._ok = True
                self._value = stop.value
                env._schedule(self)
                return
            except BaseException as exc:  # process crashed
                env._active_process = None
                self._target = None
                self._ok = False
                self._value = exc
                env._schedule(self)
                return

            if not isinstance(next_target, Event):
                env._active_process = None
                crash = SimulationError(
                    f"process yielded a non-event: {next_target!r}"
                )
                self._target = None
                self._ok = False
                self._value = crash
                env._schedule(self)
                return

            if next_target.callbacks is not None:
                # Target pending: register and suspend.
                next_target.callbacks.append(self._resume)
                self._target = next_target
                env._active_process = None
                return
            # Target already processed: continue immediately with its value.
            event = next_target

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        state = "alive" if self.is_alive else "dead"
        return f"<Process {name} {state} at {id(self):#x}>"


class Environment:
    """Holds the simulation clock and executes the event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List = []
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None between events)."""
        return self._active_process

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process driven by ``generator``."""
        return Process(self, generator)

    # -- scheduling and execution ----------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, urgent: bool = False) -> None:
        priority = 0 if urgent else 1
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("no more events to process")
        when, _priority, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An untended failure: surface it instead of losing it.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced exactly to it even
        if the queue drains earlier, so metric sampling loops terminated
        by ``until`` observe a consistent final time.
        """
        if until is not None:
            if until < self._now:
                raise ValueError(
                    f"cannot run until {until}; clock is already at {self._now}"
                )
            stop = Event(self)
            stop._ok = True
            stop._value = None
            self._schedule(stop, delay=until - self._now, urgent=True)
            stop.add_callback(lambda _event: None)
            while self._queue:
                if self._queue[0][3] is stop:
                    self.step()
                    return
                self.step()
            self._now = until
            return
        while self._queue:
            self.step()
