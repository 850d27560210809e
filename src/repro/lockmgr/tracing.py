"""Structured tracing of lock manager activity.

Attach a :class:`LockTrace` to a :class:`~repro.lockmgr.manager.LockManager`
to capture a bounded, structured log of locking events -- grants,
waits, conversions, escalations, deadlocks, synchronous growth.  Useful
for debugging workloads, for teaching (the Figure 3 convoy is clearly
visible in a trace), and for offline analysis of contention.

Tracing is off by default and costs a single ``is None`` check per
event when disabled.

Example::

    trace = LockTrace(capacity=10_000)
    manager.tracer = trace
    ... run the simulation ...
    for event in trace.query(kind="escalation"):
        print(event)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One structured lock manager event."""

    time: float
    kind: str
    app_id: int
    detail: str = ""
    #: Resource the event concerns (repr form, e.g. ``"T0.R7"``), empty
    #: for events without a single resource (release, sync-growth).
    resource: str = ""
    #: Structured magnitude of the event where one exists -- wait
    #: duration in seconds (``wait-end``, ``timeout``, ``deadlock``),
    #: blocks granted (``sync-growth``), structures freed
    #: (``escalation``, ``release``); 0.0 otherwise.  Lets offline
    #: consumers (the JSONL exporter foremost) avoid parsing ``detail``.
    value: float = 0.0

    def __str__(self) -> str:
        return f"[{self.time:10.3f}s] {self.kind:<12s} app={self.app_id:<5d} {self.detail}"


class LockTrace:
    """A bounded ring buffer of :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events are evicted (counters keep
        counting).  ``None`` retains everything -- use only for short
        runs.
    """

    #: Event kinds the lock manager emits.
    KINDS = (
        "grant",
        "wait-begin",
        "wait-end",
        "convert",
        "release",
        "escalation",
        "deadlock",
        "timeout",
        "sync-growth",
        "lock-list-full",
    )

    def __init__(self, capacity: Optional[int] = 10_000) -> None:
        # Imported here: repro.obs imports this module.
        from repro.obs.ring import BoundedRing

        self._events: "BoundedRing[TraceEvent]" = BoundedRing(capacity)
        self._counts: Counter = Counter()

    def emit(
        self,
        time: float,
        kind: str,
        app_id: int,
        detail: str = "",
        resource: str = "",
        value: float = 0.0,
    ) -> None:
        """Record one event (called by the lock manager)."""
        self._events.append(TraceEvent(time, kind, app_id, detail, resource, value))
        self._counts[kind] += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events.snapshot())

    def count(self, kind: str) -> int:
        """Total events of ``kind`` ever emitted (eviction-proof)."""
        return self._counts.get(kind, 0)

    def query(
        self,
        kind: Optional[str] = None,
        app_id: Optional[int] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
        resource: Optional[str] = None,
    ) -> Iterator[TraceEvent]:
        """Retained events filtered by kind, application, time window
        and resource (repr form, e.g. ``"T0.R7"``)."""
        for event in self._events.snapshot():
            if kind is not None and event.kind != kind:
                continue
            if app_id is not None and event.app_id != app_id:
                continue
            if resource is not None and event.resource != resource:
                continue
            if not since <= event.time <= until:
                continue
            yield event

    def to_dicts(self, **query_kwargs) -> List[Dict[str, object]]:
        """The retained events as plain dicts (JSONL/export friendly).

        Keyword arguments are forwarded to :meth:`query`, so
        ``trace.to_dicts(kind="escalation")`` exports one event family.
        """
        return [asdict(event) for event in self.query(**query_kwargs)]

    def tail(self, n: int = 20) -> str:
        """The last ``n`` retained events, formatted one per line."""
        return "\n".join(str(e) for e in self._events.snapshot(n))

    def summary(self) -> str:
        """Counts per kind, one line."""
        parts = [f"{kind}={self._counts[kind]}" for kind in sorted(self._counts)]
        return "LockTrace(" + ", ".join(parts) + ")"

    def write_csv(self, path: str) -> None:
        """Dump the retained events to ``path`` for external analysis."""
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time", "kind", "app_id", "resource", "detail", "value"])
            for event in self._events.snapshot():
                writer.writerow(
                    [event.time, event.kind, event.app_id,
                     event.resource, event.detail, event.value]
                )
